import io
import json

import pytest

from supergrass.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "th1*th2 + 2*x")
    assert code == 0
    assert out.strip() == "2*x + th1*th2"


def test_expand_nilpotent(capsys):
    code, out, _ = run(capsys, "expand", "th1*th1")
    assert code == 0
    assert out.strip() == "0"


def test_berezin_with_box(capsys):
    code, out, _ = run(capsys, "berezin", "th1*th2*x^2", "--box", "0", "1")
    assert code == 0
    assert out.strip() == "1/3"


def test_berezin_indefinite(capsys):
    code, out, _ = run(capsys, "berezin", "th1*th2*x^2 + th1*x")
    assert code == 0
    assert out.strip() == "x^2"


def test_bracket_supertime(capsys):
    code, out, _ = run(capsys, "bracket", "D", "D")
    assert code == 0
    assert out.strip() == "-2*d/dt"


def test_closure_values(capsys):
    for k, want in ((1, "3"), (2, "6"), (4, "15")):
        code, out, _ = run(capsys, "closure", "--k", str(k))
        assert code == 0
        assert out.strip() == want


def test_brackets_json(capsys):
    code, out, _ = run(capsys, "brackets", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 2
    # the (a=1, b=2, alpha=1, beta=2) entry carries the Im_2 structure constant
    entry = next(e for e in data["brackets"]
                 if (e["a"], e["b"], e["alpha"], e["beta"]) == (1, 2, 1, 2))
    assert entry["terms"] == {"Im2": "2"}


def test_table_text_and_json(capsys):
    code, out, _ = run(capsys, "table", "--alg", "O")
    assert code == 0
    assert "u8" in out
    code, out, _ = run(capsys, "table", "--alg", "O", "--json")
    data = json.loads(out)
    assert data["dim"] == 8
    prods = {(p["a"], p["b"]): (p["result"], p["sign"]) for p in data["products"]}
    assert prods[(3, 4)] == (2, 1)
    assert prods[(6, 7)] == (2, 1)
    assert prods[(8, 5)] == (2, 1)


def test_pullback_from_file(tmp_path, capsys):
    desc = {
        "even": ["x"],
        "theta": [],
        "eta": ["et1", "et2"],
        "target": ["y"],
        "phi": {"y": "x"},
        "xi": {"1,2": {"y": "1"}},
    }
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "pullback", str(path), "y^2")
    assert code == 0
    assert out.strip() == "x^2 + 2*x*et1*et2"


def test_model_superparticle(capsys):
    code, out, _ = run(capsys, "model", "superparticle", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["plain_variation_ok"] and data["modulated_ok"]


def test_model_sigma_with_h(capsys):
    code, out, _ = run(capsys, "model", "sigma32", "--h", "u^3 - 2*u", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["euler_ok"] and data["square_ok"]
    assert "F" in data["euler"]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "divalg", "--cases", "10")
    assert code == 0
    assert "[PASS]" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "expr_io", "--seed", "5", "--json", "--cases", "20")
    code2, out2, _ = run(capsys, "verify", "expr_io", "--seed", "5", "--json", "--cases", "20")
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_suite_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "nope")
    assert code == 2


def test_verify_rejects_fewer_than_one_case(capsys):
    # a run that exercises no cases must not report PASS
    for cases in ("0", "-5"):
        code, out, err = run(capsys, "verify", "kernel", "--cases", cases)
        assert code == 2
        assert "--cases must be at least 1" in err
        assert "PASS" not in out


def test_bad_expression_is_usage_error(capsys):
    code, out, err = run(capsys, "expand", "2 + * 3")
    assert code == 2
    assert "expression error" in err


@pytest.mark.parametrize("argv, stdin", [
    (("expand", "1/0"), ""),
    (("expand", "(" * 3000 + "x" + ")" * 3000), ""),
    (("pullback", "-", "x"), "[]"),
    (("expand", "[x,y]"), ""),
    (("berezin", "th1", "--box", "1/0", "1"), ""),
    (("pullback", "-", "x"), '{"target": 5, "phi": {}}'),
    (("pullback", "-", "y"), '{"target": ["y"], "phi": {"y": 5}}'),
    (("pullback", "-", "y"), '{"target": ["y"], "theta": ["th1"], "phi": {"y": "y"}, "xi": {"1": "y"}}'),
    (("model", "sigma32", "--h", "I*u"), ""),
], ids=["zero-denominator", "deep-nesting", "morphism-not-object", "bracket-of-polynomials",
        "box-zero-denominator", "morphism-target-not-list", "morphism-phi-not-text",
        "morphism-xi-not-object", "h-not-rational"])
def test_bad_input_exits_two_without_traceback(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_bad_morphism_file_is_usage_error(capsys):
    code, out, err = run(capsys, "pullback", "/nonexistent/m.json", "y")
    assert code == 2


def test_bad_h_polynomial_is_usage_error(capsys):
    code, out, err = run(capsys, "model", "sigma32", "--h", "th1*u")
    assert code == 2


def test_suite_failure_exits_one(capsys, monkeypatch):
    from supergrass import suites

    def always_fails(rng, cases, ks):
        yield "th1*th1"

    monkeypatch.setitem(suites.SUITES, "doomed",
                        [("doomed.check", "always fails", suites.whole_check(always_fails))])
    code, out, err = run(capsys, "verify", "doomed")
    assert code == 1
    assert "[FAIL] doomed.check" in out
    assert "th1*th1" in out
    assert "reproduce with --seed" in out


def test_check_that_ran_no_case_fails(capsys, monkeypatch):
    from supergrass import suites

    def only_skips(rng, cases, ks):
        for _ in range(cases):
            yield None

    monkeypatch.setitem(suites.SUITES, "vacuous",
                        [("vacuous.check", "skips every case", suites.whole_check(only_skips))])
    code, out, err = run(capsys, "verify", "vacuous", "--json")
    assert code == 1
    (check,) = json.loads(out)["suites"][0]["checks"]
    assert check == {"id": "vacuous.check", "law": "skips every case", "pass": False,
                     "counterexample": "no case ran"}
