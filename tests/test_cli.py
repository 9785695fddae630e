import io
import json
import time

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
    code, out, _ = run(capsys, "bracket", "D", "tau")
    assert code == 0
    assert out.strip() == "0"


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


@pytest.mark.parametrize("argv, stdin, message", [
    (("expand", "1/0"), "", "zero denominator"),
    (("expand", "(" * 3000 + "x" + ")" * 3000), "", "nested more than 100 deep"),
    (("pullback", "-", "x"), "[]", "must be a JSON object"),
    (("expand", "[x,y]"), "", "bad character"),
    (("berezin", "th1", "--box", "1/0", "1"), "", "is not a rational number"),
    (("pullback", "-", "x"), '{"target": 5, "phi": {}}', "'target' must be a list"),
    (("pullback", "-", "y"), '{"target": ["y"], "phi": {"y": 5}}', "'phi' must be an object"),
    (("pullback", "-", "y"), '{"target": ["y"], "theta": ["th1"], "phi": {"y": "y"}, "xi": {"1": "y"}}',
     "'xi[1]' must be an object"),
    (("model", "sigma32", "--h", "I*u"), "", "coefficients must be rational"),
    (("model", "sigma32", "--h", "I*u^2"), "", "coefficients must be rational"),
    (("expand", "(x+1)^100000"), "", "term pairs"),
    (("expand", "(x+y+z+w+th1+th2)^2000"), "", "term pairs"),
    (("berezin", "th1*x^1000000000", "--box", "0", "2"), "", "degree budget"),
    (("expand", "(2^9999)^9999"), "", "coefficient budget"),
    (("expand", "(1+I)^99999999"), "", "coefficient budget"),
    (("expand", "3^9999"), "", "print budget"),
    (("expand", "3^9999*x", "--json"), "", "print budget"),
    (("model", "sigma32", "--h", "u^1001"), "", "degree budget"),
    (("model", "sigma32", "--h", ""), "", "end of input"),
    (("berezin", "th1*x", "--box", "0", "1e10000000"), "", "is not a rational number"),
], ids=["zero-denominator", "deep-nesting", "morphism-not-object", "bracket-of-polynomials",
        "box-zero-denominator", "morphism-target-not-list", "morphism-phi-not-text",
        "morphism-xi-not-object", "h-not-rational", "h-square-not-rational",
        "power-over-term-budget", "mixed-power-over-term-budget", "box-power-over-degree-budget",
        "power-over-coefficient-budget", "gaussian-power-over-coefficient-budget",
        "power-over-print-budget", "json-over-print-budget",
        "h-over-degree-budget", "h-empty", "box-exponent-bound"])
def test_bad_input_exits_two_without_traceback(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 1
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("expr, err", [
    ("D[dt](t)", "expression error: 1:2: bad character '['\n"),
    ("[x, y]", "expression error: 1:1: bad character '['\n"),
    # the syntax error comes before any symbol inside the bracket is looked up
    ("[D[dt](q), y]", "expression error: 1:1: bad character '['\n"),
    ("2*D[x](x)", "expression error: 1:4: bad character '['\n"),
], ids=["derivation-application", "bracket-of-polynomials", "unknown-inside-bracket",
        "derivation-inside-product"])
def test_expand_has_no_named_derivations(capsys, expr, err):
    assert run(capsys, "expand", expr) == (2, "", err)


@pytest.mark.parametrize("expr", ["D", "D*th1", "ber"])
def test_d_and_ber_are_ordinary_symbols(capsys, expr):
    assert run(capsys, "expand", expr) == (0, expr + "\n", "")


def test_power_over_coefficient_budget_names_the_budget(capsys):
    code, out, err = run(capsys, "expand", "(2^9999)^9999")
    assert code == 2
    assert "coefficient budget" in err


def test_gaussian_power_over_coefficient_budget_fails_fast(capsys):
    # |1 + I|^n = 2^(n/2): the parts of (1+I)^99999999 would hold 50 million bits
    start = time.process_time()
    code, out, err = run(capsys, "expand", "(1+I)^99999999")
    assert time.process_time() - start < 0.1
    assert (code, out) == (2, "")
    assert "coefficient budget" in err


def test_coefficients_over_the_print_budget_are_refused_by_name(capsys):
    # 3^9999 is under the coefficient budget, but its 4771 digits are over
    # Python's int-to-text limit; 2^9999 (3010 digits) prints
    err = "error: a 15849-bit coefficient exceeds the print budget of 14000 bits\n"
    for argv in (("expand", "3^9999"), ("expand", "3^9999", "--json"), ("expand", "x + (2 + 3^9999*I)*th1")):
        assert run(capsys, *argv) == (2, "", err)
    assert run(capsys, "expand", "2^9999*x", "--json")[:2] == (
        0, json.dumps({"terms": [{"coeff": str(2 ** 9999), "even": {"x": 1}, "odd": []}]}) + "\n")


def test_powers_under_the_coefficient_budget_print(capsys):
    assert run(capsys, "expand", "x^1000000000")[:2] == (0, "x^1000000000\n")
    assert run(capsys, "expand", "2^9999")[:2] == (0, f"{2 ** 9999}\n")
    assert run(capsys, "expand", "(1+I)^1000")[:2] == (0, f"{2 ** 500}\n")
    assert run(capsys, "expand", "I^1000000")[:2] == (0, "1\n")
    assert run(capsys, "expand", "(-1)^1000001")[:2] == (0, "-1\n")


def test_box_bounds_without_an_exponent_part_work(capsys):
    assert run(capsys, "berezin", "th1*x", "--box", "0", "1/2") == (0, "1/8\n", "")
    assert run(capsys, "berezin", "th1*x", "--box", "-1.5", "2") == (0, "7/8\n", "")
    assert run(capsys, "berezin", "th1*x", "--box", "0", "1E2") == (
        2, "", "error: --box bound '1E2' is not a rational number\n")


def test_exponent_budget_bounds_every_even_power(capsys):
    assert run(capsys, "expand", "x^4294967295") == (0, "x^4294967295\n", "")
    assert run(capsys, "expand", "x^4294967295*y^4294967295*z") == (
        0, "x^4294967295*y^4294967295*z\n", "")
    err = "error: an even power exceeds the exponent budget of 4294967295\n"
    # a power, a product of atoms, a one-term power of a power, a product of
    # polynomials and a repeated square
    for expr in ("x^4294967296", "x^4294967295*x", "(x^3000000000)^2",
                 "(x^4294967295 + y)*(x + 1)", "(x^3000000000 + th1)^2"):
        assert run(capsys, "expand", expr) == (2, "", err), expr


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
    assert out.splitlines()[-1] == "reproduce with supergrass verify doomed --seed 0 --cases 100"
    # the k-list changes the streams of the k-parameterized checks, so it is replayed too
    code, out, err = run(capsys, "verify", "doomed", "--seed", "3", "--cases", "7", "--k", "2")
    assert code == 1
    assert out.splitlines()[-1] == "reproduce with supergrass verify doomed --seed 3 --cases 7 --k 2"


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


def test_shared_parser_carries_nothing_between_requests(capsys, monkeypatch):
    from supergrass import cli

    assert cli.build_parser() is cli.build_parser()
    sequence = [["verify", "kernel", "--k", "1", "--json"], ["verify", "kernel", "--json"],
                ["expand", "x", "--json"], ["expand", "x"], ["verify", "--k", "3"],
                ["table", "--alg", "H"]]
    shared = [run(capsys, *argv) for argv in sequence]
    assert shared[4][0] == 2 and "invalid choice" in shared[4][2]
    for argv, got in zip(sequence, shared):
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert run(capsys, *argv) == got
        monkeypatch.undo()


@pytest.mark.parametrize("expr, out", [
    # one even term with a Gaussian coefficient: QI powers, no odd factor
    ("(I*x)^2", "-x^2"),
    ("(I*x)^2 + (2*I*y)^3", "-x^2 - 8*I*y^3"),
    # a Clifford generator and an odd generator keep the product loop
    ("eps^2", "-1"),
    ("th1^2", "0"),
])
def test_one_term_powers_print_as_before(capsys, expr, out):
    assert run(capsys, "expand", expr) == (0, out + "\n", "")


@pytest.mark.parametrize("expr, out, code", [
    # a literal power is no atom: the budget fires before any product
    ("3*2^9999999", "", 2),
    ("x*th1^1000000000", "0\n", 0),
    ("x*eps^1000000001", "x*eps\n", 0),
    ("x*I^1000000002", "-x\n", 0),
    ("y*x^1000000000", "x^1000000000*y\n", 0),
])
def test_huge_powers_in_a_product_keep_their_bounds(capsys, expr, out, code):
    start = time.process_time()
    got = run(capsys, "expand", expr)
    assert time.process_time() - start < 1
    err = ("error: a power 9999999 of 2-bit coefficients exceeds the coefficient budget "
           "of 65536 bits\n" if code else "")
    assert got == (code, out, err)


@pytest.mark.parametrize("n", [70, 130])
def test_reversed_product_wider_than_a_machine_word(capsys, n):
    """th_n*...*th1 over a table of n odd symbols, wider than 64 bits: the
    printed monomial lists the names sorted as strings, with the sign of that
    reordering (2083 crossings for n = 70)."""
    names = [f"th{i}" for i in range(n, 0, -1)]
    code, out, err = run(capsys, "expand", "*".join(names))
    crossings = sum(a > b for i, a in enumerate(names) for b in names[i + 1:])
    assert (code, err) == (0, "")
    assert out == ("-" if crossings & 1 else "") + "*".join(sorted(names)) + "\n"
    if n == 70:
        assert crossings == 2083 and out.startswith("-th1*th10*")
