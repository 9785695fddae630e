"""Seeded inputs and answer checks for the three workloads.

Nothing here imports supergrass: inputs are plain data (term lists, DSL
text, argv lists, morphism JSON) and every check compares the program's
output with an answer computed by ``reference``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import reference as ref

VERIFY_CASES = 100
KERNEL_OPS = 240
# cheap kinds once, dear kinds twice: the median and the 90th percentile then
# fall inside the leibniz and bracket latency clusters, not between clusters
KERNEL_KINDS = ("product", "assoc", "leibniz", "leibniz", "bracket", "bracket")
KERNEL_IMAGES = 6

KERNEL_EVENS = ("x", "y")
KERNEL_ODDS = tuple(f"th{i}" for i in range(1, 9))
CLIFFORD = "eps"


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def verify_argv(seed):
    return ["verify", "all", "--seed", str(seed), "--cases", str(VERIFY_CASES), "--json"]


# ---------------------------------------------------------------------------
# random terms as plain data: (coeff (re, im), [(even, power)], [odd names])
# ---------------------------------------------------------------------------

def rand_coeff(rng, p_imag=0.2, span=9):
    re = Fraction(rng.randint(-span, span) or 1, rng.randint(1, 4))
    im = Fraction(rng.randint(-span, span) or 1, rng.randint(1, 3)) if rng.random() < p_imag else Fraction(0)
    return (re, im)


def rand_term(rng, evens, odds, p_odd=0.35, p_eps=0.0, max_pow=2, odd_parity=None):
    ev = [(n, rng.randint(1, max_pow)) for n in evens if rng.random() < 0.5]
    od = [n for n in odds if rng.random() < p_odd]
    if p_eps and rng.random() < p_eps:
        od.append(CLIFFORD)
    if odd_parity is not None and len(od) % 2 != odd_parity:
        pool = [n for n in odds if n not in od]
        if od and (not pool or rng.random() < 0.5):
            od.pop(rng.randrange(len(od)))
        else:
            od.append(rng.choice(pool))
    rng.shuffle(od)
    return (rand_coeff(rng), ev, od)


def terms_value(terms):
    out = {}
    for c, ev, od in terms:
        out = ref.add(out, ref.monomial(c, ev, od))
    return out


def _coeff_text(c):
    re, im = c
    if not im:
        return str(re)
    if not re:
        return f"{im}*I"
    return f"({re} + {im}*I)" if im > 0 else f"({re} - {-im}*I)"


def terms_text(terms):
    """DSL text for a term list, factors in the given (unsorted) order.  The
    text never starts with '-', so argparse reads it as an argument."""
    chunks = []
    for c, ev, od in terms:
        factors = [n if p == 1 else f"{n}^{p}" for n, p in ev] + list(od)
        cs = _coeff_text(c)
        if cs.startswith("-") and "I" not in cs:
            sign, cs = "-", cs[1:]
        else:
            sign = "+"
        if cs.startswith("-"):
            cs = f"({cs})"
        body = "*".join([cs] + factors) if cs != "1" or not factors else "*".join(factors)
        chunks.append((sign, body))
    if not chunks:
        return "0"
    first_sign, first = chunks[0]
    out = first if first_sign == "+" else f"(-{first})"
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# kernel_algebra: law instances over one table with 8 odd generators and eps
# ---------------------------------------------------------------------------

def kernel_ops(seed, n_ops=KERNEL_OPS):
    """Plain-data op specs.  Derivation images avoid eps: a map that sends a
    generator into the Clifford part is not a derivation of the Clifford
    algebra, and the bracket law really fails for it."""
    rng = rng_for("kernel_algebra", seed)
    allsyms = KERNEL_EVENS + KERNEL_ODDS

    def poly(n=8, parity=None):
        return [rand_term(rng, KERNEL_EVENS, KERNEL_ODDS, p_eps=0.3, odd_parity=parity) for _ in range(n)]

    def derivation(parity):
        images = {}
        for name in sorted(rng.sample(allsyms, KERNEL_IMAGES)):
            target = (parity + (name in KERNEL_ODDS)) % 2
            images[name] = [rand_term(rng, KERNEL_EVENS, KERNEL_ODDS, odd_parity=target)
                            for _ in range(2)]
        return {"parity": parity, "images": images}

    ops = []
    for i in range(n_ops):
        kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
        j = i // len(KERNEL_KINDS)  # parities cycle, so every seed gets the same mix
        if kind == "assoc":
            ops.append({"kind": kind, "a": poly(), "b": poly(), "c": poly()})
        elif kind == "bracket":
            ops.append({"kind": kind, "X": derivation(j & 1), "Y": derivation((j >> 1) & 1), "f": poly()})
        elif kind == "leibniz":
            ops.append({"kind": kind, "X": derivation(j & 1), "f": poly(parity=(j >> 1) & 1), "g": poly()})
        else:
            ops.append({"kind": kind, "a": poly(), "b": poly()})
    return ops


def check_product(op, result_json):
    """The program's a*b against the naive product of the same term lists."""
    expected = ref.mul(terms_value(op["a"]), terms_value(op["b"]))
    return ref.from_json(result_json) == expected


# ---------------------------------------------------------------------------
# cli_session: one closed-loop client sending requests through cli.main(argv)
# ---------------------------------------------------------------------------

SESSION_EVENS = ("x", "y", "z")
SESSION_ODDS = tuple(f"th{i}" for i in range(1, 13)) + ("et1", "et2")
BOXES = (("0", "1"), ("1/2", "2"), ("1", "3/2"), ("0", "2"))
PULL_EVENS, PULL_THETAS, PULL_ETAS, PULL_TARGETS = ("x1", "x2"), ("th1", "th2"), ("et1", "et2"), ("y1", "y2")
# Pullback cost grows fast with the degrees involved, so the morphisms and
# polynomials have fixed monomial shapes and the seed draws the coefficients
# and a third xi key.  (1,2) and (3,4) are always there, so Xi^2 is nonzero;
# every third key shares an index with both, so Xi^3 always vanishes.
XI_KEYS = ((1, 3), (1, 4), (2, 3), (2, 4))
PHI_SHAPES = {"y1": (("x1",), ("x2", "x2"), ()), "y2": (("x2",), ())}
XI_SHAPES = (("x1",), ("y2",))
F_SHAPES = (("y1",), ("y2", "y2"), ("y1", "y2"))
G_SHAPES = (("y2",), ("y1", "y1"), ())
FIXED = (
    ["bracket", "D", "D"], ["bracket", "tau", "tau"], ["bracket", "D", "tau"],
    ["closure", "--k", "1"], ["closure", "--k", "2"], ["closure", "--k", "4"],
    ["table", "--alg", "O", "--json"], ["brackets", "--k", "4"], ["brackets", "--k", "8"],
)
BRACKET_VALUES = {("D", "D"): "-2*d_t", ("tau", "tau"): "2*d_t", ("D", "tau"): "0"}


def _shaped_poly_text(rng, shapes):
    """A rational polynomial with one term per shape (a tuple of even names)."""
    return terms_text([(rand_coeff(rng, p_imag=0.0, span=5), [(n, 1) for n in shape], []) for shape in shapes])


def _spread(lo, hi, n):
    """n sizes evenly spaced over [lo, hi]: the seed picks contents and order,
    not how much work a session holds."""
    return [lo + round(i * (hi - lo) / (n - 1)) for i in range(n)]


def session_requests(seed):
    """120 requests, the pullback triples kept in order."""
    rng = rng_for("cli_session", seed)
    groups = []
    for size in _spread(20, 200, 60):  # canonical round trips
        terms = [rand_term(rng, SESSION_EVENS, SESSION_ODDS, p_odd=0.15, p_eps=0.1, max_pow=3)
                 for _ in range(size)]
        text = terms_text(terms)
        js = rng.random() < 0.35
        groups.append([{"kind": "expand", "argv": ["expand", text] + (["--json"] if js else []),
                        "expr": text, "json": js}])
    for na, nb in zip(_spread(5, 25, 20), _spread(25, 5, 20)):  # products of two polynomials
        pa, pb = ([rand_term(rng, SESSION_EVENS, SESSION_ODDS, p_odd=0.2, p_eps=0.25, max_pow=2)
                   for _ in range(n)] for n in (na, nb))
        text = f"({terms_text(pa)})*({terms_text(pb)})"
        js = rng.random() < 0.35
        groups.append([{"kind": "expand", "argv": ["expand", text] + (["--json"] if js else []),
                        "expr": text, "json": js}])
    for i, size in enumerate(_spread(6, 30, 12)):  # Berezin integral over the th and a box
        thetas = tuple(f"th{t}" for t in range(1, 2 + i % 3 + 1))
        terms = [rand_term(rng, ("x", "y"), thetas + ("et1",), p_odd=0.5, max_pow=3) for _ in range(size)]
        for _ in range(3):  # make sure the top monomial occurs
            c, ev, _ = rand_term(rng, ("x", "y"), (), max_pow=3)
            od = list(thetas) + (["et1"] if rng.random() < 0.3 else [])
            rng.shuffle(od)
            terms.append((c, ev, od))
        rng.shuffle(terms)
        text = terms_text(terms)
        lo, hi = rng.choice(BOXES)
        js = rng.random() < 0.65
        groups.append([{"kind": "berezin", "argv": ["berezin", text, "--box", lo, hi] + (["--json"] if js else []),
                        "expr": text, "box": (lo, hi), "json": js}])
    for _ in range(6):  # pullback triples: f, g, f*g through one morphism
        morph = {
            "even": list(PULL_EVENS), "theta": list(PULL_THETAS), "eta": list(PULL_ETAS),
            "target": list(PULL_TARGETS),
            "phi": {y: _shaped_poly_text(rng, PHI_SHAPES[y]) for y in PULL_TARGETS},
            "xi": {",".join(map(str, key)): {y: _shaped_poly_text(rng, XI_SHAPES) for y in PULL_TARGETS}
                   for key in ((1, 2), (3, 4), rng.choice(XI_KEYS))},
        }
        stdin = json.dumps(morph, sort_keys=True)
        f = _shaped_poly_text(rng, F_SHAPES)
        g = _shaped_poly_text(rng, G_SHAPES)
        triple = []
        for role, text in (("f", f), ("g", g), ("fg", f"({f})*({g})")):
            triple.append({"kind": "pullback", "argv": ["pullback", "-", text, "--json"], "stdin": stdin,
                           "role": role, "expr": text, "phi": morph["phi"]})
        groups.append(triple)
    for argv in FIXED:
        groups.append([{"kind": argv[0], "argv": list(argv)}])
    h = _shaped_poly_text(rng, (("u",) * 4, ("u",) * 2, ()))
    groups.append([{"kind": "model", "argv": ["model", "sigma32", f"--h={h}", "--json"]}])
    rng.shuffle(groups)
    return [req for group in groups for req in group]


def _substitute(text, images):
    """Replace whole-name tokens by parenthesized text."""
    out = []
    for kind, v in ref.tokenize(text):
        out.append(f"({images[v]})" if kind == "name" and v in images else v)
    return " ".join(out)


def _read_poly(req, out):
    return ref.from_json(json.loads(out)) if req.get("json") else ref.evaluate(out)


def check_request(req, code, out, outs):
    """True when one request's answer is right.  outs holds the (code, out)
    of the requests before it in the session, for the pullback product."""
    if code != 0:
        return False
    kind = req["kind"]
    if kind == "expand":
        return _read_poly(req, out) == ref.evaluate(req["expr"])
    if kind == "berezin":
        names = ref.names_in(req["expr"])
        thetas = sorted(n for n in names if n.startswith("th"))
        evens = sorted(n for n in names if not ref.is_odd_name(n))
        lo, hi = (Fraction(v) for v in req["box"])
        expected = ref.box_integral(ref.berezin_top(ref.evaluate(req["expr"]), thetas), evens, lo, hi)
        return _read_poly(req, out) == expected
    if kind == "pullback":
        val = ref.from_json(json.loads(out))
        if any(d % 2 for d in ref.odd_degrees(val)):
            return False
        body = {k: c for k, c in val.items() if not k[1]}
        if body != ref.evaluate(_substitute(req["expr"], req["phi"])):
            return False
        if req["role"] != "fg":
            return True
        pf, pg = (ref.from_json(json.loads(o)) for _, o in outs[-2:])
        return ref.mul(pf, pg) == val
    if kind == "bracket":
        return ref.derivation_value(out) == ref.evaluate(BRACKET_VALUES[tuple(req["argv"][1:])])
    if kind == "closure":
        return int(out.split()[0]) == ref.CLOSURE_DIMS[int(req["argv"][2])]
    if kind == "table":
        rows = json.loads(out)["products"]
        got = {(r["a"], r["b"]): (r["result"], r["sign"]) for r in rows}
        return got == ref.octonion_table()
    if kind == "brackets":
        data = json.loads(out)
        got = [((e["a"], e["b"], e["alpha"], e["beta"]), {t: Fraction(v) for t, v in e["terms"].items()})
               for e in data["brackets"]]
        return sorted(got) == sorted(ref.odd_brackets(data["k"]))
    if kind == "model":
        data = json.loads(out)
        flags = [v for v in data.values() if isinstance(v, bool)]
        return bool(flags) and all(flags) and bool(data.get("euler"))
    raise ValueError(f"unknown request kind {kind!r}")
