"""Batch entry point: verification suites and ad-hoc exact computations.

Subcommands: verify, expand, berezin, bracket, pullback, closure, brackets,
table, model.  Exit codes: 0 success, 1 check failure, 2 usage error.
Reports are deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import factorial

from . import divalg, minkowski, models, suites
from .expr_io import (Context, DslSyntaxError, UnknownSymbolError, format_derivation, format_poly,
                      parse, poly_to_jsonable)
from .kernel import MAX_DEGREE, SizeLimitError, SymbolTable, super_bracket
from .morphisms import FleshMorphism
from .scalars import QI, ratio
from .superspace import SuperDomain, berezin, supertime


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if not hasattr(args, "func"):
        parser.print_usage()
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (DslSyntaxError, UnknownSymbolError) as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# One parser per process: parse_args builds a fresh Namespace on each call and
# never writes to the parser, so no request sees another's state.
@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="supergrass",
                                description="exact supercommutative/Clifford algebra toolkit")
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suite", nargs="?", default="all",
                   help="suite name or 'all' (%s)" % ", ".join(sorted(suites.SUITES)))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cases", type=int, default=100)
    v.add_argument("--json", action="store_true")
    v.add_argument("--k", type=int, choices=suites.ALL_K, default=None,
                   help="restrict minkowski-flavored checks to one algebra")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="evaluate a DSL expression")
    e.add_argument("expr")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_expand)

    b = sub.add_parser("berezin", help="Berezin-integrate a DSL expression over its th coordinates")
    b.add_argument("expr")
    b.add_argument("--box", nargs=2, metavar=("LO", "HI"), default=None,
                   help="also integrate every even coordinate over [LO, HI]")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_berezin)

    br = sub.add_parser("bracket", help="super bracket of two named supertime operators")
    br.add_argument("left", choices=("D", "tau", "dt"))
    br.add_argument("right", choices=("D", "tau", "dt"))
    br.set_defaults(func=cmd_bracket)

    pb = sub.add_parser("pullback", help="pull a target polynomial back through a morphism")
    pb.add_argument("morphism", help="path to a JSON morphism description, or '-' for stdin")
    pb.add_argument("expr", help="polynomial in the target even coordinates")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_pullback)

    c = sub.add_parser("closure", help="bracket-closure dimension of the half-spinor action")
    c.add_argument("--k", type=int, choices=(1, 2, 4, 8), required=True)
    c.add_argument("--basis", action="store_true",
                   help="also print a basis (sparse integer matrices, doubled)")
    c.set_defaults(func=cmd_closure)

    bk = sub.add_parser("brackets", help="odd-odd structure constants as JSON")
    bk.add_argument("--k", type=int, choices=(1, 2, 4, 8), required=True)
    bk.set_defaults(func=cmd_brackets)

    t = sub.add_parser("table", help="division-algebra multiplication table")
    t.add_argument("--alg", choices=("R", "C", "H", "O"), required=True)
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_table)

    m = sub.add_parser("model", help="worked supersymmetric models")
    m.add_argument("which", choices=("superparticle", "sigma32"))
    m.add_argument("--h", default=None,
                   help="superpotential as a DSL polynomial in u, e.g. 'u^3 - 2*u'")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_model)

    return p


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in suites.SUITES]
    if unknown:
        print(f"unknown suite: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.cases < 1:
        print("--cases must be at least 1", file=sys.stderr)
        return 2
    ks = suites.ALL_K if args.k is None else (args.k,)
    reports = suites.run_many(names, seed=args.seed, cases=args.cases, ks=ks)
    if args.json:
        print(suites.reports_to_json(reports))
    else:
        for rep in reports:
            for r in sorted(rep.results, key=lambda r: r.check_id):
                mark = "PASS" if r.passed else "FAIL"
                line = f"[{mark}] {r.check_id}: {r.law}"
                if not r.passed and r.counterexample:
                    line += f"  <- {r.counterexample}"
                print(line)
            print(f"suite {rep.suite}: {'ok' if rep.passed else 'FAILED'} "
                  f"({rep.wall_ms:.0f} ms)")
    if not all(r.passed for r in reports):
        if not args.json:
            k = "" if args.k is None else f" --k {args.k}"
            print(f"reproduce with supergrass verify {args.suite} --seed {args.seed} "
                  f"--cases {args.cases}{k}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# expression helpers
# ---------------------------------------------------------------------------

def _auto_domain(names):
    """Symbol table from the names read in an expression: th* are odd
    coordinates, et* odd parameters, eps the Clifford generator, the rest even."""
    evens = sorted(n for n in names if not (n.startswith("th") or n.startswith("et") or n == "eps"))
    thetas = sorted(n for n in names if n.startswith("th"))
    etas = sorted(n for n in names if n.startswith("et"))
    dom = SuperDomain(even=evens, theta=thetas, eta=etas)
    if "eps" in names:
        dom.table.clifford_symbol("eps", 1)
    return dom


def cmd_expand(args) -> int:
    names = set()
    ast = parse(args.expr, names)
    dom = _auto_domain(names)
    val = Context(dom.table, berezin_names=dom.theta_names).evaluate(ast)
    if args.json:
        print(json.dumps(poly_to_jsonable(val), sort_keys=True))
    else:
        print(format_poly(val))
    return 0


def cmd_berezin(args) -> int:
    names = set()
    ast = parse(args.expr, names)
    dom = _auto_domain(names)
    if not dom.theta_names:
        print("expression has no odd th coordinates", file=sys.stderr)
        return 2
    val = Context(dom.table, berezin_names=dom.theta_names).evaluate(ast)
    out = berezin(dom, val)
    if args.box is not None:
        lo, hi = (_box_bound(x) for x in args.box)
        for name in dom.even_names:
            out = out.integrate_even(name, lo, hi)
    if args.json:
        print(json.dumps(poly_to_jsonable(out), sort_keys=True))
    else:
        print(format_poly(out))
    return 0


def _box_bound(text) -> Fraction:
    try:
        if "e" in text.lower():  # an exponent part: 1e10000000 would build a 10^7-digit int
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--box bound {text!r} is not a rational number") from None


def cmd_bracket(args) -> int:
    dom, ops = supertime()
    val = super_bracket(ops[args.left], ops[args.right])
    print(format_derivation(val))
    return 0


def cmd_pullback(args) -> int:
    if args.morphism == "-":
        desc = json.load(sys.stdin)
    else:
        with open(args.morphism) as fh:
            desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError("morphism description must be a JSON object")
    evens, thetas, etas = (_names(desc.get(f, []), f) for f in ("even", "theta", "eta"))
    targets = _names(desc["target"], "target")
    phi = _texts(desc.get("phi", {}), "phi")
    xi_desc = desc.get("xi", {})
    if not isinstance(xi_desc, dict):
        raise ValueError("morphism field 'xi' must be an object")
    proto = SymbolTable()
    for n in evens + targets:
        proto.even_symbol(n)
    ctx = Context(proto)

    def ev(text):
        return ctx.evaluate(parse(text))

    phi = {n: ev(phi[n]) for n in targets}
    xi = {}
    for key, comps in xi_desc.items():
        I = tuple(int(s) for s in key.split(","))
        xi[I] = {n: ev(c) for n, c in _texts(comps, f"xi[{key}]").items()}
    m = FleshMorphism(evens, thetas + etas, targets, phi, xi, n_theta=len(thetas))
    val = m.pullback_even(ctx.evaluate(parse(args.expr)))
    if args.json:
        print(json.dumps(poly_to_jsonable(val), sort_keys=True))
    else:
        print(format_poly(val))
    return 0


def _names(val, field):
    """A morphism field that must be a list of symbol names."""
    if not (isinstance(val, list) and all(isinstance(n, str) for n in val)):
        raise ValueError(f"morphism field {field!r} must be a list of strings")
    return tuple(val)


def _texts(val, field):
    """A morphism field that must map names to DSL expressions."""
    if not (isinstance(val, dict) and all(isinstance(t, str) for t in val.values())):
        raise ValueError(f"morphism field {field!r} must be an object with string values")
    return val


def cmd_closure(args) -> int:
    dim, basis = minkowski.lie_closure(args.k)
    print(dim)
    if args.basis:
        for i, m in enumerate(basis):
            cells = {f"({r},{c})": v for r, row in enumerate(m.rows) for c, v in row.items()}
            print(f"b{i}: " + " ".join(f"{k}={v}" for k, v in sorted(cells.items())))
    return 0


def cmd_brackets(args) -> int:
    k = args.k
    gammas = divalg.gamma_constants(minkowski.ALG_BY_K[k])
    out = []
    for a in (1, 2):
        for b in (1, 2):
            for al in range(1, k + 1):
                for be in range(1, k + 1):
                    terms = minkowski.bracket_terms(k, gammas, a, b, al, be)
                    out.append({"a": a, "b": b, "alpha": al, "beta": be, "terms": {
                        f"R({min(a,b)}{max(a,b)})" if key == "R" else f"Im{key}": str(-2 * c)
                        for key, c in terms.items()}})
    print(json.dumps({"k": k, "brackets": out}, sort_keys=True))
    return 0


def cmd_table(args) -> int:
    alg = divalg.algebra(args.alg)
    rows = divalg.multiplication_rows(alg)
    if args.json:
        print(json.dumps({
            "algebra": args.alg,
            "dim": alg.dim,
            "products": [{"a": a, "b": b, "result": g, "sign": s} for a, b, g, s in rows],
        }, sort_keys=True))
        return 0
    k = alg.dim
    width = 5
    header = "    " + "".join(f"u{b}".rjust(width) for b in range(1, k + 1))
    print(header)
    for a in range(1, k + 1):
        cells = []
        for b in range(1, k + 1):
            g, s = alg.table[(a, b)]
            cells.append(("-" if s < 0 else "") + f"u{g}")
        print(f"u{a}".ljust(4) + "".join(c.rjust(width) for c in cells))
    return 0


def cmd_model(args) -> int:
    if args.which == "superparticle":
        sp = models.Superparticle(n=1, modulated=True)
        data = {
            "lagrangian": format_poly(sp.lagrangian),
            "density_ok": sp.density_components_ok(),
            "plain_variation_ok": sp.plain_variation_ok(),
            "modulated_ok": sp.modulated_variation_ok(),
            "susy_algebra_ok": sp.susy_algebra_ok(),
            "noether_conserved": sp.noether_charge_conserved_on_shell(),
        }
    else:
        sig = models.Sigma32(h=_parse_h(args.h) if args.h is not None else None)
        data = {
            "lagrangian": format_poly(sig.lagrangian),
            "euler": {f: format_poly(e) for f, e in sig.euler_equations.items()},
            "expansions_ok": sig.dphi_expansions_ok(),
            "kinetic_ok": sig.kinetic_component_ok(),
            "superpotential_ok": sig.superpotential_pullback_ok(),
            "action_ok": sig.component_action_ok(),
            "square_ok": sig.completed_square_ok(),
            "euler_ok": sig.euler_system_ok(),
        }
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for key, val in data.items():
            if isinstance(val, dict):
                print(f"{key}:")
                for f, e in val.items():
                    print(f"  {f}: {e}")
            else:
                print(f"{key}: {val}")
    return 0 if all(v for v in data.values() if isinstance(v, bool)) else 1


def _parse_h(text) -> models.Superpotential:
    """Rational coefficients of h(u), low degree first, read off as the
    Taylor coefficients h^(i)(0) / i!."""
    t = SymbolTable()
    t.even_symbol("u")
    val = Context(t).evaluate(parse(text))
    degree = val.max_even_degree()
    if degree > MAX_DEGREE:
        raise SizeLimitError(f"--h {text!r}: degree {degree} exceeds the degree budget {MAX_DEGREE}")
    coeffs = []
    for i in range(degree + 1):
        c = val.eval_even({"u": 0}).scalar_part()  # an int, a Fraction or a non-real QI
        if type(c) is QI:
            raise ValueError(f"--h {text!r}: coefficients must be rational")
        coeffs.append(ratio(c.numerator, c.denominator * factorial(i)))
        val = val.diff_even("u")
    return models.Superpotential(coeffs)


if __name__ == "__main__":
    sys.exit(main())
