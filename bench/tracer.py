"""Outside-in tracer: wraps public supergrass functions and methods in a
running process and measures them at the layer boundary.

Spans nest on one stack (the benchmark is single-threaded).  Span names in
``FULL`` (checks, suites, CLI requests) are kept whole; every other name is
a hot leaf, aggregated per (name, parent name) in memory.  A span's self
time is its duration minus the durations of its child spans; the time a
count hook spends is charged to no span.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

FULL = ("cli", "suites.suite", "suites.check")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self._names = ["<root>"]
        self._child = [0.0]
        self._ids = [0]
        self._next_id = 1
        self.agg = {}       # (name, parent) -> [calls, total_s, self_s]
        self.spans = []     # full spans: dicts with id, parent, name, attr, start, end, self_s
        self.counts = {}    # "<name>.<counter>" -> number

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def wrap(self, name, fn, hook=None, attr=None):
        """Return fn wrapped in a span called name.

        hook(tracer, args, result) records counts after the call; attr(args)
        labels a full span (a check id, a subcommand).
        """
        tr = self
        full = name in FULL

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            names, child, clock = tr._names, tr._child, tr.clock
            parent = names[-1]
            names.append(name)
            child.append(0.0)
            if full:
                span_id = tr._next_id
                tr._next_id += 1
                parent_id = tr._ids[-1]
                tr._ids.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                names.pop()
                self_s = dt - child.pop()
                child[-1] += dt
                rec = tr.agg.get((name, parent))
                if rec is None:
                    rec = tr.agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += self_s
                if full:
                    tr._ids.pop()
                    tr.spans.append({"id": span_id, "parent": parent_id, "name": name,
                                     "attr": attr(args) if attr else None,
                                     "start": t0, "end": t1, "self_s": self_s})
            if hook is not None:
                h0 = clock()
                hook(tr, args, result)
                child[-1] += clock() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading --------------------------------------------------------------
    def calls(self, name):
        return sum(r[0] for (n, _), r in self.agg.items() if n == name)

    def self_s(self, name):
        return sum(r[2] for (n, _), r in self.agg.items() if n == name)

    def total_s(self, name):
        return sum(r[1] for (n, _), r in self.agg.items() if n == name)


# ---------------------------------------------------------------------------
# count hooks
# ---------------------------------------------------------------------------

def _integral(c):
    if isinstance(c, (int, Fraction)):
        return c.denominator == 1
    re, im = getattr(c, "re", None), getattr(c, "im", None)
    return isinstance(re, Fraction) and isinstance(im, Fraction) and \
        re.denominator == 1 and im.denominator == 1


def _mul_hook(tr, args, result):
    a, b = args[0], args[1]
    terms_b = getattr(b, "terms", None)
    if terms_b is None:  # scalar operand: the work is counted by kernel.scale
        return
    n_out = len(result.terms)
    tr.count("kernel.mul.term_pairs", len(a.terms) * len(terms_b))
    tr.count("kernel.mul.terms_out", n_out)
    tr.peak("kernel.mul.max_terms", n_out)
    tr.count("kernel.mul.integral_coeffs", sum(1 for c in result.terms.values() if _integral(c)))


def _add_hook(tr, args, result):
    tr.count("kernel.add.terms_copied", len(args[0].terms))


def _bracket_hook(tr, args, result):
    tr.count("kernel.super_bracket.generators", len(args[0].table.symbols))
    tr.count("kernel.super_bracket.nonzero", len(result.images))


def _parse_hook(tr, args, result):
    tr.count("expr_io.parse.chars", len(args[0]))


# (layer name, module, qualified attribute, count hook)
TARGETS = [
    *[("scalars.qi_ops", "scalars", f"QI.{m}", None) for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__")],
    ("scalars.format_scalar", "scalars", "format_scalar", None),
    ("scalars.parse_scalar", "scalars", "parse_scalar", None),
    ("kernel.mul", "kernel", "SuperPolynomial.__mul__", _mul_hook),
    ("kernel.add", "kernel", "SuperPolynomial.__add__", _add_hook),
    ("kernel.add", "kernel", "SuperPolynomial.__radd__", _add_hook),
    ("kernel.scale", "kernel", "SuperPolynomial.scale", None),
    ("kernel.derivation_call", "kernel", "Derivation.__call__", None),
    ("kernel.substitute", "kernel", "SuperPolynomial.substitute", None),
    ("kernel.super_bracket", "kernel", "super_bracket", _bracket_hook),
    ("divalg.mul", "divalg", "DAElement.__mul__", None),
    ("divalg.norm_sq", "divalg", "DAElement.norm_sq", None),
    ("minkowski.mat5_matmul", "minkowski", "Mat5.__matmul__", None),
    ("minkowski.kmat2_matmul", "minkowski", "KMat2.__matmul__", None),
    ("minkowski.lie_closure", "minkowski", "lie_closure", None),
    ("minkowski.invariant_fields", "minkowski", "InvariantFields.relations_ok", None),
    ("minkowski.reduction_charges", "minkowski", "reduction_charges", None),
    ("minkowski.qqter_check_all", "minkowski", "qqter_check_all", None),
    ("superspace.berezin", "superspace", "berezin", None),
    ("superspace.hinf_extend", "superspace", "hinf_extend", None),
    ("morphisms.pullback_even", "morphisms", "FleshMorphism.pullback_even", None),
    ("morphisms.exp_Xi", "morphisms", "FleshMorphism.exp_Xi", None),
    ("models.euler_operator", "models", "FieldSystem.euler_operator", None),
    ("expr_io.parse", "expr_io", "parse", _parse_hook),
    ("expr_io.evaluate", "expr_io", "Context.evaluate", None),
    ("expr_io.format_poly", "expr_io", "format_poly", None),
    *[("expr_io.json", "expr_io", f, None) for f in (
        "poly_to_jsonable", "poly_to_json", "poly_from_jsonable", "poly_from_json")],
    ("suites.suite", "suites", "run_suite", None),
    ("cli", "cli", "main", None),
]


def _request_attr(args):
    argv = args[0] if args else None
    return argv[0] if argv else None


def _rebind_everywhere(original, wrapped):
    """Replace every module-level copy of a function in the loaded supergrass
    modules, so `from .kernel import super_bracket` copies are traced too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "supergrass" or mod_name.startswith("supergrass.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer):
    """Wrap every target in the imported supergrass package, and every check.

    A target the program no longer has is skipped, and its metrics read 0:
    a refactor must not break the benchmark it is measured with.
    """
    import importlib

    for name, mod_name, qual, hook in TARGETS:
        try:
            mod = importlib.import_module(f"supergrass.{mod_name}")
            owner_name, _, attr_name = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = vars(owner)[attr_name]
        except (ImportError, AttributeError, KeyError):
            continue
        if owner_name:
            setattr(owner, attr_name, tracer.wrap(name, original, hook))
        else:
            attr = _request_attr if name == "cli" else (lambda a: a[0]) if name == "suites.suite" else None
            _rebind_everywhere(original, tracer.wrap(name, original, hook, attr))
    # each check of the registry becomes a full 'suites.check' span
    for entries in importlib.import_module("supergrass.suites").SUITES.values():
        for i, (check_id, law, fn) in enumerate(entries):
            entries[i] = (check_id, law, tracer.wrap("suites.check", fn, attr=lambda a, c=check_id: c))
