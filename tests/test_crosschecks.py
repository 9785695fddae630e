"""Dual-route consistency checks: the same structure computed through two
independent code paths must coincide exactly."""

from fractions import Fraction

import pytest

from supergrass.divalg import O, DivisionAlgebra
from supergrass.kernel import SymbolTable, super_bracket
from supergrass.minkowski import (InvariantFields, MinkContext, anticomm, q_unit,
                                  translation_block)


def field_bracket_constants(inv, tau, a, alpha, b, beta):
    """Structure constants of [tau^alpha_a, tau^beta_b] read off the images
    of the coordinate symbols; tau maps (a, alpha) to its field."""
    br = super_bracket(tau[a, alpha], tau[b, beta])
    sym = inv.table.sym
    for name in inv.thname.values():
        assert br(sym(name)).is_zero(), "bracket is not a translation"
    c_v = {ab: br(sym(name)).constant_term() for ab, name in inv.vname.items()}
    c_w = {g: br(sym(name)).constant_term() for g, name in inv.wname.items()}
    return c_v, c_w


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_matrix_vs_vector_field_structure_constants(k):
    """[Q^a_alpha, Q^b_beta] as 5x5 Clifford matrices against
    [tau^alpha_a, tau^beta_b] as graded vector-field brackets: the
    coefficients must be negatives of each other."""
    ctx = MinkContext(k)
    inv = InvariantFields(k)
    tau = dict(zip(inv.thname, inv.fields(1)))
    qs = {(a, al): q_unit(ctx, a, al) for a in (1, 2) for al in range(1, k + 1)}
    zero = ctx.table.zero()
    for a in (1, 2):
        for b in (1, 2):
            for al in range(1, k + 1):
                for be in range(1, k + 1):
                    h11, h22, z = translation_block(anticomm(qs[(a, al)], qs[(b, be)]))
                    mv = {(1, 1): h11, (2, 2): h22, (1, 2): z.coeffs[0].scale(2)}
                    mw = {g: z.coeffs[g - 1].scale(2) for g in range(2, k + 1)}
                    fv, fw = field_bracket_constants(inv, tau, a, al, b, be)
                    for key, val in fv.items():
                        assert mv.get(key, zero) == ctx.table.scalar(-val)
                    for g in range(2, k + 1):
                        assert mw.get(g, zero) == ctx.table.scalar(-fw.get(g, Fraction(0)))


def _flipped_octonions():
    """A fresh octonion algebra whose line (2,3,4) is reversed to (2,4,3):
    u_x u_y = u_z and u_y u_x = -u_z on each cyclic turn, written into the
    0-based rows."""
    bad = DivisionAlgebra("O")
    for (x, y, z) in ((2, 4, 3), (4, 3, 2), (3, 2, 4)):
        bad.rows[x - 1][y - 1] = (z - 1, False)
        bad.rows[y - 1][x - 1] = (z - 1, True)
    return bad


def test_flipped_octonion_line_breaks_norm():
    """Negative control: reversing the orientation of one triple destroys
    norm multiplicativity, so the convention checks are not vacuous."""
    bad = _flipped_octonions()
    # the reversed line reaches the rational and the polynomial-slot
    # product, and the singleton O keeps its own rows
    t = SymbolTable()
    t.clifford_symbol("eps", 1)
    eps = t.sym("eps")
    assert bad.unit(2) * bad.unit(3) == -bad.unit(4) and O.unit(2) * O.unit(3) == O.unit(4)
    assert bad.unit(2, eps) * bad.unit(3, eps) == bad.unit(4, t.one())
    u = bad.element([0, 1, 0, 0, 1, 0, 0, 0])   # u2 + u5
    v = bad.element([0, 0, 0, 1, 0, 0, 1, 0])   # u4 + u7
    lhs = (u * v) * (u * v).conj()
    assert lhs.coeffs[0] == 8
    assert u.norm_sq() * v.norm_sq() == 4
    assert lhs.coeffs[0] != u.norm_sq() * v.norm_sq()


def test_flipped_line_breaks_alternativity():
    bad = _flipped_octonions()
    found = False
    for a in range(2, 9):
        for b in range(2, 9):
            u = bad.element([0] + [1 if i + 2 == a else 0 for i in range(7)])
            w = bad.element([0] + [1 if i + 2 == b else 0 for i in range(7)])
            uv = u + w
            x = bad.unit(5)
            if (uv * uv) * x != uv * (uv * x):
                found = True
    assert found
