import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensprod.algebra import GF, QQ, TruncPoly, ZZ
from lensprod.fgl import (
    make_additive,
    make_custom,
    make_multiplicative,
    t_series,
)

from _grid import multiplicative_t_series


def test_additive_law_coefficients():
    law = make_additive()
    assert law.coeff(1, 0) == 1 and law.coeff(0, 1) == 1
    assert all(c == 0 for (i, j), c in law.coeffs if (i, j) not in ((1, 0), (0, 1)))
    assert str(t_series(law, 3, 5)) == "3*z"
    assert str(t_series(law, 1, 5)) == "z"


def test_additive_t_series_is_exactly_tz():
    law = make_additive()
    for t in [*range(1, 13), 3000]:
        poly = t_series(law, t, 6).poly
        assert poly == TruncPoly.of(ZZ, (0, t), 6)


def test_multiplicative_law_examples():
    law = make_multiplicative(1)
    assert law.coeff(1, 1) == 1
    assert str(t_series(law, 2, 4)) == "2*z + z^2"
    neg = make_multiplicative(-1)
    assert neg.coeff(1, 1) == -1


def test_multiplicative_rejects_non_unit():
    with pytest.raises(ValueError):
        make_multiplicative(2, ZZ)
    # 2 is invertible in Q and F_3
    make_multiplicative(2, QQ)
    make_multiplicative(2, GF(3))


def test_t_series_examples():
    add = make_additive()
    assert str(t_series(add, 7, 5)) == "7*z"
    mult = make_multiplicative(1)
    assert str(t_series(mult, 3, 3)) == "3*z + 3*z^2 + z^3"
    assert str(t_series(mult, 4, 2)) == "4*z + 6*z^2"


def test_t_series_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        t_series(make_additive(), 0, 4)


def test_t_series_refuses_a_bool_t():
    # True is an int, but no t; TupleSpec refuses it the same way
    with pytest.raises(ValueError, match="got True"):
        t_series(make_additive(ZZ, 3), True, 3)


def test_multiplicative_t_series_matches_closed_form():
    # oracle: [t](z) = (1+z)^t - 1, computed independently of the recursion
    for t in [*range(1, 13), 3000]:
        for prec in (1, 4, 8):
            law = make_multiplicative(1, ZZ, prec)
            assert t_series(law, t, prec).poly == multiplicative_t_series(t, prec)


def test_general_unit_closed_form():
    # [t](z) = ((1+uz)^t - 1)/u
    for u in (-1, 1, 2):
        dom = QQ
        law = make_multiplicative(u, dom, 6)
        for t in range(1, 8):
            got = t_series(law, t, 6).poly
            assert got == multiplicative_t_series(t, 6, u, dom)


def evaluate_law(law, a, b):
    """F(a, b) for series a and b of one precision, by list convolution."""
    prec = a.prec

    def times(f, g):
        return [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(prec + 1)]

    out = [0] * (prec + 1)
    for (i, j), c in law.coeffs:
        term = [1] + [0] * prec
        for factor in [a.coeffs] * i + [b.coeffs] * j:
            term = times(term, factor)
        out = [x + c * y for x, y in zip(out, term)]
    return TruncPoly.of(law.dom, out, prec)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=10**4),
    b=st.integers(min_value=1, max_value=10**4),
    law=st.sampled_from(
        [make_additive(ZZ, 6), make_multiplicative(1, ZZ, 6), make_multiplicative(-1, ZZ, 6)]
    ),
)
def test_addition_compatibility(a, b, law):
    # [a+b](z) = F([a](z), [b](z)) up to precision
    za = t_series(law, a, 6).poly
    zb = t_series(law, b, 6).poly
    assert t_series(law, a + b, 6).poly == evaluate_law(law, za, zb)


def test_custom_law_validation():
    # the multiplicative law passes as a custom law
    law = make_custom({(1, 0): 1, (0, 1): 1, (1, 1): 1}, ZZ, 6)
    assert law.kind == "custom"
    # broken unit axiom
    with pytest.raises(ValueError):
        make_custom({(1, 0): 2, (0, 1): 1}, ZZ, 6)
    # broken commutativity
    with pytest.raises(ValueError):
        make_custom({(1, 0): 1, (0, 1): 1, (2, 1): 1}, ZZ, 6)
    # symmetric but not associative
    with pytest.raises(ValueError):
        make_custom({(1, 0): 1, (0, 1): 1, (2, 2): 1}, ZZ, 6)


def test_custom_nontrivial_law_over_f3():
    # x + y + x*y + (x^2 y^2 terms) must fail; x+y+2xy over F_3 is a law
    law = make_custom({(1, 0): 1, (0, 1): 1, (1, 1): 2}, GF(3), 6)
    got = t_series(law, 3, 6).poly
    # (1+2z)^3 - 1 = 8 z^3 + 12 z^2 + 6 z = 2 z^3 mod 3, scaled by inv(2) = 2
    assert got == TruncPoly.of(GF(3), (0, 0, 0, 4), 6)


def fold_t_series(law, tmax, precision):
    """Reference: [1](z), ..., [tmax](z) by the left fold
    [k](z) = F([k-1](z), z), one law evaluation per step."""
    z = TruncPoly.of(law.dom, (0, 1), precision)
    out = [z]
    for _ in range(tmax - 1):
        out.append(evaluate_law(law, out[-1], z))
    return out


def test_doubling_matches_fold():
    for prec in (0, 1, 6, 8):
        laws = [
            make_additive(ZZ, prec),
            make_multiplicative(1, ZZ, prec),
            make_multiplicative(-1, ZZ, prec),
            make_multiplicative(2, QQ, prec),
            make_multiplicative(1, ZZ, 2),  # built-in laws stay associative above prec
            make_custom({(1, 0): 1, (0, 1): 1, (1, 1): 2}, GF(3), 8),
        ]
        for law in laws:
            for t, fold in enumerate(fold_t_series(law, 64, prec), start=1):
                assert t_series(law, t, prec).poly == fold, (law.kind, law.prec, prec, t)

