import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from lensprod.algebra import (
    GF,
    Coeff,
    GradedAbGroup,
    INFINITY,
    PoincareSeries,
    QQ,
    TruncPoly,
    TupleSpec,
    ZZ,
    binom_mod2_expand,
    PRIMALITY_BOUND,
    elementary_divisors,
    is_prime,
    nu_p,
    prime_factors,
)
from lensprod.cohomology import BasisMonomial
from lensprod.fgl import make_custom


def test_nu_p_examples():
    assert nu_p(2, 48) == 4
    assert nu_p(3, 7) == 0
    assert nu_p(5, 125) == 3


def test_nu_p_rejects_bad_input():
    with pytest.raises(ValueError):
        nu_p(4, 10)
    with pytest.raises(ValueError):
        nu_p(2, 0)
    with pytest.raises(ValueError):
        nu_p(2, -8)


def test_nu_p_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randint(1, 10_000)
        b = rng.randint(1, 10_000)
        for p in (2, 3, 5, 7):
            assert nu_p(p, a * b) == nu_p(p, a) + nu_p(p, b)


def _trial_factors(n: int) -> tuple[int, ...]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return tuple(out + [n] if n > 1 else out)


def test_primes_and_factors_match_trial_division():
    for n in range(-2, 20001):
        assert is_prime(n) == (n > 1 and _trial_factors(n) == (n,)), n
        if n >= 1:
            assert prime_factors(n) == _trial_factors(n), n


def test_primality_beyond_trial_division():
    assert is_prime(2**61 - 1)
    # strong pseudoprimes to the first 4, 11 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert prime_factors((2**31 - 1) * (2**61 - 1)) == (2**31 - 1, 2**61 - 1)
    assert prime_factors(1000003**3 * 999983 * 2**5) == (2, 999983, 1000003)


def test_prime_powers_of_large_primes():
    # rho finds no factor of p^k quickly; an integer k-th root does, so each
    # of these answers at once (the square above the bound was refused)
    assert prime_factors((2**61 - 1) ** 2) == (2**61 - 1,)
    assert prime_factors(1000000000039**2) == (1000000000039,)
    assert prime_factors(1000000000039**4 * 7) == (7, 1000000000039)
    assert prime_factors((2**31 - 1) ** 3 * (2**61 - 1) ** 2) == (2**31 - 1, 2**61 - 1)


def test_primality_limit():
    # a witness proves compositeness at any size; primality is certified
    # only below the bound, and a number the test cannot decide is rejected
    assert not is_prime(PRIMALITY_BOUND + 2)  # divisible by 3
    assert not is_prime(2**89 + 1)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(2**89 - 1)  # a Mersenne prime above the bound
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(PRIMALITY_BOUND)  # a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match="cannot decide"):
        prime_factors(3 * (2**89 - 1))


def test_binom_mod2_expand_examples():
    assert str(binom_mod2_expand(4, 8)) == "1 + z^4"
    assert str(binom_mod2_expand(0, 8)) == "1"
    assert str(binom_mod2_expand(3, 8)) == "1 + z + z^2 + z^3"


def test_binom_mod2_matches_integer_expansion():
    # Lucas vs exact binomials reduced mod 2
    for k in range(0, 20):
        for prec in (0, 3, 8):
            lucas = binom_mod2_expand(k, prec)
            exact = [comb(k, j) for j in range(prec + 1)]
            assert lucas == TruncPoly.of(GF(2), exact, prec)


def test_coefficients_map_fractions_and_reject_what_has_no_image():
    # over F_p, a/b is a * b^-1 mod p, not the truncated int(a/b)
    assert GF(3)(Fraction(1, 2)) == 2
    assert GF(5)(Fraction(-3, 4)) == 3
    assert GF(7)(Fraction(14, 7)) == 2 and GF(7)(2.0) == 2
    assert ZZ(Fraction(6, 3)) == 2 and ZZ(-4.0) == -4
    assert QQ(2.5) == Fraction(5, 2)
    for dom, x in (
        (GF(3), Fraction(1, 3)),
        (GF(2), Fraction(5, 4)),
        (ZZ, Fraction(1, 2)),
        (ZZ, 2.5),
        (GF(3), 2.5),
        (ZZ, float("inf")),
    ):
        with pytest.raises(ValueError):
            dom(x)
    # a fractional coefficient is no longer silently dropped from a law
    law = make_custom({(1, 0): 1, (0, 1): 1, (1, 1): Fraction(1, 2)}, GF(3))
    assert law.coeff(1, 1) == 2 and law.kind == "custom"


def test_elementary_divisors():
    assert elementary_divisors([2, 3]) == (6,)
    assert elementary_divisors([2, 4, 3]) == (2, 12)
    assert elementary_divisors([1, 1]) == ()
    assert elementary_divisors([6, 4]) == (2, 12)
    assert elementary_divisors([]) == ()


def test_graded_group_normalized_comparison():
    a = GradedAbGroup.of({2: (0, (2, 3)), 5: (1, ())})
    b = GradedAbGroup.of({2: (0, (6,)), 5: (1, ())})
    assert a == b and not a != b
    assert a != GradedAbGroup.of({2: (0, (4,)), 5: (1, ())})


def _prime_power_divisors(torsion):
    """Reference normal form by prime powers: split each order q > 1 into
    p^nu_p(q), sort each prime's exponents, and multiply them back up
    column by column."""
    powers = {}
    for q in torsion:
        if q > 1:
            for p in prime_factors(q):
                powers.setdefault(p, []).append(nu_p(p, q))
    for exps in powers.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = []
    for i in range(depth):
        d = 1
        for p, exps in powers.items():
            if i < len(exps):
                d *= p ** exps[i]
        chain.append(d)
    return tuple(reversed(chain))


# products of a few small prime powers, so that orders share primes and
# repeat, mixed with the trivial orders 0 and 1
_ORDERS = st.one_of(
    st.sampled_from((0, 1)),
    st.builds(
        lambda e2, e3, e5, e7: 2**e2 * 3**e3 * 5**e5 * 7**e7,
        st.integers(0, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
    ),
)


@given(st.lists(_ORDERS, max_size=12))
def test_elementary_divisors_match_prime_power_reference(torsion):
    chain = elementary_divisors(torsion)
    assert chain == _prime_power_divisors(torsion), torsion
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    assert elementary_divisors(chain) == chain
    assert elementary_divisors(reversed(torsion)) == chain


def test_elementary_divisors_need_no_factoring():
    big = 2**89 - 1  # a prime at or above PRIMALITY_BOUND
    assert elementary_divisors([big, big, 1, 0]) == (big, big)
    assert elementary_divisors([2 * big, 3]) == (6 * big,)
    assert elementary_divisors([4 * big, 6 * big]) == (2 * big, 12 * big)


def test_graded_group_is_stored_in_canonical_form():
    a = GradedAbGroup.of({5: (1, ()), 2: (0, (2, 3)), 3: (0, (1, 0))})
    b = GradedAbGroup.of({2: (0, (6,)), 5: (1, ())})
    assert tuple(a) == tuple(b) == (((2, 0, (6,)), (5, 1, ())),)
    assert a.normalized() is a
    assert not hasattr(a, "__dict__")
    assert GradedAbGroup._make([((2, 0, (2, 3)), (5, 1, ()))]) == b
    assert b._replace(groups=((2, 0, (3, 2)), (5, 1, ()))) == b


def test_graded_group_prints_each_degree():
    g = GradedAbGroup.of({0: (1, ()), 2: (0, (3,)), 3: (2, (2, 4))})
    assert str(g) == "0: Z; 2: Z/3; 3: Z^2 + Z/2 + Z/4"
    assert str(GradedAbGroup.of({})) == "0"


def test_value_constructors_refuse_floats_that_are_not_whole():
    for make, message in (
        (lambda: PoincareSeries.of([1.9, 2]), "1.9 is not a whole number"),
        (lambda: GradedAbGroup.of({1: (0, (2.7,))}), "2.7 is not a whole number"),
        (lambda: GradedAbGroup.of({1.5: (1, ())}), "1.5 is not a whole number"),
        (lambda: elementary_divisors([2.5, 4]), "2.5 is not a whole number"),
        (lambda: elementary_divisors([4, -2]), "torsion orders must be non-negative"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    assert PoincareSeries.of([1.0, 2]).coeffs == (1, 2)


def test_poincare_series():
    p = PoincareSeries.of((1, 0, 1))
    q = PoincareSeries.of((1, 0, 0, 1))
    assert (p * q).coeffs == (1, 0, 1, 1, 0, 1)
    assert (p * q).coeffs == (p * q).coeffs[::-1]
    assert str(p) == "1 + s^2"
    assert str(PoincareSeries.of([1, 1]) + PoincareSeries.of([0, 0, 1])) == "1 + s + s^2"
    assert PoincareSeries.of([]) + PoincareSeries.of([]) == PoincareSeries.of([])


def test_tuple_spec_derived_quantities():
    s = TupleSpec((1, 1), 2)
    assert (s.r, s.size_sum, s.delta, s.dim) == (2, 2, 0, 6)
    s = TupleSpec((1, 2), INFINITY)
    assert (s.r, s.size_sum, s.delta, s.dim) == (2, 3, 1, 7)


def test_tuple_spec_rejects_unsorted_and_sorts_on_request():
    with pytest.raises(ValueError):
        TupleSpec((2, 1), 4)
    assert TupleSpec.make((2, 1), 4, sort=True).n == (1, 2)
    with pytest.raises(ValueError):
        TupleSpec((), 4)
    with pytest.raises(ValueError):
        TupleSpec((-1,), 4)
    with pytest.raises(ValueError):
        TupleSpec((1,), 0)


def test_records_validate_on_construction():
    for make, message in (
        (lambda: Coeff("R"), "unknown coefficient kind 'R'"),
        (lambda: GF(4), "F_p needs a prime, got 4"),
        (lambda: Coeff("Z", 2), "p is only meaningful for prime fields"),
        (lambda: TupleSpec((2, 1), 4), "tuple (2, 1) is not nondecreasing"),
        (lambda: TupleSpec((1,), 0), "t must be a positive integer or INFINITY, got 0"),
        (lambda: TupleSpec((1,), True), "t must be a positive integer or INFINITY, got True"),
        (lambda: TupleSpec((1.7,), 3), "1.7 is not a whole number"),
        (lambda: TupleSpec.make((2, 1.5), 3, sort=True), "1.5 is not a whole number"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()
    assert TupleSpec(["1", 2.0], 3).n == (1, 2)


def test_records_are_immutable():
    for record, field in (
        (TupleSpec((1, 2), 3), "n"),
        (GF(3), "p"),
        (BasisMonomial((0, 1, 0), (2,)), "ext"),
        (TruncPoly.of(ZZ, (0, 1), 2), "coeffs"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_series_arithmetic_is_not_tuple_arithmetic():
    # records are tuples; no operand order may repeat or concatenate them
    p = TruncPoly.of(ZZ, (0, 1), 3)
    for op in (lambda: p + p, lambda: p * 2, lambda: 2 * p, lambda: 2 + p):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        2 * PoincareSeries.of((1, 1))
