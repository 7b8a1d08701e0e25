import hashlib
import re
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lensprod import oracle
from lensprod.algebra import (
    GF,
    GradedAbGroup,
    INFINITY,
    PoincareSeries,
    QQ,
    TupleSpec,
    ZZ,
    elementary_divisors,
)
from lensprod.cohomology import (
    BasisMonomial,
    CoeffMode,
    FREE,
    INTEGRAL,
    PRIMARY,
    UNIT,
    base_factor,
    build_ring,
    change_coefficients,
    cup_length,
    field_modes,
    graded_groups,
    poincare_polynomial,
    projection_pi_star,
    restriction_p,
    resolve_mode,
    zero_divisor_cup_length,
)
from lensprod.steenrod import total_sq

from _grid import ONE, apply_linear, full_grid_specs, grid_specs, mul, tuples


def mono(base, ext=()):
    return BasisMonomial(base, tuple(ext))


# ---------------------------------------------------------------------------
# presentations and module structure


def test_resolve_mode():
    assert resolve_mode(TupleSpec((1,), INFINITY), ZZ).presentation == FREE
    assert resolve_mode(TupleSpec((1,), 4), ZZ).presentation == INTEGRAL
    assert resolve_mode(TupleSpec((1,), 4), QQ).presentation == UNIT
    assert resolve_mode(TupleSpec((1,), 4), GF(3)).presentation == UNIT
    m = resolve_mode(TupleSpec((1,), 12), GF(2))
    assert m.presentation == PRIMARY and m.e == 2


def test_build_ring_cp1():
    ring = build_ring(TupleSpec((1,), INFINITY), ZZ)
    assert graded_groups(ring) == GradedAbGroup.of({0: (1, ()), 2: (1, ())})


def test_build_ring_lens3_integral():
    # frozen from the SNF oracle on the 4-cell complex of L^3(3)
    ring = build_ring(TupleSpec((1,), 3), ZZ)
    assert graded_groups(ring) == GradedAbGroup.of(
        {0: (1, ()), 2: (0, (3,)), 3: (1, ())}
    )
    assert str(ring) == "H*(CP_(1,)(3); Z)"


def test_build_ring_poincare_examples():
    # frozen from the oracle homology of L_{(1,1)}(2) with F_2 coefficients
    ring = build_ring(TupleSpec((1, 1), 2), GF(2))
    assert poincare_polynomial(ring).coeffs == (1, 1, 1, 2, 1, 1, 1)
    ring = build_ring(TupleSpec((1, 2), INFINITY), QQ)
    assert poincare_polynomial(ring).coeffs == (1, 0, 1, 0, 0, 1, 0, 1)


def test_graded_groups_examples():
    assert graded_groups(build_ring(TupleSpec((0, 0), 2), ZZ)) == GradedAbGroup.of(
        {0: (1, ()), 1: (2, ()), 2: (1, ())}
    )
    assert graded_groups(build_ring(TupleSpec((1,), INFINITY), ZZ)) == GradedAbGroup.of(
        {0: (1, ()), 2: (1, ())}
    )


def test_t1_collapses_to_spheres():
    ring = build_ring(TupleSpec((2,), 1), ZZ)
    assert graded_groups(ring) == GradedAbGroup.of({0: (1, ()), 5: (1, ())})


def test_unit_mode_kills_torsion():
    ring = build_ring(TupleSpec((2, 2), 5), QQ)
    assert poincare_polynomial(ring).coeffs == (1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1)


def test_poincare_rejects_integral_mode():
    with pytest.raises(ValueError):
        poincare_polynomial(build_ring(TupleSpec((1,), 2), ZZ))


def test_poincare_three_torus():
    ring = build_ring(TupleSpec((0, 0, 0), 2), GF(2))
    cube = PoincareSeries.of((1, 1)) * PoincareSeries.of((1, 1)) * PoincareSeries.of((1, 1))
    assert poincare_polynomial(ring) == cube


def test_top_degree_is_dim_and_one_dimensional():
    for spec in full_grid_specs():
        for dom in (QQ, GF(2)):
            ring = build_ring(spec, dom)
            poly = poincare_polynomial(ring)
            assert poly.degree == spec.dim
            assert poly.coeff(spec.dim) == 1
            assert poly.coeff(0) == 1


# One spec per presentation of the base factor, with its basis (label,
# degree, torsion), generators and relations as recorded before the base
# factor became a table.
PINNED_RECORDS = {
    ("free", INFINITY, ZZ): (
        [("1", 0, 0), ("z", 2, 0), ("z^2", 4, 0), ("x2", 5, 0), ("z*x2", 7, 0),
         ("z^2*x2", 9, 0)],
        (("z", 2), ("x2", 5)),
        ("z^3 = 0", "x2^2 = 0"),
    ),
    ("integral t = 1", 1, ZZ): (
        [("1", 0, 0), ("w", 5, 0), ("x2", 5, 0), ("w*x2", 10, 0)],
        (("w", 5), ("x2", 5)),
        ("z^3 = 0", "z = 0", "w*z = 0, w^2 = 0", "x2^2 = 0"),
    ),
    ("integral t > 1", 4, ZZ): (
        [("1", 0, 0), ("z", 2, 4), ("z^2", 4, 4), ("w", 5, 0), ("x2", 5, 0),
         ("z*x2", 7, 4), ("z^2*x2", 9, 4), ("w*x2", 10, 0)],
        (("z", 2), ("w", 5), ("x2", 5)),
        ("z^3 = 0", "4*z = 0", "w*z = 0, w^2 = 0", "x2^2 = 0"),
    ),
    ("unit over Q", 4, QQ): (
        [("1", 0, 0), ("w", 5, 0), ("x2", 5, 0), ("w*x2", 10, 0)],
        (("w", 5), ("x2", 5)),
        ("z = 0 (t acts invertibly)", "w^2 = 0", "x2^2 = 0"),
    ),
    ("unit over F3", 4, GF(3)): (
        [("1", 0, 0), ("w", 5, 0), ("x2", 5, 0), ("w*x2", 10, 0)],
        (("w", 5), ("x2", 5)),
        ("z = 0 (t acts invertibly)", "w^2 = 0", "x2^2 = 0"),
    ),
    ("primary p = 2, nu_2(t) = 1", 2, GF(2)): (
        [("1", 0, 0), ("y", 1, 0), ("z", 2, 0), ("y*z", 3, 0), ("z^2", 4, 0),
         ("x2", 5, 0), ("y*z^2", 5, 0), ("y*x2", 6, 0), ("z*x2", 7, 0),
         ("y*z*x2", 8, 0), ("z^2*x2", 9, 0), ("y*z^2*x2", 10, 0)],
        (("y", 1), ("z", 2), ("x2", 5)),
        ("y^2 = z", "z^3 = 0", "x2^2 = 0"),
    ),
    ("primary p = 2, nu_2(t) = 2", 4, GF(2)): (
        [("1", 0, 0), ("y", 1, 0), ("z", 2, 0), ("y*z", 3, 0), ("z^2", 4, 0),
         ("x2", 5, 0), ("y*z^2", 5, 0), ("y*x2", 6, 0), ("z*x2", 7, 0),
         ("y*z*x2", 8, 0), ("z^2*x2", 9, 0), ("y*z^2*x2", 10, 0)],
        (("y", 1), ("z", 2), ("x2", 5)),
        ("y^2 = 0", "z^3 = 0", "x2^2 = 0"),
    ),
    ("primary p = 3", 3, GF(3)): (
        [("1", 0, 0), ("y", 1, 0), ("z", 2, 0), ("y*z", 3, 0), ("z^2", 4, 0),
         ("x2", 5, 0), ("y*z^2", 5, 0), ("y*x2", 6, 0), ("z*x2", 7, 0),
         ("y*z*x2", 8, 0), ("z^2*x2", 9, 0), ("y*z^2*x2", 10, 0)],
        (("y", 1), ("z", 2), ("x2", 5)),
        ("y^2 = 0", "z^3 = 0", "x2^2 = 0"),
    ),
}

# Every total square on the F_2 rings of the same specs.
PINNED_SQ = {
    INFINITY: [
        "Sq(1) = 1", "Sq(z) = z + z^2", "Sq(z^2) = z^2", "Sq(x2) = x2 + z*x2 + z^2*x2",
        "Sq(z*x2) = z*x2", "Sq(z^2*x2) = z^2*x2",
    ],
    1: ["Sq(1) = 1", "Sq(w) = w", "Sq(x2) = x2", "Sq(w*x2) = w*x2"],
    2: [
        "Sq(1) = 1", "Sq(y) = y + z", "Sq(z) = z + z^2", "Sq(y*z) = y*z + z^2 + y*z^2",
        "Sq(z^2) = z^2", "Sq(x2) = x2 + z*x2 + z^2*x2", "Sq(y*z^2) = y*z^2",
        "Sq(y*x2) = y*x2 + z*x2 + y*z*x2 + z^2*x2 + y*z^2*x2", "Sq(z*x2) = z*x2",
        "Sq(y*z*x2) = y*z*x2 + z^2*x2", "Sq(z^2*x2) = z^2*x2",
        "Sq(y*z^2*x2) = y*z^2*x2",
    ],
    3: ["Sq(1) = 1", "Sq(w) = w", "Sq(x2) = x2", "Sq(w*x2) = w*x2"],
    4: [
        "Sq(1) = 1", "Sq(y) = y", "Sq(z) = z + z^2", "Sq(y*z) = y*z + y*z^2",
        "Sq(z^2) = z^2", "Sq(x2) = x2 + z*x2 + z^2*x2", "Sq(y*z^2) = y*z^2",
        "Sq(y*x2) = y*x2 + y*z*x2 + y*z^2*x2", "Sq(z*x2) = z*x2",
        "Sq(y*z*x2) = y*z*x2", "Sq(z^2*x2) = z^2*x2", "Sq(y*z^2*x2) = y*z^2*x2",
    ],
}


def test_records_pinned_per_presentation():
    for (case, t, dom), (basis, gens, rels) in PINNED_RECORDS.items():
        ring = build_ring(TupleSpec((2, 2), t), dom)
        got = [(str(m), ring.degree(m), ring.torsion_order(m)) for m in ring.basis]
        assert got == basis, case
        assert ring.generators == gens, case
        assert ring.relations == rels, case
    for t, squares in PINNED_SQ.items():
        ring = build_ring(TupleSpec((2, 2), t), GF(2))
        got = []
        for m in ring.basis:
            sq = sorted(total_sq(ring, m), key=ring.basis.index)
            got.append(f"Sq({m}) = " + " + ".join(str(k) for k in sq))
        assert got == squares, t


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_y_squared_is_z():
    ring = build_ring(TupleSpec((1,), 2), GF(2))
    y = mono((1, 0, 0))
    assert ring.multiply(y, y) == {mono((0, 1, 0)): 1}


def test_multiply_y_squared_zero_when_e_at_least_2():
    ring = build_ring(TupleSpec((1,), 4), GF(2))
    y = mono((1, 0, 0))
    assert ring.multiply(y, y) == {}


def test_multiply_y_squared_zero_odd_p():
    ring = build_ring(TupleSpec((2,), 3), GF(3))
    y = mono((1, 0, 0))
    assert ring.multiply(y, y) == {}


def test_multiply_exterior_squares_vanish():
    for spec, dom in [
        (TupleSpec((1, 1), INFINITY), ZZ),
        (TupleSpec((1, 2), 2), GF(2)),
        (TupleSpec((0, 1), 3), QQ),
    ]:
        ring = build_ring(spec, dom)
        x2 = mono(ONE.base, (2,))
        assert ring.multiply(x2, x2) == {}


def test_multiply_within_truncation():
    ring = build_ring(TupleSpec((2, 3), INFINITY), ZZ)
    z = mono((0, 1, 0))
    zx2 = mono((0, 1, 0), (2,))
    out = ring.multiply(z, zx2)
    assert out == {mono((0, 2, 0), (2,)): 1}
    assert ring.degree(mono((0, 2, 0), (2,))) == 11


def test_multiply_graded_commutativity_sign():
    ring = build_ring(TupleSpec((1, 1, 1), INFINITY), ZZ)
    x2, x3 = mono((0, 0, 0), (2,)), mono((0, 0, 0), (3,))
    assert ring.multiply(x2, x3) == {mono((0, 0, 0), (2, 3)): 1}
    assert ring.multiply(x3, x2) == {mono((0, 0, 0), (2, 3)): -1}


def test_multiply_omega_annihilates_base_but_not_exterior():
    ring = build_ring(TupleSpec((1, 1), 2), ZZ)
    w = mono((0, 0, 1))
    z = mono((0, 1, 0))
    x2 = mono(ONE.base, (2,))
    assert ring.multiply(w, z) == {}
    assert ring.multiply(w, w) == {}
    assert ring.multiply(w, x2) == {mono((0, 0, 1), (2,)): 1}


def test_multiply_rejects_foreign_monomial():
    ring = build_ring(TupleSpec((1,), INFINITY), ZZ)
    with pytest.raises(ValueError):
        ring.multiply(mono((1, 0, 0)), mono((0, 1, 0)))


def test_torsion_coefficients_normalized():
    ring = build_ring(TupleSpec((1, 1, 1), 3), ZZ)
    zx3 = mono((0, 1, 0), (3,))
    x2 = mono((0, 0, 0), (2,))
    # odd-odd transposition sign folds into the mod-3 representative
    assert ring.multiply(zx3, x2) == {mono((0, 1, 0), (2, 3)): 2}


def test_multiply_associative_and_graded_commutative():
    # exhaustive on all basis triples, rings up to |n| = 6 in several modes
    cases = [
        (TupleSpec((1, 2), INFINITY), ZZ),
        (TupleSpec((1, 1), 2), GF(2)),
        (TupleSpec((1, 2), 4), ZZ),
        (TupleSpec((1, 1, 2), 3), GF(3)),
        (TupleSpec((1, 1), 6), QQ),
        (TupleSpec((2, 2, 2), 4), ZZ),
        (TupleSpec((2, 2, 2), 2), GF(2)),
    ]
    for spec, dom in cases:
        ring = build_ring(spec, dom)
        basis = ring.basis
        for m1 in basis:
            for m2 in basis:
                left = ring.multiply(m1, m2)
                sign = (-1) ** (ring.degree(m1) * ring.degree(m2))
                right = {
                    m: ring.dom(sign * c) for m, c in ring.multiply(m2, m1).items()
                }
                assert left == ring._normalize(right), (spec, dom, m1, m2)
                for m3 in basis:
                    lhs = mul(ring, left, {m3: 1})
                    rhs = mul(ring, {m1: 1}, ring.multiply(m2, m3))
                    assert lhs == rhs, (spec, dom, m1, m2, m3)


# ---------------------------------------------------------------------------
# restriction / projection / coefficient change


def test_restriction_examples():
    ring = build_ring(TupleSpec((1, 1, 2), INFINITY), ZZ)
    rmap = restriction_p(ring, {1, 3})
    assert rmap.sub.spec.n == (1, 2)
    # z^a x_2 of the sub ring maps to z^a x_3 of the full ring
    assert rmap.image(mono((0, 1, 0), (2,))) == mono((0, 1, 0), (3,))
    # identity kept-set
    rid = restriction_p(ring, {1, 2, 3})
    for m in rid.sub.basis:
        assert rid.image(m) == m
    # dropping everything but the base
    r1 = restriction_p(build_ring(TupleSpec((1, 1), 2), ZZ), {1})
    images = {r1.image(m) for m in r1.sub.basis}
    assert images == {m for m in r1.full.basis if m.ext == ()}


def test_restriction_requires_index_one():
    ring = build_ring(TupleSpec((1, 1), INFINITY), ZZ)
    with pytest.raises(ValueError):
        restriction_p(ring, {2})


def test_restriction_is_injective_multiplicative_section():
    for spec, dom in [
        (TupleSpec((1, 1, 2), INFINITY), QQ),
        (TupleSpec((1, 2, 2), 4), ZZ),
        (TupleSpec((0, 1, 1), 2), GF(2)),
    ]:
        ring = build_ring(spec, dom)
        for kept in ({1}, {1, 2}, {1, 3}, {1, 2, 3}):
            rmap = restriction_p(ring, kept)
            seen = {}
            sub_basis = rmap.sub.basis
            for m in sub_basis:
                img = rmap.image(m)
                assert rmap.sub.degree(m) == ring.degree(img)
                assert img not in seen
                seen[img] = m
            for m1 in sub_basis:
                for m2 in sub_basis:
                    direct = rmap.sub.multiply(m1, m2)
                    pushed = ring.multiply(rmap.image(m1), rmap.image(m2))
                    assert {rmap.image(m): c for m, c in direct.items()} == pushed


def test_projection_examples():
    target = build_ring(TupleSpec((1, 1), 2), ZZ)
    rule = projection_pi_star(2, 4)
    assert rule.omega_multiplier == 2
    w = mono((0, 0, 1))
    assert rule.push(w, build_ring(TupleSpec((1, 1), 4), ZZ), target) == {w: 2}
    assert projection_pi_star(3, 3).omega_multiplier == 1
    inf_rule = projection_pi_star(2, INFINITY)
    assert inf_rule.omega_multiplier is None
    source = build_ring(TupleSpec((1, 1), INFINITY), ZZ)
    for m in (mono((0, 1, 0)), mono((0, 0, 0), (2,))):
        assert inf_rule.push(m, source, target) == {m: 1}


def test_projection_sphere_pullback_compatibility():
    # w' pulls back to t' * iota on the covering sphere; multiplier * t = t'
    for t in (1, 2, 3, 4, 6):
        for mult in (1, 2, 3, 5):
            rule = projection_pi_star(t, t * mult)
            assert rule.omega_multiplier * t == t * mult


def test_projection_push_is_a_ring_map():
    # pi*: H(CP_n(t')) -> H(CP_n(t)) for t | t' is multiplicative; coefficient
    # reduction Z_{t'} -> Z_t is well defined exactly because t | t'.
    # Covering compatibility with large finite t also exercises the t' = inf
    # rules, the stated stand-in for the missing infinite-t oracle.
    cases = [
        ((1, 2), 2, 4),
        ((2, 2), 3, 6),
        ((1, 1, 2), 2, 6),
        ((2,), 1, 3),
        ((1, 2), 4, INFINITY),
        ((2, 2, 2), 6, INFINITY),
    ]
    for n, t, t_prime in cases:
        rule = projection_pi_star(t, t_prime)
        source = build_ring(TupleSpec(n, t_prime), ZZ)
        target = build_ring(TupleSpec(n, t), ZZ)
        basis = source.basis
        for m1 in basis:
            img1 = rule.push(m1, source, target)
            assert all(
                target.degree(m) == source.degree(m1) for m in img1
            )
            for m2 in basis:
                lhs = apply_linear(lambda m: rule.push(m, source, target), target, source.multiply(m1, m2))
                rhs = mul(target, img1, rule.push(m2, source, target))
                assert lhs == rhs, (n, t, t_prime, m1, m2)


def test_projection_push_rejects_primary_presentation():
    rule = projection_pi_star(2, 4)
    source = build_ring(TupleSpec((1,), 4), GF(2))
    target = build_ring(TupleSpec((1,), 2), GF(2))
    with pytest.raises(ValueError):
        rule.push(mono((1, 0, 0)), source, target)


def test_projection_rejects_non_divisor():
    with pytest.raises(ValueError):
        projection_pi_star(2, 5)
    with pytest.raises(ValueError):
        projection_pi_star(0, 4)


def test_projection_refuses_a_bool():
    # True is an int, but no t or t'; TupleSpec refuses a bool t the same way
    with pytest.raises(ValueError, match="got True"):
        projection_pi_star(True, 2)
    with pytest.raises(ValueError, match="t' = True"):
        projection_pi_star(1, True)


def test_change_coefficients_examples():
    # t=3, p=2: all Z_3 torsion dies
    rmap = change_coefficients(build_ring(TupleSpec((1, 1), 3), ZZ), 2)
    assert rmap.image(mono((0, 1, 0))) == {}
    assert rmap.image(mono((0, 0, 0), (2,))) == {mono((0, 0, 0), (2,)): 1}
    # t=2, p=2: z maps to z = y^2
    rmap = change_coefficients(build_ring(TupleSpec((1, 1), 2), ZZ), 2)
    tgt = rmap.target
    img = rmap.image(mono((0, 1, 0)))
    assert img == {mono((0, 1, 0)): 1}
    y = mono((1, 0, 0))
    assert tgt.multiply(y, y) == img
    # t=inf, p=5: rank preserving
    rmap = change_coefficients(build_ring(TupleSpec((2,), INFINITY), ZZ), 5)
    assert rmap.image(mono((0, 2, 0))) == {mono((0, 2, 0)): 1}


def test_reduction_map_keeps_no_state_beyond_its_fields():
    rmap = change_coefficients(build_ring(TupleSpec((1, 1), 2), ZZ), 2)
    assert rmap._fields == ("source", "target")
    assert not hasattr(rmap, "__dict__")
    # w reduces to the top base of the target, y z
    assert rmap.image(mono((0, 0, 1), (2,))) == {mono((1, 1, 0), (2,)): 1}


def test_base_factor_refuses_what_a_spec_refuses():
    for make, message in (
        (lambda: base_factor(-1, 2, CoeffMode(GF(2), PRIMARY, 1)), "entries must be non-negative, got (-1,)"),
        (lambda: base_factor(1, -2, CoeffMode(QQ, UNIT)), "t must be a positive integer or INFINITY, got -2"),
        (lambda: base_factor(1, 0, CoeffMode(ZZ, INTEGRAL)), "t must be a positive integer or INFINITY, got 0"),
        (lambda: base_factor(1.5, 2, CoeffMode(ZZ, INTEGRAL)), "1.5 is not a whole number"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_graded_groups_compare_and_hash_without_factoring():
    # 2^89 - 1 is a prime at or above PRIMALITY_BOUND, which is_prime refuses
    g = graded_groups(build_ring(TupleSpec((1,), 2**89 - 1), ZZ))
    assert g == g and not g != g
    assert hash(g) == hash(GradedAbGroup.of({0: (1, ()), 2: (0, (2**89 - 1,)), 3: (1, ())}))


def test_graded_groups_over_the_grid_are_unchanged():
    # sha256 of the repr of every integral grid ring's rows, recorded when the
    # groups were still built from the monomials' torsion orders unnormalized
    rows = [graded_groups(build_ring(spec, ZZ)).groups for spec in full_grid_specs()]
    assert len(rows) == 114
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "eea668d76e494a38fa50e70fc14d20953a97938bd0fa992cf0f4749617973461"


@settings(max_examples=300, deadline=None)
@given(
    n=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    t=st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, INFINITY)),
    dom=st.sampled_from((ZZ, GF(2), GF(3), QQ)),
)
def test_counts_equal_the_listing(n, t, dom):
    # the product formula against the listed basis counted by degree and
    # torsion order, and so every reader of the counts: the graded groups,
    # the Poincare polynomial and the comparison's theory rows (its oracle
    # side stubbed out, so t = inf and specs above the cap are drawn too)
    spec = TupleSpec(tuple(sorted(n)), t)
    ring = build_ring(spec, dom)
    listed: dict = {}
    for m in ring.basis:
        listed.setdefault(ring.degree(m), []).append(ring.torsion_order(m))
    assert ring.counts() == {d: Counter(orders) for d, orders in listed.items()}
    assert graded_groups(ring) == GradedAbGroup.of({d: (o.count(0), o) for d, o in listed.items()})
    if ring.is_field:
        assert poincare_polynomial(ring) == PoincareSeries.from_dict({d: len(o) for d, o in listed.items()})
    no_homology = defaultdict(lambda: (0, ()))
    with mock.patch.object(oracle, "_cached_factors", lambda spec, cap: ((), ())), mock.patch.object(
        oracle, "_homology_rows", lambda cells, factors, dom: no_homology
    ):
        rows = oracle.compare_with_theory(spec, dom).degrees
    expected = [listed.get(d, []) for d in range(spec.dim + 1)]
    assert [th for _, th, _, _ in rows] == [(o.count(0), elementary_divisors(o)) for o in expected]


def test_require_accepts_exactly_the_listed_monomials():
    # the shape check against the listing: every base triple up to one past
    # the factor's (so bases the presentation lacks, such as z where t acts
    # invertibly or w mod p | t) and every tuple of up to three indices in
    # 0..r+1 (so index 1, index r+1, repeats and disorder)
    for spec in (TupleSpec((1, 2, 2), 4), TupleSpec((0, 1, 1), 3), TupleSpec((2, 2), INFINITY)):
        exts = [ext for k in range(4) for ext in product(range(spec.r + 2), repeat=k)]
        for dom in (ZZ, GF(2), QQ):
            ring = build_ring(spec, dom)
            listed = set(ring.basis)
            for base in product(range(3), range(spec.n[0] + 2), range(3)):
                for ext in exts:
                    m = mono(base, ext)
                    try:
                        ring.degree(m)
                    except ValueError:
                        assert m not in listed, (spec, dom, m)
                    else:
                        assert m in listed, (spec, dom, m)


def test_a_ring_retains_little_memory():
    # a ring keeps its base factor and the x_i's degrees, not its 2^16 * 4
    # monomials (36 MB while the basis was stored)
    spec = TupleSpec((1,) * 17, 2)
    base_factor(1, 2, resolve_mode(spec, GF(2)))  # cached and shared by the rings
    tracemalloc.start()
    try:
        ring = build_ring(spec, GF(2))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(sum(row.values()) for row in ring.counts().values()) == 2**16 * 4
    assert retained < 1_000_000, retained


def test_change_coefficients_is_multiplicative():
    for spec, p in [
        (TupleSpec((1, 1), 2), 2),
        (TupleSpec((2, 2), 4), 2),
        (TupleSpec((1, 2), 3), 3),
        (TupleSpec((1, 1), 6), 2),
        (TupleSpec((1, 1), 3), 2),
    ]:
        rmap = change_coefficients(build_ring(spec, ZZ), p)
        src, tgt = rmap.source, rmap.target
        basis = src.basis
        for m1 in basis:
            for m2 in basis:
                lhs = apply_linear(rmap.image, tgt, src.multiply(m1, m2))
                rhs = mul(tgt, rmap.image(m1), rmap.image(m2))
                assert lhs == rhs, (spec, p, m1, m2)


# ---------------------------------------------------------------------------
# cup lengths


def test_cup_length_examples():
    assert cup_length(build_ring(TupleSpec((2, 3), INFINITY), QQ)) == 3
    assert cup_length(build_ring(TupleSpec((1, 1), 2), GF(2))) == 4
    assert cup_length(build_ring(TupleSpec((0, 0), 2), GF(2))) == 2


def test_cup_length_formula_at_infinity():
    # cup_length((n, inf), Q) = n1 + r - 1: z^{n1} x_2 ... x_r is the witness
    for spec in full_grid_specs():
        if spec.finite:
            continue
        got = cup_length(build_ring(spec, QQ))
        assert got == spec.n[0] + spec.r - 1, spec


def test_cup_length_rejects_integral():
    with pytest.raises(ValueError):
        cup_length(build_ring(TupleSpec((1,), 2), ZZ))


def test_zero_divisor_cup_length_examples():
    assert zero_divisor_cup_length(build_ring(TupleSpec((1,), INFINITY), QQ)) == 2
    # odd sphere-like
    assert zero_divisor_cup_length(build_ring(TupleSpec((0,), 3), GF(3))) == 1
    # (z-bar)^2 x2-bar is nonzero but every 4-fold product of generator
    # differences vanishes (x-bar^2 = 0 for odd x, z^2 = 0 here)
    assert zero_divisor_cup_length(build_ring(TupleSpec((1, 1), INFINITY), QQ)) == 3


def test_zcl_one_one_inf_independent_expansion():
    # independent oracle for the (1,1) at infinity value: hand-coded
    # structure constants for Q[z]/(z^2) (x) Lambda[x], deg z = 2, deg x = 3,
    # expanded in the 16-dimensional tensor basis with Koszul signs
    from fractions import Fraction
    from itertools import combinations_with_replacement

    basis = [(a, b) for a in (0, 1) for b in (0, 1)]  # z^a x^b
    deg = {(a, b): 2 * a + 3 * b for a, b in basis}

    def mul(m1, m2):
        (a1, b1), (a2, b2) = m1, m2
        if a1 + a2 > 1 or b1 + b2 > 1:
            return {}
        return {(a1 + a2, b1 + b2): 1}

    def tmul(e1, e2):
        out = {}
        for (l1, r1), c1 in e1.items():
            for (l2, r2), c2 in e2.items():
                sign = -1 if (deg[r1] * deg[l2]) % 2 else 1
                for ml, cl in mul(l1, l2).items():
                    for mr, cr in mul(r1, r2).items():
                        k = (ml, mr)
                        out[k] = out.get(k, 0) + sign * c1 * c2 * cl * cr
        return {k: Fraction(v) for k, v in out.items() if v}

    one = (0, 0)
    zbar = {((1, 0), one): Fraction(1), (one, (1, 0)): Fraction(-1)}
    xbar = {((0, 1), one): Fraction(1), (one, (0, 1)): Fraction(-1)}
    longest = 0
    for length in range(1, 6):
        for combo in combinations_with_replacement((zbar, xbar), length):
            prod = {(one, one): Fraction(1)}
            for f in combo:
                prod = tmul(prod, f)
                if not prod:
                    break
            if prod:
                longest = max(longest, length)
    assert longest == 3
    assert longest == zero_divisor_cup_length(
        build_ring(TupleSpec((1, 1), INFINITY), QQ)
    )


def test_zero_divisor_cup_length_projective_spaces():
    # zcl(CP^n, Q) = 2n: (z-bar)^{2n} has a binomial(2n, n) z^n x z^n term
    for n in (1, 2, 3):
        ring = build_ring(TupleSpec((n,), INFINITY), QQ)
        assert zero_divisor_cup_length(ring) == 2 * n


def test_betti_palindromic():
    for spec in grid_specs(ts=(1, 2, 3, 4, 6)):
        for dom in field_modes(spec):
            coeffs = poincare_polynomial(build_ring(spec, dom)).coeffs
            assert coeffs == coeffs[::-1], (spec, dom)
    for spec in full_grid_specs():
        if not spec.finite:
            coeffs = poincare_polynomial(build_ring(spec, QQ)).coeffs
            assert coeffs == coeffs[::-1], spec


def test_poincare_tensor_factorization():
    # P(full) = P(base) * prod (1 + s^{2 n_i + 1})
    for spec in full_grid_specs():
        for dom in field_modes(spec):
            full = poincare_polynomial(build_ring(spec, dom))
            base = poincare_polynomial(
                build_ring(TupleSpec((spec.n[0],), spec.t), dom)
            )
            for i in range(2, spec.r + 1):
                factor = [0] * (2 * spec.n[i - 1] + 2)
                factor[0] = factor[-1] = 1
                base = base * PoincareSeries.of(factor)
            assert full == base, (spec, dom)


def _field_rank(rows: list, p: int) -> int:
    """Rank of a matrix over F_p, or over Q when p = 0, by row reduction."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p) if p else 1 / Fraction(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_gysin_sequence_of_the_circle_bundle_at_t_infinity():
    # P = prod S^{2n_i+1} -> X = P/S^1 is a circle bundle with Euler class z,
    # so the Gysin sequence gives b_k(P) = (b_k - rk_{k-2}) + (b_{k-1} -
    # rk_{k-1}), rk_j the rank of z: H^j(X) -> H^{j+2}(X) read from
    # ring.multiply, and b(P) the coefficients of prod (1 + s^{2n_i+1}).
    # There is no cell complex at t = INFINITY, so this checks products by z
    # against the topology of the bundle alone
    z = mono((0, 1, 0))
    checked = 0
    for n in tuples(nmax=3, rmax=4):
        spec = TupleSpec(n, INFINITY)
        top = sum(2 * ni + 1 for ni in n)  # dim P
        sphere_betti = [1] + [0] * top
        for ni in n:
            for k in reversed(range(2 * ni + 1, top + 1)):
                sphere_betti[k] += sphere_betti[k - 2 * ni - 1]
        for dom in (QQ, GF(2), GF(3)):
            ring = build_ring(spec, dom)
            by_degree = [ring.basis_by_degree.get(k, ()) for k in range(top + 3)]
            rk = [0] * (top + 1)
            for j in range(top + 1):
                if z in ring.basis:  # z = 0 when n_1 = 0
                    index = {m: i for i, m in enumerate(by_degree[j + 2])}
                    rows = [[0] * len(index) for _ in by_degree[j]]
                    for row, m in zip(rows, by_degree[j]):
                        for m2, c in ring.multiply(m, z).items():
                            row[index[m2]] = c
                    rk[j] = _field_rank(rows, dom.p)
            for k in range(top + 1):
                gysin = len(by_degree[k]) - (rk[k - 2] if k >= 2 else 0)
                if k:
                    gysin += len(by_degree[k - 1]) - rk[k - 1]
                assert sphere_betti[k] == gysin, (spec, dom, k)
                checked += 1
    assert checked > 2000
