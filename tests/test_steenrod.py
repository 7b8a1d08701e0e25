from itertools import combinations

import pytest

from lensprod.algebra import GF, INFINITY, QQ, TupleSpec, binom_mod2, nu_p
from lensprod.cohomology import BasisMonomial, build_ring
from lensprod.oracle import DEFAULT_CAP, _cached_factors
from lensprod.steenrod import (
    is_orientable,
    is_spin,
    sq_k,
    sq_k_elem,
    stiefel_whitney_total,
    total_sq,
)

from _grid import full_grid_specs, grid_specs


def mono(base, ext=()):
    return BasisMonomial(base, tuple(ext))


STEENROD_TS = (2, 4, INFINITY)


def steenrod_rings(nmax=2, rmax=3):
    for spec in full_grid_specs(nmax, rmax):
        if spec.t in STEENROD_TS:
            yield build_ring(spec, GF(2))


def test_total_sq_on_x2_matches_binomial():
    ring = build_ring(TupleSpec((2, 2), INFINITY), GF(2))
    x2 = mono((0, 0, 0), (2,))
    # (1+z)^3 x2 with z^3 = 0: x2 + z x2 + z^2 x2
    assert total_sq(ring, x2) == {
        mono((0, 0, 0), (2,)): 1,
        mono((0, 1, 0), (2,)): 1,
        mono((0, 2, 0), (2,)): 1,
    }


def test_sq1_y_is_y_squared():
    ring = build_ring(TupleSpec((1, 1), 2), GF(2))
    y = mono((1, 0, 0))
    assert sq_k(ring, y, 1) == {mono((0, 1, 0)): 1}
    assert sq_k(ring, y, 1) == ring.multiply(y, y)


def test_sq0_is_identity_everywhere():
    for ring in steenrod_rings(nmax=1, rmax=2):
        for m in ring.basis:
            assert sq_k(ring, m, 0) == {m: 1}


def test_sq2_x2_dies_by_truncation():
    ring = build_ring(TupleSpec((1, 1), INFINITY), GF(2))
    x2 = mono((0, 0, 0), (2,))
    assert sq_k(ring, x2, 2) == {}


def test_top_square_is_cup_square_on_x():
    ring = build_ring(TupleSpec((1, 2), INFINITY), GF(2))
    x2 = mono((0, 0, 0), (2,))
    assert sq_k(ring, x2, ring.degree(x2)) == {}  # x2^2 = 0


def test_sq1_on_y_powers_follows_binomial():
    # Sq^1(y^a) = a y^{a+1} over the 2-primary field with e = 1
    ring = build_ring(TupleSpec((2,), 2), GF(2))
    y, z = mono((1, 0, 0)), mono((0, 1, 0))
    powers = {1: y, 2: z, 3: mono((1, 1, 0)), 4: mono((0, 2, 0)), 5: mono((1, 2, 0))}
    for a, ya in powers.items():
        expected = {powers[a + 1]: 1} if (a % 2 == 1 and a + 1 <= 5) else {}
        assert sq_k(ring, ya, 1) == expected, a


def test_sq1_z_vanishes_when_e_at_least_two():
    ring = build_ring(TupleSpec((2,), 4), GF(2))
    z = mono((0, 1, 0))
    assert sq_k(ring, z, 1) == {}
    assert sq_k(ring, z, 2) == {mono((0, 2, 0)): 1}


def test_odd_torsion_sphere_class_is_sq_trivial():
    ring = build_ring(TupleSpec((1, 1), 3), GF(2))
    w = mono((0, 0, 1))
    assert total_sq(ring, w) == {w: 1}


def test_requires_f2():
    ring = build_ring(TupleSpec((1,), INFINITY), QQ)
    with pytest.raises(ValueError):
        total_sq(ring, mono((0, 1, 0)))


def test_axioms_on_grid():
    # Sq^0 = id, instability, top square = cup square
    for ring in steenrod_rings():
        for m in ring.basis:
            d = ring.degree(m)
            assert sq_k(ring, m, 0) == {m: 1}
            total = total_sq(ring, m)
            # instability: nothing beyond degree 2 deg(m)
            assert all(ring.degree(m2) <= 2 * d for m2 in total)
            for k in range(d + 1, 2 * d + 2):
                assert sq_k(ring, m, k) == {}, (ring.spec, m, k)
            assert sq_k(ring, m, d) == ring.multiply(m, m), (ring.spec, m)


def test_cartan_formula_on_grid():
    # total_sq(m1 m2) = total_sq(m1) total_sq(m2); the left side reduces the
    # product before applying Sq
    for ring in steenrod_rings(nmax=2, rmax=2):
        basis = ring.basis
        for m1 in basis:
            for m2 in basis:
                prod = ring.multiply(m1, m2)
                lhs = {}
                for m, c in prod.items():
                    for m3, c3 in total_sq(ring, m).items():
                        lhs[m3] = (lhs.get(m3, 0) + c * c3) % 2
                lhs = {m: c for m, c in lhs.items() if c}
                rhs = ring.mul(total_sq(ring, m1), total_sq(ring, m2))
                assert lhs == rhs, (ring.spec, m1, m2)


def test_adem_relations_sample():
    # Sq^a Sq^b = sum C(b-1-j, a-2j) Sq^{a+b-j} Sq^j for a < 2b, a+b <= 12,
    # on a representative ring; the acceptance suite runs the whole grid
    ring = build_ring(TupleSpec((2, 2), 4), GF(2))
    for b in range(1, 12):
        for a in range(1, min(2 * b, 12 - b + 1)):
            if a >= 2 * b:
                continue
            for m in ring.basis:
                lhs = sq_k_elem(ring, sq_k(ring, m, b), a)
                rhs = {}
                for j in range(0, a // 2 + 1):
                    if binom_mod2(b - 1 - j, a - 2 * j):
                        for m2, c in sq_k_elem(
                            ring, sq_k(ring, m, j), a + b - j
                        ).items():
                            rhs[m2] = (rhs.get(m2, 0) + c) % 2
                rhs = {m2: c for m2, c in rhs.items() if c}
                assert lhs == rhs, (a, b, m)


# ---------------------------------------------------------------------------
# Stiefel-Whitney classes and Spin


def test_stiefel_whitney_examples():
    assert str(stiefel_whitney_total(TupleSpec((1, 1), INFINITY))) == "1"
    assert str(stiefel_whitney_total(TupleSpec((1, 2), INFINITY))) == "1 + z"
    assert str(stiefel_whitney_total(TupleSpec((0, 3), 2))) == "1"
    assert str(stiefel_whitney_total(TupleSpec((2, 2), 7))) == "1"


def test_stiefel_whitney_rp_style():
    # L_(2)(2) = RP^5: tangent bundle has W = (1+z)^3 = 1 + z + z^2 in
    # F_2[z]/(z^3), z the square of the one-dimensional class
    assert str(stiefel_whitney_total(TupleSpec((2,), 2))) == "1 + z + z^2"


def test_wu_formula_ties_squares_products_and_stiefel_whitney():
    # On a closed manifold M^m the Wu class v_k is the one class with
    # Sq^k x = v_k x for every x in H^{m-k}(M; F_2), and w(M) = Sq(v)
    # (Milnor-Stasheff, Characteristic Classes, section 11). total_sq,
    # multiply and stiefel_whitney_total each come from their own closed
    # form, so this ties the three together
    specs = list(grid_specs(ts=(1, 2, 3, 4, 6, 8, 12, INFINITY), nmax=3, rmax=3))
    assert len(specs) == 272
    for spec in specs:
        ring = build_ring(spec, GF(2))
        by_degree = ring.basis_by_degree
        (top,) = by_degree[spec.dim]
        sq_v: set = set()
        for k in range(spec.dim + 1):
            classes = by_degree.get(k, ())
            duals = by_degree.get(spec.dim - k, ())
            wanted = [top in sq_k(ring, x, k) for x in duals]
            (v,) = [  # one solution, by Poincare duality
                v
                for size in range(len(classes) + 1)
                for v in combinations(classes, size)
                if [sum(top in ring.multiply(b, x) for b in v) % 2 == 1 for x in duals] == wanted
            ]
            for b in v:
                sq_v ^= set(total_sq(ring, b))  # a sum over F_2
        w = stiefel_whitney_total(spec)
        assert sq_v == {mono((0, j, 0)) for j in range(w.prec + 1) if w.coeff(j)}, spec


def test_spin_examples():
    assert is_spin(TupleSpec((1, 1), INFINITY)) is True
    assert is_spin(TupleSpec((1, 2), INFINITY)) is False
    assert is_spin(TupleSpec((0, 5), 3)) is True


def test_spin_matches_w2_and_arithmetic_criterion():
    for spec in full_grid_specs():
        w = stiefel_whitney_total(spec)
        assert is_orientable(spec)
        assert is_spin(spec) == (w.coeff(1) == 0)
        # the arithmetic criterion holds whenever the degree-2 class can be
        # nonzero: t even or t = INFINITY
        if not spec.finite or spec.t % 2 == 0:
            arithmetic = spec.n[0] == 0 or (spec.size_sum + spec.r) % 2 == 0
            assert is_spin(spec) == arithmetic, spec


def test_w1_always_vanishes():
    # the SW polynomial lives in even degrees, so w_1 = 0 identically;
    # orientability of the quotient
    for spec in full_grid_specs():
        assert is_orientable(spec)


def test_total_sq_leaves_the_shared_ring_untouched():
    ring = build_ring(TupleSpec((1, 2), 2), GF(2))
    before = dict(vars(ring))
    for m in ring.basis:
        total = total_sq(ring, m)
        total.clear()  # the caller owns the returned dict
        assert total_sq(ring, m)  # Sq^0 is the identity, so never empty
    assert vars(ring) == before


def _f2_rank(vectors) -> int:
    """Rank over F_2 of vectors given as int bitsets."""
    pivots: dict = {}  # leading bit -> reduced vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def test_sq1_rank_counts_the_oracles_z2_summands():
    # Sq^1 is the Bockstein, so its rank on H^d(X; F_2) is the number of Z/2
    # summands of H^{d+1}(X; Z): the invariant factors q of d_{d+1} with
    # nu_2(q) = 1. The factors come from the cell complex alone, so this
    # reads total_sq against the oracle, not against the ring's relations
    nonzero = 0
    for spec in grid_specs():
        ring = build_ring(spec, GF(2))
        _, factors = _cached_factors(spec, DEFAULT_CAP)
        by_degree = ring.basis_by_degree
        index = {m: i for ms in by_degree.values() for i, m in enumerate(ms)}
        for d in range(spec.dim):
            images = [sum(1 << index[m2] for m2 in sq_k(ring, m, 1)) for m in by_degree.get(d, ())]
            rank = _f2_rank(images)
            assert rank == sum(1 for q in factors[d + 1] if nu_p(2, q) == 1), (spec, d)
            nonzero += rank > 0
    assert nonzero
