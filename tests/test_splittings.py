import cmath
import random
import re
from math import comb

import pytest

from lensprod.algebra import GF, GradedAbGroup, INFINITY, QQ, TupleSpec, ZZ
from lensprod import splittings as splittings_module
from lensprod.cohomology import build_ring, field_modes, poincare_polynomial
from lensprod.splittings import (
    cartesian_split,
    clifford_admits,
    clifford_module_dim,
    mu1,
    mu_k,
    stunted_cohomology,
    verify_wedge,
    wedge_decomposition,
)
from lensprod.steenrod import sq_k

from _grid import full_grid_specs, tuples


def test_clifford_table():
    assert [clifford_module_dim(k) for k in range(1, 9)] == [2, 4, 4, 8, 8, 8, 8, 16]
    assert clifford_module_dim(9) == 32
    assert clifford_module_dim(12) == 128


def test_clifford_admits_examples():
    assert clifford_admits(3, 8) is True
    assert clifford_admits(3, 6) is False
    assert clifford_admits(1, 2) is True


def test_cartesian_split_base_zero():
    split = cartesian_split(TupleSpec((0, 2, 5), 7))
    assert split.split_factors == (5, 11)
    assert split.remainder.n == (0,)
    assert all(s.splits for s in split.statuses)


def test_cartesian_split_odd_rule():
    split = cartesian_split(TupleSpec((1, 1, 2), 5))
    assert split.split_factors == (3,)
    assert split.remainder.n == (1, 2)
    assert split.statuses[0].splits and not split.statuses[1].splits


def test_cartesian_split_clifford_and_odd_agree():
    split = cartesian_split(TupleSpec((1, 3), 2))
    assert split.statuses[0].splits
    assert set(split.statuses[0].rules) == {"s3-multiplication", "clifford"}


def test_cartesian_split_unknown():
    split = cartesian_split(TupleSpec((2, 2), 4))
    s = split.statuses[0]
    assert not s.splits and s.reason == "no Z_t-invariant map known"
    assert split.remainder.n == (2, 2)


def test_cartesian_split_consistency_rules():
    # whenever both the t=2 Clifford rule and the n1=1 odd rule could apply,
    # they agree: a_3 = 4 divides 2 n_i + 2 iff n_i is odd
    for ni in range(0, 30):
        assert clifford_admits(3, 2 * ni + 2) == (ni % 2 == 1)


def test_cartesian_split_poincare_shadow():
    # the product of the split factors' polynomials times the remainder's
    # equals the full space's, in every field mode
    from lensprod.algebra import PoincareSeries

    for spec in full_grid_specs():
        split = cartesian_split(spec)
        if not split.split_factors:
            continue
        for dom in field_modes(spec):
            full = poincare_polynomial(build_ring(spec, dom))
            prod = poincare_polynomial(build_ring(split.remainder, dom))
            for d in split.split_factors:
                sphere = [0] * (d + 1)
                sphere[0] = sphere[d] = 1
                prod = prod * PoincareSeries.of(sphere)
            assert full == prod, (spec, dom)


# ---------------------------------------------------------------------------
# mu_1


def test_mu1_examples():
    assert mu1((1, 0), (1, 0)) == (1j, 0)
    assert mu1((0, 1), (0, 1)) == (1, 0)


def _norm(v):
    return sum(abs(x) ** 2 for x in v) ** 0.5


def _rand_pair(rng):
    return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))


def test_mu1_norm_multiplicative():
    rng = random.Random(123)
    for _ in range(1000):
        z, w = _rand_pair(rng), _rand_pair(rng)
        assert abs(_norm(mu1(z, w)) - _norm(z) * _norm(w)) < 1e-12


def test_mu1_unimodular_invariance():
    rng = random.Random(42)
    for _ in range(500):
        z, w = _rand_pair(rng), _rand_pair(rng)
        lam = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        a = mu1(tuple(lam * x for x in z), tuple(lam * x for x in w))
        b = mu1(z, w)
        assert max(abs(p - q) for p, q in zip(a, b)) < 1e-12


def test_mu1_conjugated_form_invariance():
    # g(z, w) = mu1(conj(z), w) satisfies g(lam^{-1} z, lam w) = g(z, w)
    rng = random.Random(7)
    for _ in range(500):
        z, w = _rand_pair(rng), _rand_pair(rng)
        lam = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))

        def g(zz, ww):
            return mu1(tuple(x.conjugate() for x in zz), ww)

        a = g(tuple(x / lam for x in z), tuple(lam * x for x in w))
        b = g(z, w)
        assert max(abs(p - q) for p, q in zip(a, b)) < 1e-12


def test_mu1_invertible_in_second_slot():
    # for |z| = 1 the real-linear map w -> mu1(z, w) preserves norms, so its
    # 4x4 real matrix has determinant of modulus 1
    rng = random.Random(9)
    for _ in range(200):
        z = _rand_pair(rng)
        nz = _norm(z)
        z = tuple(x / nz for x in z)
        basis = [(1, 0), (1j, 0), (0, 1), (0, 1j)]
        cols = [mu1(z, w) for w in basis]
        mat = [
            [cols[j][0].real, cols[j][0].imag, cols[j][1].real, cols[j][1].imag]
            for j in range(4)
        ]
        det = _det4(mat)
        assert abs(abs(det) - 1) < 1e-12


def _det4(m):
    import itertools

    total = 0.0
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1.0
        for i in range(4):
            term *= m[i][perm[i]]
        total += sign * term
    return total


def test_mu_k_blockwise():
    rng = random.Random(31)
    alpha = _rand_pair(rng)
    betas = [_rand_pair(rng) for _ in range(3)]
    out = mu_k(alpha, betas)
    assert out == tuple(mu1(alpha, b) for b in betas)
    norm_in = sum(_norm(b) ** 2 for b in betas) ** 0.5
    norm_out = sum(_norm(v) ** 2 for v in out) ** 0.5
    assert abs(norm_out - _norm(alpha) * norm_in) < 1e-12


# ---------------------------------------------------------------------------
# wedge decomposition and stunted spaces


def test_wedge_decomposition_example():
    summands = wedge_decomposition(TupleSpec((1, 1), INFINITY), 0)
    assert len(summands) == 2
    empty, full = summands
    assert (empty.sigma, empty.shift, empty.top, empty.bottom) == ((), 1, 1, -1)
    assert (full.sigma, full.shift, full.top, full.bottom) == ((2,), 0, 3, 1)


def test_wedge_decomposition_single_factor():
    for n1 in (1, 2):
        for k in (1, 2):
            (s,) = wedge_decomposition(TupleSpec((n1,), 5), k)
            assert (s.shift, s.top, s.bottom) == (1, n1 + k, k - 1)


def test_wedge_decomposition_counts_subsets():
    summands = wedge_decomposition(TupleSpec((1, 1, 1), 2), 0)
    assert len(summands) == 4
    assert [s.sigma for s in summands] == [(), (2,), (2, 3), (3,)]


def test_stunted_examples():
    assert stunted_cohomology(INFINITY, 3, 1, ZZ) == GradedAbGroup.of(
        {4: (1, ()), 6: (1, ())}
    )
    assert stunted_cohomology(2, 2, 0, GF(2)) == GradedAbGroup.of(
        {2: (1, ()), 3: (1, ()), 4: (1, ()), 5: (1, ())}
    )
    # bottom = -1: full reduced cohomology
    assert stunted_cohomology(3, 1, -1, ZZ) == GradedAbGroup.of(
        {2: (0, (3,)), 3: (1, ())}
    )
    assert stunted_cohomology(INFINITY, 2, -1, QQ) == GradedAbGroup.of(
        {2: (1, ()), 4: (1, ())}
    )


def test_stunted_integral_bottom_cell_is_free():
    # RP^5/RP^1: Z in degree 2 (the freed bottom cell), Z_2 in degree 4,
    # Z on top
    assert stunted_cohomology(2, 2, 0, ZZ) == GradedAbGroup.of(
        {2: (1, ()), 4: (0, (2,)), 5: (1, ())}
    )


def _reference_stunted(t, top: int, bottom: int, dom) -> GradedAbGroup:
    """Reduced cohomology of CP_(top)(t) / CP_(bottom)(t) from its cell
    structure, one cell in each degree up to 2 top + 1 (even ones only for
    t = INFINITY): the cellular cochain differentials are 0 and t in turn,
    and the collapse frees the bottom cell's attachment."""
    data: dict[int, tuple[int, tuple[int, ...]]] = {}
    if t == INFINITY:
        for d in range(max(2 * bottom + 2, 2), 2 * top + 1, 2):
            data[d] = (1, ())
        return GradedAbGroup.of(data)
    lo = max(2 * bottom + 2, 1)
    hi = 2 * top + 1
    if dom.kind == "Fp" and t % dom.p == 0:
        # every cochain differential is multiplication by t = 0 in F_p
        for d in range(lo, hi + 1):
            data[d] = (1, ())
    elif dom.is_field:
        # t acts invertibly: only the freed bottom cell and the top survive
        if lo % 2 == 0:
            data[lo] = (1, ())
        data[hi] = (1, ())
    else:
        if lo % 2 == 0:
            data[lo] = (1, ())
        if t > 1:
            for d in range(lo + 2 - (lo % 2), hi, 2):
                data[d] = (0, (t,))
        data[hi] = (1, ())
    return GradedAbGroup.of(data)


def test_stunted_groups_match_the_cell_structure():
    # the base factor's groups above the collapsed skeleton, against the
    # cellular cochains of the stunted space itself
    cases = 0
    for t in (*range(1, 13), INFINITY):
        for dom in (ZZ, QQ, GF(2), GF(3), GF(5)):
            for top in range(7):
                for bottom in range(-1, top):
                    got = stunted_cohomology(t, top, bottom, dom)
                    assert got == _reference_stunted(t, top, bottom, dom), (t, top, bottom, dom)
                    cases += 1
    assert cases == 1820


def test_stunted_reads_a_base_factor_of_its_own_size(monkeypatch):
    # CP_(10^6)(2) / CP_(10^6 - 3)(2) has six cells above the collapse: the
    # base factor of CP_2(2), shifted up, not that of CP_(10^6)(2)
    real, asked = splittings_module.base_factor, []

    def recorded(n1, t, mode):
        asked.append(n1)
        return real(n1, t, mode)

    monkeypatch.setattr(splittings_module, "base_factor", recorded)
    top = 10**6
    got = stunted_cohomology(2, top, top - 3, GF(2))
    assert asked == [2]
    assert got == GradedAbGroup.of({d: (1, ()) for d in range(2 * top - 4, 2 * top + 2)})


def test_stunted_rejects_malformed_range():
    with pytest.raises(ValueError):
        stunted_cohomology(2, 2, 2, ZZ)
    with pytest.raises(ValueError):
        stunted_cohomology(2, 2, -2, ZZ)


def test_stunted_refuses_t_as_a_spec_does():
    for t, dom in ((2.5, ZZ), (0, GF(2)), (-3, QQ), (True, ZZ)):
        with pytest.raises(ValueError, match=re.escape(f"t must be a positive integer or INFINITY, got {t}")):
            stunted_cohomology(t, 3, 0, dom)


def test_verify_wedge_worked_example():
    check = verify_wedge(TupleSpec((1, 1), INFINITY), 0, QQ)
    assert check.ok
    assert check.lhs == ((3, 1), (4, 1), (6, 1))
    assert check.rhs == ((3, 1), (4, 1), (6, 1))


def test_verify_wedge_thom_case():
    assert verify_wedge(TupleSpec((1, 1, 2), 2), 1, GF(2)).ok


def test_verify_wedge_single_summand_trivial():
    for t in (2, INFINITY):
        for k in (0, 1, 2):
            assert verify_wedge(TupleSpec((2,), t), k, QQ).ok


def test_verify_wedge_rejects_integral():
    with pytest.raises(ValueError):
        verify_wedge(TupleSpec((1,), 2), 0, ZZ)


def test_verify_wedge_grid():
    for spec in full_grid_specs():
        if spec.finite and spec.t not in (2, 3, 4):
            continue
        for k in (0, 1, 2):
            for dom in field_modes(spec):
                assert verify_wedge(spec, k, dom).ok, (spec, k, dom)


# ---------------------------------------------------------------------------
# the splitting as modules over the Steenrod algebra

F2 = GF(2)


def _f2_rank(vectors) -> int:
    """Rank over F_2 of vectors given as int bitmasks."""
    pivots: dict = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _stunted_sq(t, e: int, k: int) -> int:
    """Sq^k on the degree-e class of a mod-2 stunted CP_m(t) with t = INFINITY
    or t even, from the textbook formulas: Sq^{2j} z^a = C(a, j) z^{a+j} and
    odd squares zero for t = INFINITY and for 4 | t (where Sq^{2j} acts on
    y z^a as on z^a); for t = 2 mod 4 the classes are u^e, as on RP^{2m+1},
    with Sq^k u^e = C(e, k) u^{e+k}."""
    if t == INFINITY or t % 4 == 0:
        return 0 if k % 2 else comb(e // 2, k // 2) % 2
    return comb(e, k) % 2


def _space_sq_ranks(spec: TupleSpec) -> dict:
    """{(k, d): rank of Sq^k: H~^d -> H~^{d+k}} over F_2, k >= 1, nonzero
    ranks only, from the steenrod module."""
    ring = build_ring(spec, F2)
    by_degree = ring.basis_by_degree
    out = {}
    for d, sources in by_degree.items():
        for k in range(1, spec.dim - d + 1):
            row = {m: i for i, m in enumerate(by_degree.get(d + k, ()))}
            rank = _f2_rank(sum(1 << row[m2] for m2 in sq_k(ring, m, k)) for m in sources)
            if d and rank:
                out[k, d] = rank
    return out


def _wedge_sq_ranks(spec: TupleSpec) -> dict:
    """The same ranks summed over the wedge summands of the suspension, each
    summand's degree e read as the space's degree e + shift - 1."""
    out: dict = {}
    for s in wedge_decomposition(spec):
        degrees = set(stunted_cohomology(s.t, s.top, s.bottom, F2).as_dict())
        for e in degrees:
            for k in range(1, max(degrees) - e + 1):
                if e + k in degrees and _stunted_sq(s.t, e, k):
                    key = (k, e + s.shift - 1)
                    out[key] = out.get(key, 0) + 1
    return out


def test_wedge_splitting_is_one_of_steenrod_modules():
    # a stable homotopy equivalence is an isomorphism of modules over the
    # Steenrod algebra, so every Sq^k has the same rank on both sides
    for t in (INFINITY, 2, 4, 6, 8, 12):
        for tup in tuples(nmax=3, rmax=3):
            spec = TupleSpec(tup, t)
            assert _space_sq_ranks(spec) == _wedge_sq_ranks(spec), spec
