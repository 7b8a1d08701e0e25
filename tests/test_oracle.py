import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from lensprod.algebra import GF, GradedAbGroup, QQ, TupleSpec, ZZ
from lensprod.cohomology import base_factor, build_ring, graded_groups, resolve_mode
from lensprod import cohomology as cohomology_module, oracle as oracle_module
from lensprod.oracle import (
    DEFAULT_CAP,
    ENTRIES_PER_CELL,
    ComparisonReport,
    EquivariantComplex,
    MemoryCapError,
    QuotientComplex,
    _cached_factors,
    _check_step,
    _fold,
    _homology_groups,
    _sphere_factor,
    _step,
    boundary_factors,
    cohomology_from_homology,
    compare_with_theory,
    homology,
    product_quotient_complex,
    sphere_complex,
)

import _snf
from _grid import betti, grid_specs
from _snf import WholeComplex, _dense_snf, smith_normal_form


def test_sphere_complex_structure():
    cx = sphere_complex(1, 3)
    assert tuple(map(len, _sphere_factor(cx.diffs))) == (1, 1, 1, 1)
    assert cx.diffs[1] == (-1, 1, 0)  # lambda - 1
    assert cx.diffs[2] == (1, 1, 1)  # norm element
    assert cx.diffs[3] == (-1, 1, 0)
    cx.check_dd_zero()


def test_sphere_complex_circle():
    cx = sphere_complex(0, 5)
    assert tuple(map(len, _sphere_factor(cx.diffs))) == (1, 1)
    assert cx.diffs[1] == (-1, 1, 0, 0, 0)


def test_sphere_complex_refuses_a_bool_t():
    # True is an int, but no t; TupleSpec refuses it the same way
    with pytest.raises(ValueError, match="got True"):
        sphere_complex(1, True)


def test_sphere_complex_dd_zero_grid():
    for n in range(0, 3):
        for t in (1, 2, 3, 4, 6):
            sphere_complex(n, t).check_dd_zero()


@pytest.mark.parametrize("t", [2, 3, 6])
def test_sphere_check_refuses_a_wrong_boundary(t):
    # N - g^(t-1) in place of the norm element: d_1 d_2 = g^(t-1) - 1 != 0
    diffs = list(sphere_complex(1, t).diffs)
    diffs[2] = (1,) * (t - 1) + (0,)
    with pytest.raises(AssertionError, match="at degree 2 of"):
        EquivariantComplex(t, 3, tuple(diffs)).check_dd_zero()


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    assert smith_normal_form([[3]]) == (3,)


def test_smith_normal_form_chain_property():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        factors = smith_normal_form(mat)
        assert all(factors[i] != 0 for i in range(len(factors)))
        assert all(
            factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)
        )
        # rank agrees with a fraction-free elimination
        from fractions import Fraction

        rows = [[Fraction(v) for v in row] for row in mat]
        rank = 0
        for col in range(n):
            piv = next((i for i in range(rank, m) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(m):
                if i != rank and rows[i][col]:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        assert len(factors) == rank


def test_smith_normal_form_matches_determinant_divisors():
    # independent oracle: d_1 * ... * d_k equals the gcd of all k x k minors
    from itertools import combinations

    def minor_gcd(mat, k):
        m, n = len(mat), len(mat[0])
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _det([[mat[i][j] for j in cols] for i in rows]))
        return g

    def _det(sq):
        if len(sq) == 1:
            return sq[0][0]
        total = 0
        for j, v in enumerate(sq[0]):
            if v:
                sub = [row[:j] + row[j + 1 :] for row in sq[1:]]
                total += (-1) ** j * v * _det(sub)
        return total

    def check(mat):
        factors = smith_normal_form(mat)
        prod = 1
        for k, d in enumerate(factors, start=1):
            prod *= d
            assert prod == minor_gcd(mat, k), (mat, factors)
        if len(factors) < min(len(mat), len(mat[0])):
            assert minor_gcd(mat, len(factors) + 1) == 0

    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        check([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
    # no +-1 entry, so the unit sweep leaves all to the dense SNF's Euclid
    # steps and its gcd/lcm pass
    no_units = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        check([[rng.choice(no_units) for _ in range(n)] for _ in range(m)])
    check([[rng.choice(no_units) for _ in range(5)] for _ in range(5)])


def test_quotient_complex_lens_space():
    q = _reference_complex(TupleSpec((1,), 3))
    assert q.ranks == (1, 1, 1, 1)
    assert _entries(q.boundaries[1]) == {}
    assert _entries(q.boundaries[2]) == {(0, 0): 3}
    assert _entries(q.boundaries[3]) == {}
    assert _snf.homology(q, ZZ).groups == GradedAbGroup.of(
        {0: (1, ()), 1: (0, (3,)), 3: (1, ())}
    )
    # for r = 1 the oracle's complex is the lens space's own
    assert product_quotient_complex(q.spec).boundaries[1:] == q.boundaries[1:]


def test_quotient_complex_torus():
    q = _reference_complex(TupleSpec((0, 0), 2))
    assert sum(q.ranks) == 8
    assert _snf.homology(q, ZZ).groups == GradedAbGroup.of(
        {0: (1, ()), 1: (2, ()), 2: (1, ())}
    )


def test_quotient_complex_three_torus():
    q = _reference_complex(TupleSpec((0, 0, 0), 4))
    assert _snf.homology(q, ZZ).groups == GradedAbGroup.of(
        {0: (1, ()), 1: (3, ()), 2: (3, ()), 3: (1, ())}
    )


def test_homology_f2_betti():
    q = _reference_complex(TupleSpec((1, 1), 2))
    assert betti(_snf.homology(q, GF(2)).groups) == (1, 1, 1, 2, 1, 1, 1)


def test_homology_rational():
    q = _reference_complex(TupleSpec((1, 1), 3))
    assert betti(_snf.homology(q, QQ).groups) == (1, 0, 0, 2, 0, 0, 1)


def test_memory_cap():
    with pytest.raises(MemoryCapError):
        product_quotient_complex(TupleSpec((2, 2, 2), 6), cap=100)


def test_entry_cap_refuses_before_building(monkeypatch, cold_folds):
    # (1,1;t) has 16 t cells and 8 t (t + 4) boundary entries: t = 3125 fits
    # the default cell cap exactly, with 78,225,000 entries
    def unbuilt(n, t):
        raise AssertionError("sphere complexes built")

    monkeypatch.setattr(oracle_module, "sphere_complex", unbuilt)
    for t in (249, 3125):
        with pytest.raises(MemoryCapError, match="entries"):
            product_quotient_complex(TupleSpec((1, 1), t))
    with pytest.raises(AssertionError, match="built"):  # 499,968 entries
        product_quotient_complex(TupleSpec((1, 1), 248))


def test_entry_cap_counts_the_built_entries():
    # the cap bounds the whole quotient complex, the reference builder's
    for spec in (TupleSpec((1, 1), 40), TupleSpec((1, 2), 20)):
        cx = _reference_complex(spec)
        entries = sum(len(col) for cols in cx.boundaries[1:] for col in cols)
        cells = sum(cx.ranks)
        assert entries > ENTRIES_PER_CELL * cells
        with pytest.raises(MemoryCapError, match=f"have {entries} entries"):
            product_quotient_complex(spec, cap=cells)


def test_no_oracle_for_infinite_t():
    from lensprod.algebra import INFINITY

    with pytest.raises(ValueError):
        product_quotient_complex(TupleSpec((1,), INFINITY))


def test_compare_examples():
    assert compare_with_theory(TupleSpec((1,), 3), ZZ).ok
    assert compare_with_theory(TupleSpec((1, 2), 4), GF(2)).ok
    rep = compare_with_theory(TupleSpec((2, 2), 3), ZZ)
    assert rep.ok
    # torsion placement: Z_3 classes sit in even degrees 2, 4 times the
    # exterior degrees
    assert rep.degrees[2][1] == (0, (3,))


def _public_rows(cx: QuotientComplex, dom) -> tuple:
    """The comparison's rows from the public whole-complex path, as the
    benchmark's traced pass makes them: the normalized groups of
    `cohomology_from_homology` and `graded_groups`, read degree by degree."""
    spec = cx.spec
    oracle_side = cohomology_from_homology(homology(cx, dom), spec.dim).normalized()
    theory_side = graded_groups(build_ring(spec, dom)).normalized()
    rows = []
    for d in range(spec.dim + 1):
        th = (theory_side.free_rank(d), theory_side.torsion(d))
        orc = (oracle_side.free_rank(d), oracle_side.torsion(d))
        rows.append((d, th, orc, th == orc))
    return tuple(rows)


def test_comparison_rows_match_the_public_path():
    for spec in list(grid_specs(nmax=1)) + [TupleSpec((1,) * 5, 2), TupleSpec((1, 1), 240)]:
        cx = product_quotient_complex(spec)
        for dom in (ZZ, GF(2), GF(3)):
            assert compare_with_theory(spec, dom).degrees == _public_rows(cx, dom), (spec, dom)


def test_comparison_reads_the_theory_side(monkeypatch):
    # z (degree 2) of Z/9 for Z/3 moves the torsion of z and z x2, 2 + 5 = 7
    real = cohomology_module.base_factor

    def wrong(n1, t, mode):
        factor = real(n1, t, mode)
        return factor._replace(torsion={**factor.torsion, (0, 1, 0): 9})

    monkeypatch.setattr(cohomology_module, "base_factor", wrong)
    rep = compare_with_theory(TupleSpec((1, 2), 3), ZZ)
    assert rep.mismatches() == (2, 7)
    assert rep.degrees[7][1:3] == ((0, (9,)), (0, (3,)))


def test_comparison_reads_the_oracle_side(monkeypatch):
    # a factor 6 of d_2 made 12: H^2 = Z/6 turns Z/12, and both have the
    # same rank mod 2 and mod 3
    real = oracle_module._cached_factors
    real.cache_clear()
    _fold.cache_clear()

    def doubled(spec, cap):
        cells, factors = real(spec, cap)
        assert factors[2][-1] == 6
        return cells, factors[:2] + (factors[2][:-1] + (12,),) + factors[3:]

    monkeypatch.setattr(oracle_module, "_cached_factors", doubled)
    spec = TupleSpec((1, 1), 6)
    rep = compare_with_theory(spec, ZZ)
    assert rep.mismatches() == (2,)
    assert rep.degrees[2][1:3] == ((0, (6,)), (0, (12,)))
    assert compare_with_theory(spec, GF(2)).ok and compare_with_theory(spec, GF(3)).ok


def test_connected_closed_orientable_ends():
    for spec in grid_specs(ts=(2, 3)):
        q = product_quotient_complex(spec)
        h = homology(q, ZZ).groups
        assert (h.free_rank(0), h.torsion(0)) == (1, ())
        assert (h.free_rank(spec.dim), h.torsion(spec.dim)) == (1, ())


def test_oracle_mod_p_betti_palindromic():
    for spec in grid_specs(ts=(2, 4)):
        q = product_quotient_complex(spec)
        ranks = betti(homology(q, GF(2)).groups)
        assert ranks == tuple(reversed(ranks))


def _entries(boundary) -> dict:
    """A column-major boundary as a sparse {(row, col): v} matrix."""
    return {(i, j): v for j, col in enumerate(boundary) for i, v in col.items()}


def _rank_mod_p_dense(entries: dict, p: int) -> int:
    """Rank over F_p of a sparse {(i, j): v} matrix by dense Gaussian
    elimination, independent of the SNF."""
    if not entries:
        return 0
    m = 1 + max(i for i, _ in entries)
    n = 1 + max(j for _, j in entries)
    rows = [[0] * n for _ in range(m)]
    for (i, j), v in entries.items():
        rows[i][j] = v % p
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "n, t, p",
    [((1, 1), 4, 2), ((1, 2), 6, 2), ((1, 2), 6, 3), ((2, 2), 3, 3), ((1, 1), 9, 3), ((1, 1), 3, 2)],
)
def test_mod_p_betti_match_dense_elimination(n, t, p):
    q = _reference_complex(TupleSpec(n, t))
    ranks = [0] + [_rank_mod_p_dense(_entries(b), p) for b in q.boundaries[1:]] + [0]
    expected = tuple(q.ranks[d] - ranks[d] - ranks[d + 1] for d in range(q.dim + 1))
    assert betti(_snf.homology(q, GF(p)).groups) == expected
    factors = [f for fs in _snf.boundary_factors(q) for f in fs]
    if t % p:
        # p is a unit on every factor: mod-p and rational Betti numbers agree
        assert all(f % p for f in factors)
        assert expected == betti(_snf.homology(q, QQ).groups)
    else:
        # both kinds of factor occur, so the count of p-prime ones is exercised
        assert any(f % p == 0 for f in factors) and any(f % p for f in factors)
        assert expected != betti(_snf.homology(q, QQ).groups)


def test_comparison_report_lists_every_mismatch():
    spec = TupleSpec((1,), 3)
    rows = (
        (0, (1, ()), (1, ()), True),
        (1, (0, ()), (0, ()), True),
        (2, (0, (3,)), (0, ()), False),
        (3, (1, ()), (0, ()), False),
    )
    rep = ComparisonReport(spec, ZZ, False, rows)
    assert rep.mismatches() == (2, 3)
    assert str(rep).endswith("MISMATCH at degrees 2, 3")
    one = ComparisonReport(spec, ZZ, False, rows[:3] + ((3, (1, ()), (1, ()), True),))
    assert str(one).endswith("MISMATCH at degree 2")
    good = ComparisonReport(spec, ZZ, True, rows[:2])
    assert good.mismatches() == ()
    assert str(good).endswith(": match")


# mostly zero, and mostly +-1 where nonzero, like the oracle's boundaries
_SPARSE_ENTRY = st.sampled_from((0,) * 8 + (1, -1) * 3 + (2, -2, 3, 4, -6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_sweep_matches_dense_snf(data):
    m = data.draw(st.integers(1, 12), label="rows")
    n = data.draw(st.integers(1, 12), label="cols")
    row = st.lists(_SPARSE_ENTRY, min_size=n, max_size=n)
    mat = data.draw(st.lists(row, min_size=m, max_size=m), label="matrix")
    assert smith_normal_form(mat) == _dense_snf([list(r) for r in mat])


def _negate_a_term(terms: list, t: int, chosen=lambda d, i: True) -> int:
    """Negate one term of some d_d, d >= 2, of a step's c = 0 columns, in the
    column of a pair i that chosen(d, i) accepts, at a row whose own boundary
    is nonzero, so that d o d over Z[Z_t] no longer vanishes. Returns d."""
    for d in range(2, len(terms)):
        for i, col in enumerate(terms[d]):
            for m, (face, h, k, v) in enumerate(col):
                if chosen(d, i) and terms[d - 1][face // t]:
                    col[m] = (face, h, k, -v)
                    return d
    raise AssertionError("no term to corrupt")


def test_dd_check_trips_on_a_negated_entry():
    # the fold's step checks d o d over Z[Z_t] on every pair's c = 0 column
    spec = TupleSpec((1, 1), 3)
    _, terms = _step(_fold((1,), 3), _fold((1,), 3), 3)
    _check_step(spec, terms, 3)
    d = _negate_a_term(terms, 3)
    with pytest.raises(AssertionError, match=f"degree {d}"):
        _check_step(spec, terms, 3)


def test_dd_check_trips_on_a_negated_entry_at_a_nonzero_twist():
    # the same corruption in the column of a pair whose generator of the
    # prefix (1,1;3) is the critical cell x (x) g^2 e_3 of its fold, not one
    # at twist 0: the step checks every pair, so it must reach it
    spec, t, top = TupleSpec((1, 1, 1), 3), 3, 3
    # the fold's x-th generator of degree e is the x-th critical pair of
    # degree e of the step that made it, at twist t - 1 when j is top
    made, _ = _step(_fold((1,), t), _fold((1,), t), t)
    twisted = [[j == top for _, _, j in row if j in (0, top)] for row in made]
    pairs, terms = _step(_fold((1, 1), t), _fold((1,), t), t)
    _check_step(spec, terms, t)
    d = _negate_a_term(terms, t, lambda d, i: twisted[pairs[d][i][0]][pairs[d][i][1]])
    with pytest.raises(AssertionError, match=f"degree {d}"):
        _check_step(spec, terms, t)


@pytest.fixture
def cold_folds():
    """An empty prefix memo before and after the test, so the comparison
    runs the patched steps and no fold they made outlives the test."""
    _fold.cache_clear()
    yield
    _fold.cache_clear()


@pytest.mark.parametrize("n", [(1, 1), (1, 1, 1)], ids=["r2", "r3"])
def test_build_refuses_a_non_complex_before_making_its_columns(monkeypatch, cold_folds, n):
    # Corrupt the last step: the comparison's factors must refuse at the
    # corrupted degree before any quotient column is made
    spec = TupleSpec(n, 3)
    step, reduce, quotient = oracle_module._step, oracle_module._reduce, oracle_module._quotient
    steps, corrupted, made, reduced = [], [], [], []

    def corrupting(first, sphere, t):
        pairs, terms = step(first, sphere, t)
        steps.append(terms)
        if len(steps) == spec.r - 1:
            corrupted.append(_negate_a_term(terms, t))
        return pairs, terms

    def recorded_quotient(fold, t):
        made.append(fold)
        return quotient(fold, t)

    def recorded_reduce(pairs, terms, *args):
        reduced.append(terms)
        return reduce(pairs, terms, *args)

    monkeypatch.setattr(oracle_module, "_step", corrupting)
    monkeypatch.setattr(oracle_module, "_quotient", recorded_quotient)
    monkeypatch.setattr(oracle_module, "_reduce", recorded_reduce)
    with pytest.raises(AssertionError) as raised:
        _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    assert f"d o d != 0 over Z[Z_t] at degree {corrupted[0]} of" in str(raised.value)
    assert len(steps) == spec.r - 1 and not made
    # the comparison reduces every step before the corrupted one, and never that one
    assert [id(terms) for terms in reduced] == [id(terms) for terms in steps[:-1]]


@pytest.mark.parametrize("where", ["stored-twist-0", "stored-twisted", "full-twist-0"])
def test_stream_checks_each_degree_before_its_snf(monkeypatch, cold_folds, where):
    # [full-twist-0]: (1,1,1;3) runs one Z[Z_t] tensor step before the last.
    # Corrupt it: the factors must refuse at the corrupted degree before that
    # step is reduced, and read no factor.
    # [stored-*]: the last step of (1,1;3) is tensored onto the first sphere,
    # that of (1,1,1;3) onto the reduced Z[Z_3] complex of the first two,
    # whose entries carry powers of g; every step is reduced over Z[Z_3].
    # The diagonal read receives the very columns the quotient of the last
    # fold made, uncopied and whole, leaves them as they were, and its
    # factors give the whole complex's homology
    spec = TupleSpec((1, 1) if where == "stored-twist-0" else (1, 1, 1), 3)
    if where != "full-twist-0":
        cx = _reference_complex(spec)
        whole = (cx.ranks, _snf.boundary_factors(cx))
    step, reduce, read = oracle_module._step, oracle_module._reduce, oracle_module.boundary_factors
    quotient = oracle_module._quotient
    steps, made, quotients, copies, reduced, corrupted = [], [], [], [], [], []

    def corrupting(first, sphere, t):
        pairs, terms = step(first, sphere, t)
        steps.append(sphere)
        if len(steps) == 1:
            corrupted.append(_negate_a_term(terms, t))
        return pairs, terms

    def recorded_reduce(*args):
        made.append(reduce(*args))
        return made[-1]

    def recorded_quotient(fold, t):
        quotients.append(quotient(fold, t))
        copies.append([[dict(col) for col in row] for row in quotients[-1]])
        return quotients[-1]

    def recorded_read(cx):
        factors = read(cx)
        reduced.append((cx, [[dict(col) for col in row] for row in cx.boundaries]))
        return factors

    monkeypatch.setattr(oracle_module, "_reduce", recorded_reduce)
    monkeypatch.setattr(oracle_module, "_quotient", recorded_quotient)
    monkeypatch.setattr(oracle_module, "boundary_factors", recorded_read)
    if where == "full-twist-0":
        monkeypatch.setattr(oracle_module, "_step", corrupting)
        with pytest.raises(AssertionError) as raised:
            _cached_factors.__wrapped__(spec, DEFAULT_CAP)
        assert f"d o d != 0 over Z[Z_t] at degree {corrupted[0]} of" in str(raised.value)
        assert len(steps) == 1 and not made and not quotients and not reduced
    else:
        cached = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
        for dom in (ZZ, GF(2), GF(3)):
            assert _homology_groups(*cached, dom) == _homology_groups(*whole, dom)
        assert len(made) == spec.r - 1 and len(quotients) == 1 and len(reduced) == 1
        (read_cx, received), = reduced
        assert received == copies[-1]
        assert [id(col) for row in read_cx.boundaries for col in row] == [
            id(col) for row in quotients[-1] for col in row
        ]


def test_elimination_shrinks_the_complex_before_the_quotient(monkeypatch, cold_folds):
    # (2,2,2;6): S_1 (x) S_2 has 216 free Z[Z_6] generators, and S_2's
    # matching leaves 12; the last step has 432, and S_3's matching, also
    # over Z[Z_6], leaves 24, whose quotient has 24 cells, of which the one
    # in degree 0 has no boundary, in place of 7,776
    spec = TupleSpec((2, 2, 2), 6)
    reduce, quotient, read = oracle_module._reduce, oracle_module._quotient, oracle_module.boundary_factors
    sizes, quotients, reduced = [], [], []

    def recorded_reduce(pairs, terms, t, top):
        cols = reduce(pairs, terms, t, top)
        sizes.append((sum(map(len, pairs)) * t, sum(map(len, cols)), t))
        return cols

    def recorded_quotient(fold, t):
        cols = quotient(fold, t)
        quotients.append(sum(map(len, cols)))
        return cols

    def recorded_read(cx):
        reduced.append(sum(map(len, cx.boundaries[1:])))
        return read(cx)

    monkeypatch.setattr(oracle_module, "_reduce", recorded_reduce)
    monkeypatch.setattr(oracle_module, "_quotient", recorded_quotient)
    monkeypatch.setattr(oracle_module, "boundary_factors", recorded_read)
    cells, _ = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    assert sum(cells) == 24 and _cells(spec) == 7776
    assert sizes == [(216, 12, 6), (432, 24, 6)]
    assert quotients == [24]
    assert cells[0] == 1 and sum(reduced) + 1 == 24


def test_reduced_quotient_has_the_closed_form_count():
    # each step's matching leaves two critical cells per fibre, so the
    # quotient whose factors are read has 2^(r-1) (2 n_1 + 2) cells at any
    # t: 24 for (2,2,2;6), 48 for (2,2,2,2;3), 256 for (1^7;3), whose whole
    # complex of 11.9 M cells is far above the default cap
    specs = [spec for spec in grid_specs(ts=(1, 2, 3, 4, 6)) if spec.r >= 2]
    for spec in specs + [TupleSpec((1,) * 7, 3)]:
        cells, _ = _cached_factors.__wrapped__(spec, 10**12)
        assert sum(cells) == 2 ** (spec.r - 1) * (2 * spec.n[0] + 2), spec


def _mutant_reduce(old: str, new: str):
    """`_reduce` with one piece of its source replaced, run in the oracle
    module's namespace."""
    source = inspect.getsource(oracle_module._reduce)
    assert source.count(old) == 1
    namespace = dict(vars(oracle_module))
    exec(source.replace(old, new), namespace)
    return namespace["_reduce"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("-u * w", "u * w"),  # the pivot's sign flipped
        ("[(c, c - 1) for c in range(1, t)]", "[(c, c) for c in range(1, t)]"),  # g^c e_j with g^c e_(j-1)
    ],
    ids=["sign", "twist"],
)
def test_a_wrong_reduction_is_caught(monkeypatch, cold_folds, old, new):
    # every step is reduced over Z[Z_3], so the reduced complex of the
    # prefix (1,1;3) fails `_check_ring` at degree 2, both as a spec of its
    # own and as the first step of (1,1,1;3), before any quotient is taken
    monkeypatch.setattr(oracle_module, "_reduce", _mutant_reduce(old, new))
    for n in ((1, 1), (1, 1, 1)):
        with pytest.raises(AssertionError, match="d o d != 0 over Z\\[Z_t\\] at degree 2 of"):
            _cached_factors.__wrapped__(TupleSpec(n, 3), DEFAULT_CAP)


def test_quotient_check_refuses_a_negated_entry(monkeypatch):
    # the quotient's d o d over Z is checked before any factor is read.
    # Every composite of the reduced quotient's boundaries vanishes term by
    # term, so no negated entry there can trip it: hand it the unreduced
    # quotient, the reference builder's, in the quotient step's place, once
    # as it is, which passes the check, is refused by the diagonal read, and
    # with the reference SNF in the read's place gives the whole complex's
    # factors; and once with one entry negated
    spec = TupleSpec((1, 1), 3)
    cx = _reference_complex(spec)
    whole = (cx.ranks, _snf.boundary_factors(cx))

    def unreduced(*_):
        return [[{} for _ in cx.basis[0]]] + [[dict(col) for col in b] for b in cx.boundaries[1:]]

    def recorded_snf(q):
        reduced.append(q)
        return _snf.boundary_factors(q)

    monkeypatch.setattr(oracle_module, "_quotient", unreduced)
    with pytest.raises(AssertionError, match="is not diagonal"):
        _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    monkeypatch.setattr(oracle_module, "boundary_factors", recorded_snf)
    reduced: list = []
    assert _cached_factors.__wrapped__(spec, DEFAULT_CAP) == whole
    cols = unreduced(None)
    d, j, row = next(
        (d, j, row) for d in range(2, len(cols)) for j, col in enumerate(cols[d]) for row in col if cols[d - 1][row]
    )

    def negated(*_):
        cols = unreduced()
        cols[d][j][row] = -cols[d][j][row]
        return cols

    monkeypatch.setattr(oracle_module, "_quotient", negated)
    reduced.clear()
    with pytest.raises(AssertionError, match=f"d o d != 0 over Z at degree {d} of"):
        _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    assert not reduced


def _with_column(cx: QuotientComplex, d: int, j: int, col: dict) -> QuotientComplex:
    """cx with the j-th column of degree d replaced by col."""
    row = cx.boundaries[d]
    return cx._replace(boundaries=cx.boundaries[:d] + (row[:j] + (col,) + row[j + 1 :],) + cx.boundaries[d + 1 :])


@pytest.mark.parametrize("j, col", [(0, {0: 3, 1: 3}), (1, {0: 3})], ids=["two-in-a-column", "shared-row"])
def test_diagonal_read_refuses_a_non_diagonal_degree(j, col):
    # d_4 and d_6 of (1,1,1;3)'s quotient vanish, so any d_5 makes a chain
    # complex: only the shape of d_5 = diag(3, 3) is wrong, a second entry in
    # one column or a row that two columns share
    cx = product_quotient_complex(TupleSpec((1, 1, 1), 3))
    assert cx.boundaries[5] == ({0: 3}, {1: 3}) and boundary_factors(cx)[5] == (3, 3)
    with pytest.raises(AssertionError, match=r"the boundary out of degree 5 of .* is not diagonal"):
        boundary_factors(_with_column(cx, 5, j, col))


@pytest.mark.parametrize("n, t", [((2, 2, 2), 6), ((2, 2, 2, 2), 3)])
def test_streamed_factors_peak_below_the_whole_complex(n, t):
    # the comparison never builds the whole complex: it reduces each step by
    # the sphere's Morse matching over Z[Z_t], takes the quotient of the
    # last, and reads the small quotient's factors off its diagonal. Its
    # traced peak is about 0.016 and 0.003 of the whole complex's size here
    # (0.09 and 0.02 with Gaussian elimination over Z[Z_t] and the last
    # step's quotient built, 0.21 when the whole quotient was streamed,
    # about 0.32 when full boundaries were copied into the reduction, about
    # 1.2 when every boundary was held). The whole complex is the reference
    # builder's, its size the bytes of its distinct objects, within 7% of
    # its traced size on both specs and quicker to take
    spec = TupleSpec(n, t)
    size = _deep_size(_reference_complex(spec))
    _cached_factors.cache_clear()
    _fold.cache_clear()
    tracemalloc.start()
    try:
        _cached_factors(spec, DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.27 * size, (peak, size)


def _deep_size(obj) -> int:
    """sys.getsizeof summed over the distinct objects reachable from obj
    through tuples, lists and dicts."""
    seen, stack, total = set(), [obj], 0
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            total += sys.getsizeof(x)
            if isinstance(x, dict):
                stack += [*x.keys(), *x.values()]
            elif isinstance(x, (tuple, list)):
                stack += x
    return total


def _lru_sizes() -> dict:
    return {
        (name, attr): value.cache_info().currsize
        for name, module in list(sys.modules.items())
        if name.startswith("lensprod")
        for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None))
    }


def test_compare_with_theory_keeps_only_the_factors():
    # a comparison caches its complex's factors and the folds of its
    # prefixes and its spheres, here (1), (1,2) and (2), and nothing else:
    # no ring, no cohomology groups
    spec, dom = TupleSpec((1, 2), 5), GF(3)
    _cached_factors.cache_clear()
    _fold.cache_clear()
    base_factor(spec.n[0], spec.t, resolve_mode(spec, dom))  # shared with the calculator
    before = _lru_sizes()
    assert compare_with_theory(spec, dom).ok
    after = _lru_sizes()
    grown = {key: after[key] - before.get(key, 0) for key in after if after[key] != before.get(key)}
    assert grown == {("lensprod.oracle", "_cached_factors"): 1, ("lensprod.oracle", "_fold"): 3}


def _cells(spec: TupleSpec) -> int:
    return spec.t ** (spec.r - 1) * prod(2 * ni + 2 for ni in spec.n)


# r <= 4, n_i <= 2 and t <= 7, at most 8000 cells to keep the draws quick
oracle_specs = st.builds(
    lambda n, t: TupleSpec(tuple(sorted(n)), t),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.integers(1, 7),
).filter(lambda spec: _cells(spec) <= 8000)


@settings(max_examples=40, deadline=None)
@given(spec=oracle_specs)
@example(spec=TupleSpec((1, 1), 150))
@example(spec=TupleSpec((0, 0), 12500))
def test_in_place_factors_match_the_copying_path(spec):
    # _cached_factors reduces each step by the sphere's matching over
    # Z[Z_t] and takes the quotient of the last, which leaves
    # 2^(r-1) (2 n_1 + 2) cells with the
    # whole complex's homology over Z, F2 and F3, and is the whole complex
    # for r = 1. The whole complex is the reference builder's, a chain
    # complex, whose factors the reference SNF reads from a copy of its
    # boundaries; it and smith_normal_form leave their input as it was
    cx = _reference_complex(spec)
    if spec.t <= 7:  # the drawn specs: the examples' long norm columns make d o d slow
        _assert_dd_zero(cx.boundaries)
    kept = [[dict(col) for col in b] for b in cx.boundaries[1:]]
    cached = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    whole = _snf.boundary_factors(cx)
    for dom in (ZZ, GF(2), GF(3)):
        assert _homology_groups(*cached, dom) == _homology_groups(cx.ranks, whole, dom)
    if spec.r == 1:
        assert cached == (cx.ranks, whole)
    else:
        assert sum(cached[0]) == 2 ** (spec.r - 1) * (2 * spec.n[0] + 2)
    assert [list(b) for b in cx.boundaries[1:]] == kept
    rows, cols = cx.ranks[0], cx.ranks[1]
    if rows * cols <= 100_000:
        matrix = [[cx.boundaries[1][j].get(i, 0) for j in range(cols)] for i in range(rows)]
        copy = [row[:] for row in matrix]
        assert smith_normal_form(matrix) == _snf.boundary_factors(cx)[1]
        assert matrix == copy


def _reference_complex(spec: TupleSpec, cap: int = DEFAULT_CAP) -> WholeComplex:
    """A tuple-indexed builder, independent of the tensor steps: every entry
    is found by building its row's (cells, twists) tuple and looking it up."""
    t, r = spec.t, spec.r
    total = t ** (r - 1)
    for ni in spec.n:
        total *= 2 * ni + 2
    if total > cap:
        raise MemoryCapError(f"quotient basis has {total} cells, above the cap {cap}")

    def sphere_terms(j):
        if j % 2 == 1:
            return () if t == 1 else ((-1, 0), (1, 1))
        return tuple((1, c) for c in range(t))

    basis: list[list] = [[] for _ in range(spec.dim + 1)]
    for cells in itertools.product(*(range(2 * ni + 2) for ni in spec.n)):
        for twists in itertools.product(range(t), repeat=r - 1):
            basis[sum(cells)].append((cells, twists))
    for rows in basis:
        rows.sort()
    index = [{cell: i for i, cell in enumerate(rows)} for rows in basis]
    boundaries: list = [None]
    for d in range(1, spec.dim + 1):
        cols = []
        for cells, twists in basis[d]:
            col: dict = {}
            for i in range(r):
                j = cells[i]
                if j == 0:
                    continue
                sign = -1 if sum(cells[:i]) % 2 else 1
                new_cells = cells[:i] + (j - 1,) + cells[i + 1 :]
                shift = 0 if i == 0 else twists[i - 1]
                for coef, c in sphere_terms(j):
                    s = (shift + c) % t
                    if i == 0:
                        new_twists = tuple((a - s) % t for a in twists)
                    else:
                        new_twists = twists[: i - 1] + (s,) + twists[i:]
                    row = index[d - 1][(new_cells, new_twists)]
                    v = col.get(row, 0) + sign * coef
                    if v:
                        col[row] = v
                    else:
                        del col[row]
            cols.append(col)
        boundaries.append(tuple(cols))
    return WholeComplex(spec, tuple(tuple(b) for b in basis), tuple(boundaries))


def _assert_dd_zero(boundaries) -> None:
    """d o d = 0 composed column by column over every column, independent of
    the twist action that the fold's check (`_check_step` on the c = 0
    columns) relies on."""
    for d in range(2, len(boundaries)):
        for col in boundaries[d]:
            acc: dict = {}
            for mid, v in col.items():
                for row, w in boundaries[d - 1][mid].items():
                    acc[row] = acc.get(row, 0) + v * w
            assert not any(acc.values()), f"d o d != 0 at degree {d}"


def test_compare_with_a_twist_group_of_12500():
    # T = t^(r-1) = 12500 twists per cell tuple, within the default cap
    spec = TupleSpec((0, 0), 12500)
    assert compare_with_theory(spec, ZZ).ok
    assert compare_with_theory(spec, GF(2)).ok


def _whole_factors(spec: TupleSpec) -> tuple:
    cx = _reference_complex(spec)
    return spec.n, spec.t, (cx.ranks, _snf.boundary_factors(cx))


# sha256 of the cell counts and boundary invariant factors of the whole
# quotient complex of every acceptance-grid spec and (1^5;2), recorded with
# the row-major sweep that preceded the column-ordered one
FACTORS_SHA256 = "5928c5d1aa2b23774fd96f6cefe52bef2e6a693b2864046f1e0c1a43800883a4"


def test_boundary_factors_pinned():
    specs = list(grid_specs(ts=(1, 2, 3, 4, 6))) + [TupleSpec((1,) * 5, 2)]
    h = hashlib.sha256()
    for spec in specs:
        h.update(repr(_whole_factors(spec)).encode())
    assert h.hexdigest() == FACTORS_SHA256


# sha256 of the cell counts and boundary invariant factors of the whole
# quotient complex of (2,2,2,2;3), the complex with the largest dense
# residual, recorded before the sweep dropped the previous boundary's pivot
# rows
LARGEST_FACTORS_SHA256 = "2f7ce078b8efb1fd1a7c9b78ff219615dfb3ee5e7016f95dbc9686a84937878a"


def test_largest_complex_factors_pinned():
    spec = TupleSpec((2, 2, 2, 2), 3)
    h = hashlib.sha256(repr(_whole_factors(spec)).encode())
    assert h.hexdigest() == LARGEST_FACTORS_SHA256
    # the comparison caches the reduced quotient's 48 cells, not 34,992
    cells, _ = _cached_factors(spec, DEFAULT_CAP)
    assert sum(cells) == 48 and _cells(spec) == 34992


def _diagonal_invariant_factors(ks) -> tuple[int, ...]:
    """Invariant factors of diag(ks) by gcd/lcm exchanges, independent of the
    SNF: per prime, the exponents end up sorted along the diagonal."""
    ks = sorted(ks)
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            g = gcd(ks[i], ks[j])
            ks[i], ks[j] = g, ks[i] * ks[j] // g
    return tuple(ks)


def _unimodular(n: int, rng: random.Random) -> tuple[list, list]:
    """A random n x n integer matrix U of determinant +-1 and its inverse:
    a permutation, then a few elementary row operations (few, so that unit
    entries survive for the sweep) and sign flips."""
    perm = rng.sample(range(n), n)
    u = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    inv = [[int(perm[j] == i) for j in range(n)] for i in range(n)]
    for _ in range(n // 2 + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # row i += c row j
        for row in inv:  # column j -= c column i
            row[j] -= c * row[i]
    for i in range(n):
        if rng.random() < 0.5:
            u[i] = [-a for a in u[i]]
            for row in inv:
                row[i] = -row[i]
    return u, inv


def _matmul(a: list, b: list, inner: int, cols: int) -> list:
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


@settings(max_examples=200, deadline=None)
@given(
    top=st.integers(1, 4),
    pieces=st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, 2, 3, 4, 6, 9))), max_size=7),
    nonunit=st.tuples(st.integers(1, 4), st.sampled_from((2, 3, 4, 6, 9))),
    free=st.lists(st.integers(0, 4), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# two small complexes that keeping a pivot's row instead of its column, or
# also dropping rows at the residual's columns, gets wrong
@example(top=2, pieces=[(1, 1)], nonunit=(2, 2), free=[], seed=0)
@example(top=2, pieces=[(2, 1)], nonunit=(1, 2), free=[], seed=3)
def test_boundary_factors_of_scrambled_chain_complexes(top, pieces, nonunit, free, seed):
    # a direct sum of Z --k--> Z pieces and free Z's, so the factors are known;
    # at least one k > 1, so some residual carries a non-unit entry
    pieces = [(min(d, top), k) for d, k in pieces + [nonunit]]
    ranks = [sum(1 for f in free if f == d) for d in range(top + 1)]
    diag: list = [[] for _ in range(top + 1)]  # diag[d]: (row, col, k) of d_d
    for d, k in pieces:
        diag[d].append((ranks[d - 1], ranks[d], k))
        ranks[d - 1] += 1
        ranks[d] += 1
    # scramble each C_d by a unimodular U_d: d'_d = U_{d-1} d_d U_d^-1
    rng = random.Random(seed)
    us = [_unimodular(n, rng) for n in ranks]
    boundaries: list = [None]
    expected: list = [()]
    for d in range(1, top + 1):
        plain = [[0] * ranks[d] for _ in range(ranks[d - 1])]
        for i, j, k in diag[d]:
            plain[i][j] = k
        mixed = _matmul(us[d - 1][0], plain, ranks[d - 1], ranks[d])
        mixed = _matmul(mixed, us[d][1], ranks[d], ranks[d])
        boundaries.append(
            tuple({i: row[j] for i, row in enumerate(mixed) if row[j]} for j in range(ranks[d]))
        )
        expected.append(_diagonal_invariant_factors(k for _, _, k in diag[d]))
        assert smith_normal_form(mixed) == expected[d]
    cx = WholeComplex(None, tuple(tuple(range(n)) for n in ranks), tuple(boundaries))
    _assert_dd_zero(cx.boundaries)
    assert _snf.boundary_factors(cx) == tuple(expected)


def test_oracle_caches_hold_the_grid():
    specs = list(grid_specs(ts=(1, 2, 3, 4, 6)))
    assert len(specs) == 95
    pairs = [(spec, dom) for spec in specs for dom in (ZZ, GF(2), GF(3))]
    factors = {(spec.n[0], spec.t, resolve_mode(spec, dom)) for spec, dom in pairs}
    # every sphere of the grid is also the first of some spec
    folds = {(spec.n[:k], spec.t) for spec in specs for k in range(1, spec.r + 1)}
    assert folds >= {((ni,), spec.t) for spec in specs for ni in spec.n} and len(folds) == 95
    for cache, working_set in (
        (_cached_factors, len(specs)),
        (_fold, len(folds)),
        (base_factor, len(factors)),
    ):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize >= working_set


def test_a_grid_pass_folds_each_prefix_once(monkeypatch, cold_folds):
    # 15 spheres, and one tensor step for each of the 30 pairs and the 50
    # triples, where folding each spec from its first sphere took 150
    # sphere builds and 130 steps
    calls = Counter()

    def counted(name):
        real = getattr(oracle_module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle_module, name, call)

    counted("_step")
    counted("sphere_complex")
    _cached_factors.cache_clear()
    try:
        for spec in grid_specs():
            for dom in (ZZ, GF(2), GF(3)):
                assert compare_with_theory(spec, dom).ok
    finally:
        _cached_factors.cache_clear()
    assert calls == {"_step": 80, "sphere_complex": 15}
    assert _fold.cache_info().currsize == 95
