import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc
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
    _dense_snf,
    _homology_groups,
    boundary_factors,
    cohomology_from_homology,
    compare_with_theory,
    homology,
    product_quotient_complex,
    sphere_complex,
)

from _grid import grid_specs, smith_normal_form


def test_sphere_complex_structure():
    cx = sphere_complex(1, 3)
    assert cx.ranks == (1, 1, 1, 1)
    assert cx.diffs[1] == (-1, 1, 0)  # lambda - 1
    assert cx.diffs[2] == (1, 1, 1)  # norm element
    assert cx.diffs[3] == (-1, 1, 0)
    cx.check_dd_zero()


def test_sphere_complex_circle():
    cx = sphere_complex(0, 5)
    assert cx.ranks == (1, 1)
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
    q = product_quotient_complex(TupleSpec((1,), 3))
    assert q.ranks == (1, 1, 1, 1)
    assert _entries(q.boundaries[1]) == {}
    assert _entries(q.boundaries[2]) == {(0, 0): 3}
    assert _entries(q.boundaries[3]) == {}
    assert homology(q, ZZ).groups == GradedAbGroup.of(
        {0: (1, ()), 1: (0, (3,)), 3: (1, ())}
    )


def test_quotient_complex_torus():
    q = product_quotient_complex(TupleSpec((0, 0), 2))
    assert sum(q.ranks) == 8
    assert homology(q, ZZ).groups == GradedAbGroup.of(
        {0: (1, ()), 1: (2, ()), 2: (1, ())}
    )


def test_quotient_complex_three_torus():
    q = product_quotient_complex(TupleSpec((0, 0, 0), 4))
    assert homology(q, ZZ).groups == GradedAbGroup.of(
        {0: (1, ()), 1: (3, ()), 2: (3, ()), 3: (1, ())}
    )


def test_homology_f2_betti():
    q = product_quotient_complex(TupleSpec((1, 1), 2))
    assert homology(q, GF(2)).betti() == (1, 1, 1, 2, 1, 1, 1)


def test_homology_rational():
    q = product_quotient_complex(TupleSpec((1, 1), 3))
    assert homology(q, QQ).betti() == (1, 0, 0, 2, 0, 0, 1)


def test_memory_cap():
    with pytest.raises(MemoryCapError):
        product_quotient_complex(TupleSpec((2, 2, 2), 6), cap=100)


def test_entry_cap_refuses_before_building(monkeypatch):
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
    for spec in (TupleSpec((1, 1), 40), TupleSpec((1, 2), 20)):
        cx = product_quotient_complex(spec)
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
        betti = homology(q, GF(2)).betti()
        assert betti == tuple(reversed(betti))


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
    q = product_quotient_complex(TupleSpec(n, t))
    ranks = [0] + [_rank_mod_p_dense(_entries(b), p) for b in q.boundaries[1:]] + [0]
    expected = tuple(q.ranks[d] - ranks[d] - ranks[d + 1] for d in range(q.dim + 1))
    assert homology(q, GF(p)).betti() == expected
    factors = [f for fs in boundary_factors(q) for f in fs]
    if t % p:
        # p is a unit on every factor: mod-p and rational Betti numbers agree
        assert all(f % p for f in factors)
        assert expected == homology(q, QQ).betti()
    else:
        # both kinds of factor occur, so the count of p-prime ones is exercised
        assert any(f % p == 0 for f in factors) and any(f % p for f in factors)
        assert expected != homology(q, QQ).betti()


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


def test_dd_check_trips_on_a_negated_entry():
    cx = product_quotient_complex(TupleSpec((1, 1), 3))
    _assert_dd_zero(cx.boundaries)
    # negate one entry of d_d whose middle cell has a nonzero boundary
    d, col, mid = next(
        (d, col, mid)
        for d in range(2, cx.dim + 1)
        for col, entries in enumerate(cx.boundaries[d])
        for mid in entries
        if cx.boundaries[d - 1][mid]
    )
    bad_col = dict(cx.boundaries[d][col])
    bad_col[mid] = -bad_col[mid]
    bad = cx.boundaries[d][:col] + (bad_col,) + cx.boundaries[d][col + 1 :]
    broken = QuotientComplex(cx.spec, cx.basis, cx.boundaries[:d] + (bad,) + cx.boundaries[d + 1 :])
    with pytest.raises(AssertionError, match=f"degree {d}"):
        _assert_dd_zero(broken.boundaries)


def test_dd_check_trips_on_a_negated_entry_at_a_nonzero_twist():
    # the same corruption in a column whose twists are not all 0: d o d fails
    # there only, so the check must reach it through the twist action
    cx = product_quotient_complex(TupleSpec((1, 1), 3))
    d, col, mid = next(
        (d, col, mid)
        for d in range(2, cx.dim + 1)
        for col, entries in enumerate(cx.boundaries[d])
        if cx.basis[d][col][1] != (0,)
        for mid in entries
        if cx.boundaries[d - 1][mid]
    )
    bad_col = dict(cx.boundaries[d][col])
    bad_col[mid] = -bad_col[mid]
    bad = cx.boundaries[d][:col] + (bad_col,) + cx.boundaries[d][col + 1 :]
    broken = QuotientComplex(cx.spec, cx.basis, cx.boundaries[:d] + (bad,) + cx.boundaries[d + 1 :])
    with pytest.raises(AssertionError, match=f"degree {d}"):
        _assert_dd_zero(broken.boundaries)


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


@pytest.mark.parametrize("n", [(1, 1), (1, 1, 1)], ids=["r2", "r3"])
def test_build_refuses_a_non_complex_before_making_its_columns(monkeypatch, n):
    # Corrupt the last step in the column of a pair whose inner twists are
    # all 0: the whole complex checks its steps on those pairs only. It and
    # the comparison's factors must each refuse at the corrupted degree
    # before any quotient column is made.
    spec = TupleSpec(n, 3)
    step, sum_out, reduce = oracle_module._step, oracle_module._sum_out, oracle_module._reduce
    steps, corrupted, made, reduced = [], [], [], []

    def corrupting(first, diffs, t, key=None):
        pairs, terms = step(first, diffs, t, key)
        steps.append(terms)
        if len(steps) == spec.r - 1:
            degrees = first[0]

            # x's offset in its degree is its twist in the whole complex's
            # steps, for r <= 3; the comparison checks every pair anyway
            def untwisted(d, i):
                x = pairs[d][i][0]
                return (x - degrees.index(degrees[x])) % t == 0

            corrupted.append(_negate_a_term(terms, t, untwisted))
        return pairs, terms

    def recorded_sum_out(*args):
        made.append(args)
        return sum_out(*args)

    def recorded_reduce(pairs, terms, *args):
        reduced.append(terms)
        return reduce(pairs, terms, *args)

    monkeypatch.setattr(oracle_module, "_step", corrupting)
    monkeypatch.setattr(oracle_module, "_sum_out", recorded_sum_out)
    monkeypatch.setattr(oracle_module, "_reduce", recorded_reduce)
    for build, reduces in (
        (product_quotient_complex, False),
        (lambda spec: _cached_factors.__wrapped__(spec, DEFAULT_CAP), True),
    ):
        steps.clear()
        corrupted.clear()
        reduced.clear()
        with pytest.raises(AssertionError) as raised:
            build(spec)
        assert f"d o d != 0 over Z[Z_t] at degree {corrupted[0]} of" in str(raised.value)
        assert len(steps) == spec.r - 1 and not made
        # the comparison reduces every step before the corrupted one, and never that one
        assert [id(terms) for terms in reduced] == [id(terms) for terms in steps[:-1] if reduces]


@pytest.mark.parametrize("where", ["stored-twist-0", "stored-twisted", "full-twist-0"])
def test_stream_checks_each_degree_before_its_snf(monkeypatch, where):
    # [full-twist-0]: (1,1,1;3) runs one Z[Z_t] tensor step before the last.
    # Corrupt it: the factors must refuse at the corrupted degree before that
    # step is reduced, and run no SNF.
    # [stored-*]: the last step of (1,1;3) is tensored onto the first sphere,
    # that of (1,1,1;3) onto the reduced Z[Z_3] complex of the first two,
    # whose entries carry powers of g. Each degree's SNF receives the very
    # columns the last `_reduce` made, uncopied and whole, and the factors
    # give the whole complex's homology
    spec = TupleSpec((1, 1) if where == "stored-twist-0" else (1, 1, 1), 3)
    if where != "full-twist-0":  # before the wrappers, which would record its columns
        cx = _reference_complex(spec)
        whole = (cx.ranks, boundary_factors(cx))
    step, reduce, snf = oracle_module._step, oracle_module._reduce, oracle_module._snf_factors
    steps, made, copies, reduced, corrupted = [], [], [], [], []

    def corrupting(first, diffs, t, key=None):
        pairs, terms = step(first, diffs, t, key)
        steps.append(diffs)
        if len(steps) == 1:
            corrupted.append(_negate_a_term(terms, t))
        return pairs, terms

    def recorded_reduce(*args):
        made.append(reduce(*args))
        copies.append([[dict(col) for col in row] for row in made[-1]])
        return made[-1]

    def recorded_snf(cols):
        received = [dict(col) for col in cols]
        factors, pivots = snf(cols)
        reduced.append((cols, received))
        return factors, pivots

    monkeypatch.setattr(oracle_module, "_reduce", recorded_reduce)
    monkeypatch.setattr(oracle_module, "_snf_factors", recorded_snf)
    if where == "full-twist-0":
        monkeypatch.setattr(oracle_module, "_step", corrupting)
        with pytest.raises(AssertionError) as raised:
            _cached_factors.__wrapped__(spec, DEFAULT_CAP)
        assert f"d o d != 0 over Z[Z_t] at degree {corrupted[0]} of" in str(raised.value)
        assert len(steps) == 1 and not made and not reduced
    else:
        cached = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
        for dom in (ZZ, GF(2), GF(3)):
            assert _homology_groups(*cached, dom) == _homology_groups(*whole, dom)
        assert len(made) == spec.r - 1 and len(reduced) == spec.dim
        assert [received for _, received in reduced] == copies[-1][1:]
        assert [id(cols) for cols, _ in reduced] == [id(cols) for cols in made[-1][1:]]


def test_elimination_shrinks_the_complex_before_the_quotient(monkeypatch):
    # (2,2,2;6): S_1 (x) S_2 has 216 free Z[Z_6] generators, and S_2's
    # matching leaves 12; the last step has 432, whose quotient was reduced
    # whole before, and S_3's matching leaves 24 cells of it, of which the
    # one in degree 0 has no boundary, in place of 7,776
    spec = TupleSpec((2, 2, 2), 6)
    reduce, snf = oracle_module._reduce, oracle_module._snf_factors
    sizes, reduced = [], []

    def recorded_reduce(pairs, terms, t, top, m):
        cols = reduce(pairs, terms, t, top, m)
        sizes.append((sum(map(len, pairs)) * t, sum(map(len, cols)), m))
        return cols

    def recorded_snf(cols):
        reduced.append(len(cols))
        return snf(cols)

    monkeypatch.setattr(oracle_module, "_reduce", recorded_reduce)
    monkeypatch.setattr(oracle_module, "_snf_factors", recorded_snf)
    cells, _ = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    assert sum(cells) == 24 and _cells(spec) == 7776
    assert sizes == [(216, 12, 6), (432, 24, 1)]
    assert cells[0] == 1 and sum(reduced) + 1 == 24


def test_reduced_quotient_has_the_closed_form_count():
    # each step's matching leaves two critical cells per fibre, so the
    # quotient the SNF reduces has 2^(r-1) (2 n_1 + 2) cells at any t: 24
    # for (2,2,2;6), 48 for (2,2,2,2;3), 256 for (1^7;3), whose whole
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
def test_a_wrong_reduction_is_caught(monkeypatch, old, new):
    # (1,1,1;3): the reduced Z[Z_3] complex of its first step fails
    # `_check_ring`; (1,1;3): the reduced quotient is a complex, but its
    # homology differs from the reference builder's
    monkeypatch.setattr(oracle_module, "_reduce", _mutant_reduce(old, new))
    with pytest.raises(AssertionError, match="d o d != 0 over Z\\[Z_t\\] at degree 2 of"):
        _cached_factors.__wrapped__(TupleSpec((1, 1, 1), 3), DEFAULT_CAP)
    spec = TupleSpec((1, 1), 3)
    cx = _reference_complex(spec)
    cached = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    assert _homology_groups(*cached, ZZ) != _homology_groups(cx.ranks, boundary_factors(cx), ZZ)


def test_quotient_check_refuses_a_negated_entry(monkeypatch):
    # the quotient's d o d over Z is checked before any SNF. Every composite
    # of the reduced quotient's boundaries vanishes term by term, so no
    # negated entry there can trip it: hand it the unreduced quotient of the
    # last step in the reduction's place, once as it is, which passes and
    # gives the whole complex's factors, and once with one entry negated
    spec = TupleSpec((1, 1), 3)
    cx = _reference_complex(spec)
    whole = (cx.ranks, boundary_factors(cx))
    snf, sums = oracle_module._snf_factors, []

    def unreduced(pairs, terms, t, top, m):
        sums.append([oracle_module._sum_out(row, len(below) * t, t) for row, below in zip(terms, [[]] + pairs)])
        return sums[-1]

    def recorded_snf(cols):
        reduced.append(cols)
        return snf(cols)

    monkeypatch.setattr(oracle_module, "_reduce", unreduced)
    monkeypatch.setattr(oracle_module, "_snf_factors", recorded_snf)
    reduced: list = []
    assert _cached_factors.__wrapped__(spec, DEFAULT_CAP) == whole
    cols = sums[-1]
    d, j, row = next(
        (d, j, row) for d in range(2, len(cols)) for j, col in enumerate(cols[d]) for row in col if cols[d - 1][row]
    )

    def negated(*args):
        cols = unreduced(*args)
        cols[d][j][row] = -cols[d][j][row]
        return cols

    monkeypatch.setattr(oracle_module, "_reduce", negated)
    reduced.clear()
    with pytest.raises(AssertionError, match=f"d o d != 0 over Z at degree {d} of"):
        _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    assert not reduced


@pytest.mark.parametrize("n, t", [((2, 2, 2), 6), ((2, 2, 2, 2), 3)])
def test_streamed_factors_peak_below_the_whole_complex(n, t):
    # the comparison never builds the whole complex: it reduces each step by
    # the sphere's Morse matching, the last in the quotient, and reduces the
    # small quotient's columns in place. Its traced peak is about 0.008 and
    # 0.003 of the complex's traced size here (0.09 and 0.02 with Gaussian
    # elimination over Z[Z_t] and the last step's quotient built, 0.21 when
    # the whole quotient was streamed, about 0.32 when full boundaries were
    # copied into the reduction, about 1.2 when every boundary was held). The whole build itself frees each degree's terms
    # of its last step once that degree's columns are made, so it peaks at
    # about 1.05 and 1.16 times the complex it returns (1.27 and 1.67 while
    # every degree's terms were held until the end)
    spec = TupleSpec(n, t)
    _cached_factors.cache_clear()
    tracemalloc.start()
    try:
        cx = product_quotient_complex(spec)
        size, whole_peak = tracemalloc.get_traced_memory()
        del cx
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _cached_factors(spec, DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 0.27 * size, (peak, size)
    assert whole_peak <= 1.35 * size, (whole_peak, size)


def _lru_sizes() -> dict:
    return {
        (name, attr): value.cache_info().currsize
        for name, module in list(sys.modules.items())
        if name.startswith("lensprod")
        for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None))
    }


def test_compare_with_theory_keeps_only_the_factors():
    # a comparison caches its complex's factors and nothing else: no ring,
    # no cohomology groups
    spec, dom = TupleSpec((1, 2), 5), GF(3)
    _cached_factors.cache_clear()
    base_factor(spec.n[0], spec.t, resolve_mode(spec, dom))  # shared with the calculator
    before = _lru_sizes()
    assert compare_with_theory(spec, dom).ok
    after = _lru_sizes()
    grown = {key: after[key] - before.get(key, 0) for key in after if after[key] != before.get(key)}
    assert grown == {("lensprod.oracle", "_cached_factors"): 1}


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
    # _cached_factors reduces each step by the sphere's matching and the
    # last in the quotient, which leaves 2^(r-1) (2 n_1 + 2) cells with the
    # whole complex's homology over Z, F2 and F3, and is the whole complex
    # for r = 1; boundary_factors reduces a copy of the whole complex's
    # boundaries, and it and smith_normal_form leave their input as it was
    cx = product_quotient_complex(spec)
    kept = [[dict(col) for col in b] for b in cx.boundaries[1:]]
    cached = _cached_factors.__wrapped__(spec, DEFAULT_CAP)
    whole = boundary_factors(cx)  # what homology(cx, dom) reads
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
        assert smith_normal_form(matrix) == boundary_factors(cx)[1]
        assert matrix == copy


def _reference_complex(spec: TupleSpec, cap: int = DEFAULT_CAP) -> QuotientComplex:
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
    return QuotientComplex(spec, tuple(tuple(b) for b in basis), tuple(boundaries))


def _assert_dd_zero(boundaries) -> None:
    """d o d = 0 composed column by column over every column, independent of
    the twist action that the build's check (`_check_step` on the pairs whose
    inner twists are all 0) relies on."""
    for d in range(2, len(boundaries)):
        for col in boundaries[d]:
            acc: dict = {}
            for mid, v in col.items():
                for row, w in boundaries[d - 1][mid].items():
                    acc[row] = acc.get(row, 0) + v * w
            assert not any(acc.values()), f"d o d != 0 at degree {d}"


def test_complex_matches_reference_builder():
    for spec in list(grid_specs(ts=(1, 2, 3, 4, 6))) + [TupleSpec((1,) * 5, 2)]:
        assert product_quotient_complex(spec) == _reference_complex(spec), spec


@settings(max_examples=60, deadline=None)
@given(
    n=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    t=st.integers(1, 7),
)
def test_complex_matches_reference_builder_property(n, t):
    spec, cap = TupleSpec(tuple(sorted(n)), t), 4000
    try:
        expected = _reference_complex(spec, cap)
    except MemoryCapError:
        with pytest.raises(MemoryCapError):
            product_quotient_complex(spec, cap)
        return
    cx = product_quotient_complex(spec, cap)
    assert cx == expected
    _assert_dd_zero(cx.boundaries)


def test_compare_with_a_twist_group_of_12500():
    # T = t^(r-1) = 12500 twists per cell tuple, within the default cap
    spec = TupleSpec((0, 0), 12500)
    assert compare_with_theory(spec, ZZ).ok
    assert compare_with_theory(spec, GF(2)).ok


def _whole_factors(spec: TupleSpec) -> tuple:
    cx = product_quotient_complex(spec)
    return spec.n, spec.t, (cx.ranks, boundary_factors(cx))


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
    cx = QuotientComplex(None, tuple(tuple(range(n)) for n in ranks), tuple(boundaries))
    _assert_dd_zero(cx.boundaries)
    assert boundary_factors(cx) == tuple(expected)


def test_oracle_caches_hold_the_grid():
    specs = list(grid_specs(ts=(1, 2, 3, 4, 6)))
    assert len(specs) == 95
    pairs = [(spec, dom) for spec in specs for dom in (ZZ, GF(2), GF(3))]
    factors = {(spec.n[0], spec.t, resolve_mode(spec, dom)) for spec, dom in pairs}
    for cache, working_set in (
        (_cached_factors, len(specs)),
        (base_factor, len(factors)),
    ):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize >= working_set
