"""Brute-force homology oracle.

Builds the free Z[Z_t]-equivariant cell complex of a product of odd spheres
(one cell per dimension per factor, boundary alternating between lambda - 1
and the norm element), passes to the quotient by the diagonal action, and
takes one exact Smith normal form per boundary map. Integral, rational and
mod-p homology all follow from those invariant factors: over F_p the rank of
a boundary is the number of its factors that p does not divide (universal
coefficients). A comparison routine converts the result to cohomology and
matches it degree by degree against the predicted ring.

Boundaries are stored column-major, one {row: value} map per cell, and the
SNF reduces those columns in place. Z_t^(r-1) acts on the quotient by
translating the twists, and the boundary commutes with that action, so each
cell tuple's boundary is worked out once, at twist 0, as triples, and moved
to the other twists. The exact d o d = 0 check rests on the same symmetry:
d o d = 0 on the twist-0 columns, with every column the twist-0 one moved,
gives d o d = 0 on every column (see `_check_dd_zero`). The SNF is a sparse
unit-pivot elimination (Dumas-Saunders-Villard, "On efficient sparse integer
matrix Smith normal forms", JSC 2001) in passes over the columns, shortest
first (see `_snf_factors`), then a dense SNF of the small residual. The
boundaries are reduced in order, each with compression (Bauer-Kerber-
Reininghaus, "Clear and Compress", 2014): the rows of d_{d+1} at the
unit-pivot columns of d_d are left out, exact over Z since d o d = 0 is
checked before.

The twist-0 triples come from one builder, `_boundaries`, one degree per
call, and the columns from one helper, `_columns`, which moves them to every
twist and leaves out the rows the caller names. `product_quotient_complex`
leaves none out and checks the whole complex with `_check_dd_zero`, which
checks that the stored columns are the twist-0 ones moved (part (a)) and
d o d on the twist-0 columns (part (b)), so it serves a complex from any
source. The factors behind `compare_with_theory` (`_cached_factors`) need no
part (a): for each degree d they build d_d's twist-0 triples, check d o d on
them against d_{d-1}'s (`_check_degree`), and only then make d_d's columns
from the checked triples, once, without the rows compression drops, and
reduce them in place. So each degree is checked before its SNF, each column
is built once, the dropped rows are never built, and nothing is copied.

There is no oracle for t = INFINITY: the circle quotient is not a finite free
quotient. That regime is validated elsewhere (duality, Euler characteristics,
wedge bookkeeping).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from typing import Callable, NamedTuple

from .algebra import Coeff, GradedAbGroup, TupleSpec, ZZ

__all__ = [
    "DEFAULT_CAP",
    "MemoryCapError",
    "EquivariantComplex",
    "QuotientComplex",
    "HomologyResult",
    "ComparisonReport",
    "sphere_complex",
    "product_quotient_complex",
    "smith_normal_form",
    "boundary_factors",
    "homology",
    "compare_with_theory",
]

DEFAULT_CAP = 50_000
# boundary entries allowed per unit of the cap; the most any test spec needs
# is 6.9, (1,1,2;6) under a cap of 4000
ENTRIES_PER_CELL = 10


class MemoryCapError(ValueError):
    """Raised when the quotient basis would exceed the configured cap, or its
    boundaries ENTRIES_PER_CELL times the cap in entries."""


# ---------------------------------------------------------------------------
# group-ring helpers: elements of Z[Z_t] are integer vectors of length t


def _gr_mul(u: tuple, v: tuple, t: int) -> tuple:
    out = [0] * t
    for a, x in enumerate(u):
        if x:
            for b, y in enumerate(v):
                if y:
                    out[(a + b) % t] += x * y
    return tuple(out)


def _gr_norm(t: int) -> tuple:
    return (1,) * t


def _gr_lambda_minus_1(t: int) -> tuple:
    if t == 1:
        return (0,)
    out = [0] * t
    out[0] = -1
    out[1] += 1
    return tuple(out)


class EquivariantComplex(NamedTuple):
    """Free Z[Z_t] complex with one generator per degree 0..dim; diffs[d] is
    the group-ring coefficient of the boundary of the degree-d generator."""

    t: int
    dim: int
    diffs: tuple

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) * (self.dim + 1)

    def check_dd_zero(self) -> None:
        zero = (0,) * self.t
        for d in range(2, self.dim + 1):
            if _gr_mul(self.diffs[d], self.diffs[d - 1], self.t) != zero:
                raise AssertionError(f"d o d != 0 at degree {d}")


def sphere_complex(n: int, t: int) -> EquivariantComplex:
    """Minimal free Z_t-cell structure on S^{2n+1}: one cell per degree,
    even boundaries the norm element, odd boundaries lambda - 1."""
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    if n < 0:
        raise ValueError("n must be non-negative")
    diffs: list = [None]
    for d in range(1, 2 * n + 2):
        diffs.append(_gr_lambda_minus_1(t) if d % 2 == 1 else _gr_norm(t))
    cx = EquivariantComplex(t, 2 * n + 1, tuple(diffs))
    cx.check_dd_zero()
    return cx


# ---------------------------------------------------------------------------
# the quotient complex of the product


class QuotientComplex(NamedTuple):
    """Integral cell complex of the quotient space. basis[d] lists the cells
    (cells j_1..j_r, twists a_2..a_r) of degree d, sorted; boundaries[d] is
    the boundary into degree d-1 in column-major form: boundaries[d][col] is
    the {row: int} map of the nonzero entries of the boundary of
    basis[d][col] (boundaries[0] is None).

    With T = t^(r-1), cell (cells, h) sits at position k T + code(h), where
    k ranks the cell tuple among those of its degree and code(h) reads the
    twists as a base-t number, a_2 most significant. Z_t^(r-1) acts on every
    degree by adding to the twists digit by digit mod t, and the boundary
    commutes with that action: the column of (cells, h) is the column of
    (cells, 0) with the twist part of each row moved by h."""

    spec: TupleSpec
    basis: tuple
    boundaries: tuple

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis) - 1


class _Moves(dict):
    """moves[x][h] is the code of the twists x + h, added digit by digit mod
    t, for each code h < t^(r-1); a table is made when its x is first used.
    The tables share one int object per code, so each entry costs a pointer."""

    def __init__(self, t: int, r: int):
        self.t, self.r = t, r
        self.codes = list(range(t ** (r - 1)))

    def __missing__(self, x: int) -> list:
        t, codes = self.t, [0]
        for k in reversed(range(self.r - 1)):  # most significant digit first
            a = x // t**k
            codes = [y * t + (a + b) % t for y in codes for b in range(t)]
        self[x] = codes = [self.codes[c] for c in codes]
        return codes


def _cell_tuples(spec: TupleSpec, cap: int) -> list[list]:
    """The cell tuples (j_1..j_r) of each degree, in product order, after
    refusing a complex above the cap in cells or in boundary entries."""
    if not spec.finite:
        raise ValueError("no finite-quotient complex exists for t = INFINITY")
    t = spec.t
    total = t ** (spec.r - 1) * prod(2 * ni + 2 for ni in spec.n)
    if total > cap:
        raise MemoryCapError(f"quotient basis has {total} cells, above the cap {cap}")
    # A column has one entry per nonzero group-ring coefficient of each
    # face's sphere boundary: 2 for lambda - 1 (none when t = 1) and t for the
    # norm element. For r >= 2 no two share a row, so this is the entry
    # count; for r = 1 it counts the coefficients the build walks.
    entries = sum(total // (2 * ni + 2) * ((2 * ni + 2) * (t > 1) + ni * t) for ni in spec.n)
    if entries > ENTRIES_PER_CELL * cap:
        raise MemoryCapError(
            f"quotient boundaries have {entries} entries, "
            f"above {ENTRIES_PER_CELL} times the cap {cap}"
        )
    tuples: list[list] = [[] for _ in range(spec.dim + 1)]
    for cells in product(*(range(2 * ni + 2) for ni in spec.n)):
        tuples[sum(cells)].append(cells)
    return tuples


def _boundaries(spec: TupleSpec, tuples: list, moves: _Moves) -> Callable:
    """The boundaries of the quotient complex as a function of the degree,
    so a caller holds only the degrees it is using. boundary(d) returns the
    twist-0 triples of d_d: for the k-th cell tuple of degree d, one
    (face, moves[x], value) triple per nonzero entry of its column at twist
    0, which sits in row face + x, face = k' T the position of the face's
    cell tuple and x < T a twist code. They are worked out from the spheres'
    group-ring boundaries; `_columns` moves them to the other twists."""
    t, r = spec.t, spec.r
    twists = t ** (r - 1)
    spheres = [sphere_complex(ni, t).diffs for ni in spec.n]
    # lambda^c on factor i moves the twists by c g_i: g_1 subtracts 1 from
    # every twist, g_i (i > 1) adds 1 to a_i
    ones = sum(t**k for k in range(r - 1))

    def boundary(d: int) -> list:
        start = {cells: k * twists for k, cells in enumerate(tuples[d - 1])}
        out: list = []
        for cells in tuples[d]:
            template: dict = {}
            for i, j in enumerate(cells):
                if j:
                    sign = -1 if sum(cells[:i]) % 2 else 1
                    face = start[cells[:i] + (j - 1,) + cells[i + 1 :]]
                    for c, coef in enumerate(spheres[i][j]):
                        x = -c % t * ones if i == 0 else c * t ** (r - 1 - i)
                        template[face, x] = template.get((face, x), 0) + sign * coef
            out.append([(face, moves[x], v) for (face, x), v in template.items() if v])
        return out

    return boundary


def _columns(triples: list, twists: int, cleared, nrows: int) -> list:
    """The columns of the map D whose column k T + h is triples[k] moved by
    the twist h, {face + moves[x][h]: value}, with the rows in `cleared` left
    out. The rows are one int per row of the nrows, shared by the columns."""
    rows = list(range(nrows))
    return [
        {rows[row]: v for face, tr, v in top if (row := face + tr[h]) not in cleared}
        for top in triples
        for h in range(twists)
    ]


def product_quotient_complex(spec: TupleSpec, cap: int = DEFAULT_CAP) -> QuotientComplex:
    """Tensor the sphere complexes over the group ring of the diagonal action;
    the quotient basis fixes the first coordinate's group element to the
    identity. The boundaries are the `_columns` of `_boundaries`' triples with
    no rows cleared, and the whole complex is checked by `_check_dd_zero`
    before it is returned."""
    tuples = _cell_tuples(spec, cap)
    boundary = _boundaries(spec, tuples, _Moves(spec.t, spec.r))
    twists = spec.t ** (spec.r - 1)
    boundaries = (None,) + tuple(
        tuple(_columns(boundary(d), twists, (), len(tuples[d - 1]) * twists))
        for d in range(1, spec.dim + 1)
    )
    twist_tuples = list(product(range(spec.t), repeat=spec.r - 1))
    basis = tuple(tuple((cells, h) for cells in row for h in twist_tuples) for row in tuples)
    cx = QuotientComplex(spec, basis, boundaries)
    _check_dd_zero(cx)
    return cx


def _check_degree(spec: TupleSpec, d: int, lower, upper: list) -> list:
    """Check (b) of `_check_dd_zero` at degree d, and return upper. upper[k]
    holds the twist-0 triples of the k-th cell tuple of degree d, lower those
    of d_{d-1}, as this check returned them at degree d - 1 (None when
    d = 1). d_{d-1} composed with each twist-0 column of d_d is zero, reading
    the column of d_{d-1} at k' T + h as lower[k'] moved by h."""
    if lower is not None:
        twists = spec.t ** (spec.r - 1)
        for top in upper:
            acc: dict = {}
            for mid, tr, v in top:  # an entry at the twist-0 cell mid moved by h
                h = tr[0]
                for face, tr2, w in lower[mid // twists]:
                    row = face + tr2[h]
                    acc[row] = acc.get(row, 0) + v * w
            if any(acc.values()):
                raise AssertionError(f"d o d != 0 at degree {d} of {spec}")
    return upper


def _check_dd_zero(cx: QuotientComplex) -> None:
    """Exact proof that d o d = 0, for a complex from any source, by two
    checks on every degree d. Read each stored twist-0 column as triples
    (row - x, moves[x], value), x = row mod T. (a) The stored columns of d_d
    are the `_columns` of those triples, none cleared. (b) `_check_degree`.

    Why that suffices: write s_h for the move k T + x -> k T + code(x + h)
    of cell positions (QuotientComplex), an action of Z_t^(r-1) on every
    degree, and D for the map whose column at s_h c, c a twist-0 cell, is
    s_h applied to c's twist-0 column, as `_columns` makes it. So
    D s_h c = s_h D c for each twist-0 c; every cell is some s_g c, so
    D s_h (s_g c) = s_{h+g} D c = s_h s_g D c = s_h D (s_g c): D commutes
    with every s_h on every cell. (b) reads d_{d-1} as D, and says D D c = 0
    for each twist-0 c; so D D (s_h c) = s_h D D c = 0, and D is a chain
    complex. (a) says the stored boundaries are D. The streamed factors
    (`_cached_factors`) need no (a): they run (b) on the builder's triples
    and make their columns from them with `_columns`, so the columns they
    reduce are D's by construction, less the cleared rows."""
    moves = _Moves(cx.spec.t, cx.spec.r)
    twists = cx.spec.t ** (cx.spec.r - 1)
    lower = None
    for d in range(1, cx.dim + 1):
        cols = cx.boundaries[d]
        upper = [
            [(row - row % twists, moves[row % twists], v) for row, v in top.items()]
            for top in cols[::twists]
        ]
        if list(cols) != _columns(upper, twists, (), len(cx.basis[d - 1])):
            raise AssertionError(f"a column at degree {d} of {cx.spec} is not its twist-0 one moved")
        lower = _check_degree(cx.spec, d, lower, upper)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix given as a list
    of rows (zero factors dropped, units included)."""
    cols: dict[int, dict[int, int]] = {}
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = int(v)
    return _snf_factors(cols.values())[0]


def _snf_factors(columns) -> tuple[tuple[int, ...], set]:
    """Invariant factors of a sparse integer matrix given as its columns,
    each a {row: value} map, and the set of columns the unit sweep took as
    pivots. The columns are reduced in place: a caller that keeps its matrix
    passes a copy.

    Unit-pivot sweep first: boundary matrices here are mostly made of +-1
    entries, so eliminating on +-1 pivots removes nearly everything without
    coefficient growth. Each pass visits the live columns in ascending order
    of their length at the start of the pass; in each it pivots on the +-1
    entry whose row meets the fewest columns, clears that row with column
    operations and drops the pivot row and column. Passes repeat until one
    finds no +-1 pivot; the residual goes to the dense SNF."""
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(columns):  # the row index
        if col:
            cols[j] = col
            for i in col:
                if i in rows:
                    rows[i].add(j)
                else:
                    rows[i] = {j}

    pivots = set()
    found = True
    while found:
        found = False
        for j in sorted(cols, key=lambda j: len(cols[j])):
            col = cols.get(j)
            if col is None:  # emptied earlier in this pass
                continue
            i, fewest = None, None
            for i2, v in col.items():
                if (v == 1 or v == -1) and (fewest is None or len(rows[i2]) < fewest):
                    i, fewest = i2, len(rows[i2])
            if i is None:
                continue
            piv = col.pop(i)
            prow = rows.pop(i)
            prow.discard(j)
            if col:
                for j2 in prow:
                    col2 = cols[j2]
                    mult = col2.pop(i) * piv  # exact: piv is +-1
                    for i2, v in col.items():
                        w = col2.get(i2, 0) - mult * v
                        if w:
                            if i2 not in col2:
                                rows[i2].add(j2)
                            col2[i2] = w
                        else:  # mult * v is nonzero, so i2 was present
                            del col2[i2]
                            rows[i2].discard(j2)
                    if not col2:
                        del cols[j2]
                for i2 in col:
                    rows[i2].discard(j)
            else:  # a unit vector: clearing its row only drops the row's entries
                for j2 in prow:
                    col2 = cols[j2]
                    del col2[i]
                    if not col2:
                        del cols[j2]
            del cols[j]
            pivots.add(j)
            found = True

    if not cols:  # the sweep deletes every column it empties
        return (1,) * len(pivots), pivots

    # compact the residual into a small dense matrix
    live_rows = sorted({i for col in cols.values() for i in col})
    rmap = {i: a for a, i in enumerate(live_rows)}
    dense = [[0] * len(cols) for _ in live_rows]
    for b, j in enumerate(sorted(cols)):
        for i, v in cols[j].items():
            dense[rmap[i]][b] = v
    return (1,) * len(pivots) + _dense_snf(dense), pivots


def _dense_snf(mat: list[list[int]]) -> tuple[int, ...]:
    """Classical SNF with gcd pivoting on a dense matrix; returns the nonzero
    diagonal in divisibility order."""
    m, n = len(mat), len(mat[0]) if mat else 0
    out = []
    k = 0
    while True:
        pos = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = abs(mat[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        i, j = pos
        mat[k], mat[i] = mat[i], mat[k]
        if j != k:
            for row in mat:
                row[k], row[j] = row[j], row[k]
        while True:
            piv = mat[k][k]
            done = True
            for i in range(k + 1, m):
                if mat[i][k]:
                    q = mat[i][k] // piv
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[k])]
                    if mat[i][k]:
                        mat[k], mat[i] = mat[i], mat[k]
                        done = False
                        break
            if not done:
                continue
            for j in range(k + 1, n):
                if mat[k][j]:
                    q = mat[k][j] // piv
                    if q:
                        for row in mat:
                            row[j] -= q * row[k]
                    if mat[k][j]:
                        for row in mat:
                            row[k], row[j] = row[j], row[k]
                        done = False
                        break
            if not done:
                continue
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if mat[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mat[k] = [a + b for a, b in zip(mat[k], mat[offender])]
        out.append(abs(mat[k][k]))
        k += 1
        if k >= m or k >= n:
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# homology and the theory comparison


class HomologyResult(NamedTuple):
    groups: GradedAbGroup
    dom: Coeff

    def betti(self) -> tuple[int, ...]:
        return self.groups.betti()


def boundary_factors(cx: QuotientComplex) -> tuple[tuple[int, ...], ...]:
    """Invariant factors of every boundary map; entry d belongs to the map
    out of degree d (entry 0, the zero map, is empty). cx must be a chain
    complex: d_{d+1}'s rows at the cells d_d's unit sweep took as pivot
    columns are dropped, which needs d o d = 0. The sweep adds only pivot
    columns to others, so the other cells' coordinates are unchanged; the
    pivot block is triangular with +-1 diagonal, so every cycle is zero at
    the pivot cells; im d_{d+1} lies in the cycles, so d_{d+1} = U [R; 0]
    with U unimodular and SNF(d_{d+1}) = SNF(R)."""
    out, cleared = [()], ()
    for b in cx.boundaries[1:]:
        copy = [{i: v for i, v in col.items() if i not in cleared} for col in b]
        factors, cleared = _snf_factors(copy)
        out.append(factors)
    return tuple(out)


def _homology_groups(ranks: tuple, factors: tuple, dom: Coeff) -> GradedAbGroup:
    """H_* from the cell counts and the boundary invariant factors. Over F_p
    a boundary's rank counts the factors p does not divide, since its SNF
    D = U d V has U, V unimodular and so invertible mod p. Each boundary's
    factors are a divisibility chain, so its 1s come first and only the
    factors after them are read one by one."""
    factors = factors + ((),)  # the map out of the top degree is zero
    units = [fs.count(1) for fs in factors]
    if dom.kind == "Fp":
        rank = [u + sum(1 for q in fs[u:] if q % dom.p) for u, fs in zip(units, factors)]
    else:
        rank = [len(fs) for fs in factors]
    data: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d, cells in enumerate(ranks):
        torsion = () if dom.is_field else factors[d + 1][units[d + 1] :]
        data[d] = (cells - rank[d] - rank[d + 1], torsion)
    return GradedAbGroup.of(data)


def homology(cx: QuotientComplex, dom: Coeff = ZZ) -> HomologyResult:
    """H_*(cx) over Z (free part + invariant-factor torsion) or over a field
    (Betti numbers), from one SNF per boundary map."""
    return HomologyResult(_homology_groups(cx.ranks, boundary_factors(cx), dom), dom)


def cohomology_from_homology(h: HomologyResult, top: int) -> GradedAbGroup:
    """Universal coefficients: over Z, H^d = free(H_d) + torsion(H_{d-1});
    over a field the Betti numbers agree."""
    if h.dom.is_field:
        return h.groups
    data = {}
    for d in range(top + 1):
        data[d] = (h.groups.free_rank(d), h.groups.torsion(d - 1))
    return GradedAbGroup.of(data)


class ComparisonReport(NamedTuple):
    spec: TupleSpec
    dom: Coeff
    ok: bool
    degrees: tuple  # (degree, theory (free, torsion), oracle (free, torsion), match)

    def mismatches(self) -> tuple[int, ...]:
        return tuple(d for d, th, orc, m in self.degrees if not m)

    def first_mismatch(self):
        return next(iter(self.mismatches()), None)

    def __str__(self):
        bad = self.mismatches()
        if not bad:
            verdict = "match"
        else:
            where = ", ".join(map(str, bad))
            verdict = f"MISMATCH at degree{'s' if len(bad) > 1 else ''} {where}"
        return f"{self.spec} over {self.dom}: {verdict}"


# Bounded so a long-running process keeps bounded memory, and sized above the
# acceptance grid's 95 specs, so a pass over the grid over Z, F2 and F3
# builds each complex once.
_FACTORS_CACHE_SIZE = 128


@lru_cache(maxsize=_FACTORS_CACHE_SIZE)
def _cached_factors(spec: TupleSpec, cap: int) -> tuple[tuple[int, ...], tuple]:
    """Cell counts and boundary invariant factors of spec's complex, one
    degree at a time: for each d, build d_d's twist-0 triples, check d o d
    on them against d_{d-1}'s (`_check_degree`), keep them for degree d + 1,
    and only then make d_d's columns from them (`_columns`), with the rows
    that d_{d-1}'s sweep took as pivots left out, and reduce those in place.
    Each column is built once, from the checked triples, so it is D's by
    construction (see `_check_dd_zero`); d_{d-1} is held only as its twist-0
    triples, and the reduced columns are not copied. The cell counts are the
    cell tuples per degree times t^(r-1); the basis is never built."""
    tuples = _cell_tuples(spec, cap)
    boundary = _boundaries(spec, tuples, _Moves(spec.t, spec.r))
    twists = spec.t ** (spec.r - 1)
    out, lower, pivots = [()], None, ()
    for d in range(1, spec.dim + 1):
        lower = _check_degree(spec, d, lower, boundary(d))
        factors, pivots = _snf_factors(_columns(lower, twists, pivots, len(tuples[d - 1]) * twists))
        out.append(factors)
    return tuple(len(row) * twists for row in tuples), tuple(out)


def compare_with_theory(spec: TupleSpec, dom: Coeff = ZZ, cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Oracle cohomology vs the predicted ring, degree by degree after
    elementary-divisor normalization. A mismatch signals a bug in one side.
    Only the factors are cached: the groups and the ring are rebuilt per
    call, as a pass over the grid compares each (spec, coefficient) once."""
    from .cohomology import CohomologyRing, graded_groups, resolve_mode

    groups = _homology_groups(*_cached_factors(spec, cap), dom)
    oracle_side = cohomology_from_homology(HomologyResult(groups, dom), spec.dim)
    oracle_side = oracle_side.normalized()
    theory_side = graded_groups(CohomologyRing(spec, resolve_mode(spec, dom))).normalized()
    rows = []
    ok = True
    for d in range(spec.dim + 1):
        th = (theory_side.free_rank(d), theory_side.torsion(d))
        orc = (oracle_side.free_rank(d), oracle_side.torsion(d))
        match = th == orc
        ok = ok and match
        rows.append((d, th, orc, match))
    return ComparisonReport(spec, dom, ok, tuple(rows))
