"""Brute-force homology oracle.

Builds the free Z[Z_t]-equivariant cell complex of a product of odd spheres
(one cell per dimension per factor, boundary alternating between lambda - 1
and the norm element), passes to the quotient by the diagonal action, and
takes one exact Smith normal form per boundary map. Integral, rational and
mod-p homology all follow from those invariant factors: over F_p the rank of
a boundary is the number of its factors that p does not divide (universal
coefficients). A comparison routine reads cohomology off them by universal
coefficients, one (free, torsion) row per degree, and matches each row
against the predicted ring's basis in that degree.

Boundaries are stored column-major, one {row: value} map per cell, and the
SNF reduces those columns in place. Z_t^(r-1) acts on the quotient by
translating the twists, and the boundary commutes with that action, so each
cell tuple's boundary is worked out once, at twist 0, as a template, and
moved to the other twists. The exact d o d = 0 check rests on the same
symmetry: d o d = 0 on the twist-0 columns, with every column the twist-0
one moved, gives d o d = 0 on every column (see `_quotient`). The SNF
is a sparse unit-pivot elimination (Dumas-Saunders-Villard, "On efficient
sparse integer matrix Smith normal forms", JSC 2001) in passes over the
columns, shortest first (see `_snf_factors`), then a dense SNF of the small
residual: a diagonal by least-remainder pivots, then gcd/lcm exchanges (see
`_dense_snf`). The boundaries are reduced in order, each with compression
(Bauer-Kerber-Reininghaus, "Clear and Compress", 2014): the rows of d_{d+1}
at the unit-pivot columns of d_d are left out, exact over Z since d o d = 0
is checked before.

`product_quotient_complex` builds the whole quotient complex: the templates
come from one builder, `_boundaries`, one degree per call, `_quotient` sends
g to 1 and checks d o d on each degree before it hands it on, and `_columns`
moves them to every twist, so every column is made from checked triples.
The comparison (`_cached_factors`) does not build it. Before the quotient
the product is a free Z[Z_t]-complex, and in the basis a (x) g^c b each
boundary entry of a tensor step is one monomial alpha g^k, most of them
units +-g^k of Z[Z_t]. So it tensors the spheres on one at a time over
Z[Z_t] (`_tensor`), checks d o d, eliminates every unit entry
(`_eliminate`, Gaussian elimination of chain complexes) and checks d o d
again, which leaves a few generators: for (2,2,2;6), 12 in place of
S_1 (x) S_2's 216. Only the last sphere is tensored on together with the
quotient, a complex of 432 cells in place of 7,776; it goes through the
same `_quotient`, one checked degree at a time, and is reduced as it comes,
the rows compression drops never built. Elimination over Z[Z_t] is a
homotopy equivalence that survives the later tensor steps and the quotient,
so the small quotient's cell counts and factors give the whole one's
homology over Z and, after (x) F_p, over every F_p; they are all the
comparison keeps.

There is no oracle for t = INFINITY: the circle quotient is not a finite free
quotient. That regime is validated elsewhere (duality, Euler characteristics,
wedge bookkeeping, the Gysin sequence of the circle bundle).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from typing import Callable, Iterator, NamedTuple

from .algebra import Coeff, GradedAbGroup, TupleSpec, ZZ, elementary_divisors

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
        _check_ring(f"S^{self.dim}", _sphere_factor(self.diffs), self.t, 1)


def sphere_complex(n: int, t: int) -> EquivariantComplex:
    """Minimal free Z_t-cell structure on S^{2n+1}: one cell per degree,
    even boundaries the norm element, odd boundaries lambda - 1."""
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    if n < 0:
        raise ValueError("n must be non-negative")
    odd = (-1, 1) + (0,) * (t - 2) if t > 1 else (0,)  # lambda - 1, as coefficients of g^k
    diffs = (None,) + tuple(odd if d % 2 else (1,) * t for d in range(1, 2 * n + 2))
    cx = EquivariantComplex(t, 2 * n + 1, diffs)
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


def _check_cap(spec: TupleSpec, cap: int) -> None:
    """Refuse spec when its whole quotient complex is above the cap in cells
    or in boundary entries."""
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


def _product_tuples(degrees, sizes: list) -> list[list]:
    """The cell tuples (x, j_2..j_m) of each degree, in product order: x a
    generator of the first factor, of degree degrees[x], and j_i < sizes[i]
    a cell of a sphere."""
    tuples: list[list] = [[] for _ in range(max(degrees) + sum(sizes) - len(sizes) + 1)]
    for cells in product(range(len(degrees)), *map(range, sizes)):
        tuples[degrees[cells[0]] + sum(cells[1:])].append(cells)
    return tuples


def _sphere_factor(diffs: tuple) -> tuple[list, list]:
    """A sphere's complex as a free Z[Z_t]-complex (degrees, cols): the
    generator e_j has degree j, and cols[j] lists the terms (j - 1, k, c) of
    its boundary, the sum of c g^k e_{j-1}."""
    cols = [[(j - 1, k, c) for k, c in enumerate(diffs[j]) if c] for j in range(1, len(diffs))]
    return list(range(len(diffs))), [[]] + cols


def _boundaries(first: tuple, spheres: list, t: int, tuples: list) -> Callable:
    """The boundaries of first (x) S_2 (x) .. (x) S_m over R = Z[Z_t], under
    the diagonal action, as a function of the degree, so a caller holds only
    the degrees it is using. first is a free R-complex (degrees, cols) in
    the form `_sphere_factor` gives, spheres are the group-ring boundaries of
    the other factors, and the free generators are
    c (x) g^{a_2} e_{j_2} (x) .. (x) g^{a_m} e_{j_m}, c a generator of
    first, with cell tuple (c, j_2, .., j_m) and twists a_i in Z_t. With
    T = t^(m-1), the generator sits at position k T + code(a), k the rank
    of its cell tuple among tuples[d] (see QuotientComplex).

    boundary(d) returns one template per cell tuple of degree d: the
    {(face, x, k): coefficient} terms of its twist-0 column, the term at row
    face + x times g^k, face = k' T the position of the face's cell tuple
    and x < T a twist code. A term alpha g^k of the boundary of c moves every
    twist by -k and keeps g^k; a term beta g^l of the boundary of e_{j_i}
    moves a_i by l, carries the Koszul sign of the degrees before it, and
    no g. The column at the twists h is the template with x moved by h."""
    degrees, cols = first
    r = len(spheres) + 1
    twists = t ** (r - 1)
    ones = sum(t**k for k in range(r - 1))

    def boundary(d: int) -> list:
        start = {cells: k * twists for k, cells in enumerate(tuples[d - 1])}
        out: list = []
        for cells in tuples[d]:
            template: dict = {}
            rest = cells[1:]
            for c, k, coef in cols[cells[0]]:
                key = start[(c,) + rest], -k % t * ones, k
                template[key] = template.get(key, 0) + coef
            degree = degrees[cells[0]]
            for i, j in enumerate(rest, 1):
                if j:
                    sign = -1 if degree % 2 else 1
                    face = start[cells[:i] + (j - 1,) + cells[i + 1 :]]
                    for c, coef in enumerate(spheres[i - 1][j]):
                        if coef:
                            key = face, c * t ** (r - 1 - i), 0
                            template[key] = template.get(key, 0) + sign * coef
                degree += j
            out.append(template)
        return out

    return boundary


def _quotient(spec: TupleSpec, first: tuple, spheres: list, tuples: list) -> Iterator[list]:
    """The quotient by the action (g -> 1) of the complex `_boundaries`
    makes from first, spheres and tuples, one degree at a time, each checked
    before it is yielded. For d = 1, 2, .. it sums d_d's templates over k:
    for each cell tuple of degree d, one (face, moves[x], value) triple per
    nonzero sum of its (face, x, k) terms, the twist-0 triples. It composes
    d_{d-1} with each twist-0 column, reading the column of d_{d-1} at
    k' T + h as degree d - 1's triples of k' moved by h, and raises unless
    that is zero; only then does it yield d_d's triples, which `_columns`
    moves to the other twists.

    Why the twist-0 columns suffice: write s_h for the move
    k T + x -> k T + code(x + h) of cell positions (QuotientComplex), an
    action of Z_t^(r-1) on every degree, and D for the map whose column at
    s_h c, c a twist-0 cell, is s_h applied to c's twist-0 column, as
    `_columns` makes it. So D s_h c = s_h D c for each twist-0 c; every cell
    is some s_g c, so D s_h (s_g c) = s_{h+g} D c = s_h s_g D c =
    s_h D (s_g c): D commutes with every s_h on every cell. The check says
    D D c = 0 for each twist-0 c; so D D (s_h c) = s_h D D c = 0, and D, the
    map whose columns the callers make, is a chain complex."""
    t = spec.t
    twists = t ** len(spheres)
    moves = _Moves(t, len(spheres) + 1)
    boundary = _boundaries(first, spheres, t, tuples)
    lower = [[]] * len(tuples[0])  # d_0 = 0
    for d in range(1, len(tuples)):
        upper = []
        for template in boundary(d):
            merged: dict = {}
            for (face, x, _), v in template.items():
                merged[face, x] = merged.get((face, x), 0) + v
            upper.append([(face, moves[x], v) for (face, x), v in merged.items() if v])
        for top in upper:
            acc: dict = {}
            for mid, tr, v in top:  # an entry at the twist-0 cell mid moved by h
                h = tr[0]
                for face, tr2, w in lower[mid // twists]:
                    row = face + tr2[h]
                    acc[row] = acc.get(row, 0) + v * w
            if any(acc.values()):
                raise AssertionError(f"d o d != 0 at degree {d} of {spec}")
        lower = upper  # before the yield, so degree d - 1's triples are freed
        yield upper


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
    identity. The boundaries are the `_columns` of the triples `_quotient`
    yields, with no rows cleared, so each degree is checked before its
    columns are made."""
    _check_cap(spec, cap)
    spheres = [sphere_complex(ni, spec.t).diffs for ni in spec.n]
    first = _sphere_factor(spheres[0])
    tuples = _product_tuples(first[0], [len(diffs) for diffs in spheres[1:]])
    twists = spec.t ** (spec.r - 1)
    boundaries = (None,) + tuple(
        tuple(_columns(triples, twists, (), len(tuples[d - 1]) * twists))
        for d, triples in enumerate(_quotient(spec, first, spheres[1:], tuples), 1)
    )
    twist_tuples = list(product(range(spec.t), repeat=spec.r - 1))
    basis = tuple(tuple((cells, h) for cells in row for h in twist_tuples) for row in tuples)
    return QuotientComplex(spec, basis, boundaries)


# ---------------------------------------------------------------------------
# Gaussian elimination over Z[Z_t]


def _tensor(first: tuple, diffs: tuple, t: int) -> tuple[list, list]:
    """first (x) S over R = Z[Z_t] under the diagonal action, as a free
    R-complex (degrees, cols) in the form of `_sphere_factor`: the generator
    of cell tuple k and twist c has the position k t + c after the lower
    degrees', and its column is the twist-0 template of `_boundaries` moved
    by 1 (x) g^c, (a, c', b) -> (a, c' + c, b)."""
    tuples = _product_tuples(first[0], [len(diffs)])
    boundary = _boundaries(first, [diffs], t, tuples)
    degrees: list = []
    cols: list = []
    below = 0  # the position of degree d - 1's first generator
    for d, row in enumerate(tuples):
        here = len(cols)
        for template in boundary(d) if d else [{}] * len(row):
            for c in range(t):
                cols.append([(below + face + (x + c) % t, k, v) for (face, x, k), v in template.items() if v])
        degrees += [d] * (len(cols) - here)
        below = here
    return degrees, cols


def _check_ring(name: str, cx: tuple, t: int, step: int) -> None:
    """d o d = 0 over Z[Z_t] on the columns 0, step, 2 step, .. of the free
    R-complex cx, accumulated by (row, power of g); name is the complex's
    name in the error. A tensor step makes every column by moving its c = 0
    template with 1 (x) g, which commutes with d and with the action, so its
    c = 0 columns (step t) prove d o d on all, as the twist-0 ones do for
    `_quotient`; a sphere and an eliminated complex are checked whole
    (step 1)."""
    degrees, cols = cx
    for x in range(0, len(cols), step):
        acc: dict = {}
        for mid, k, v in cols[x]:
            for row, k2, w in cols[mid]:
                key = row, (k + k2) % t
                acc[key] = acc.get(key, 0) + v * w
        if any(acc.values()):
            raise AssertionError(f"d o d != 0 over Z[Z_t] at degree {degrees[x]} of {name}")


def _eliminate(cx: tuple, t: int) -> tuple[list, list]:
    """Gaussian elimination of the free R-complex cx over R = Z[Z_t]
    (Bar-Natan, "Fast Khovanov homology computations", JKTR 2007; Skoldberg,
    "Morse theory from an algebraic viewpoint", Trans. AMS 2006), degree by
    degree upwards, on every unit entry u = +-g^k; returns the smaller
    complex in the same form, its generators renumbered in order.

    A pivot u at row rho, column sigma of d_d removes sigma and rho: every
    other column x of d_d becomes D[y][x] - D[rho][x] u^-1 D[y][sigma], the
    Schur complement, row sigma is dropped from d_{d+1} and column rho from
    d_{d-1}. By the Gaussian elimination lemma the result is homotopy
    equivalent to cx over R; R is commutative and u a unit, so the maps and
    homotopies are R-linear. Pivots in d_{d+1} leave the entries of d_d
    alone, so one pass upwards leaves no unit entry.

    Why the quotient keeps its homology: A ~ A' over R gives
    A (x) S ~ A' (x) S under the diagonal action, since f (x) 1 and the
    homotopies h (x) 1 (with the Koszul sign) commute with g (x) g, and the
    additive functor - (x)_R Z keeps homotopy equivalences. So each tensor
    step may start from the eliminated complex of the one before, and the
    last step's quotient has the homology of the whole quotient complex."""
    degrees, flat = cx
    # {x: {row: {k: coefficient}}} per degree, and an empty one above the top
    levels: list = [{} for _ in range(max(degrees) + 2)]
    for x, col in enumerate(flat):
        entries = levels[degrees[x]][x] = {}
        for row, k, v in col:
            entries.setdefault(row, {})[k] = v
    for d in range(1, len(levels) - 1):
        cols = levels[d]
        found = True
        while found:
            found = False
            for sigma in list(cols):
                col = cols[sigma]
                units = (
                    (rho, k, v) for rho, e in col.items() if len(e) == 1 for k, v in e.items() if v in (1, -1)
                )
                unit = next(units, None)
                if unit is None:
                    continue
                rho, k, s = unit
                del cols[sigma], col[rho]
                for other in cols.values():
                    delta = other.pop(rho, None)
                    if delta is None:
                        continue
                    for y, gamma in col.items():
                        e = other.setdefault(y, {})
                        for k1, a in delta.items():
                            for k2, b in gamma.items():
                                kk = (k1 + k2 - k) % t
                                w = e.get(kk, 0) - a * s * b  # u^-1 = s g^-k
                                if w:
                                    e[kk] = w
                                else:
                                    del e[kk]
                        if not e:
                            del other[y]
                for above in levels[d + 1].values():
                    above.pop(sigma, None)
                del levels[d - 1][rho]
                found = True
    kept = sorted(x for level in levels for x in level)
    new = {x: i for i, x in enumerate(kept)}
    return [degrees[x] for x in kept], [
        [(new[row], k, v) for row, e in levels[degrees[x]][x].items() for k, v in e.items()] for x in kept
    ]


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
    """Invariant factors of a dense integer matrix, a list of rows that is
    reduced in place, in divisibility order (zero factors dropped).

    First a diagonal D = U mat V, U and V unimodular: pivot on an entry of
    least absolute value, subtract quotient multiples of its row from the
    other rows and of its column from the other columns, and take the least
    nonzero remainder, smaller than the pivot, as the next pivot, until the
    pivot's row and column are clear; then drop both. With its column clear,
    the column steps change only the pivot's row. Then the divisibility
    chain of the diagonal, by `elementary_divisors`, behind its 1s."""
    diagonal = []
    while any(map(any, mat)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v)
        while True:
            prow, p = mat[i], mat[i][j]
            for k, row in enumerate(mat):
                if k != i and (q := row[j] // p):
                    mat[k] = [a - q * b for a, b in zip(row, prow)]
            column = [(abs(row[j]), k) for k, row in enumerate(mat) if k != i and row[j]]
            if column:
                i = min(column)[1]
                continue
            prow = mat[i] = [v % p for v in prow]
            prow[j] = p
            row = [(abs(v), k) for k, v in enumerate(prow) if v and k != j]
            if not row:
                break
            j = min(row)[1]
        diagonal.append(abs(p))
        del mat[i]
        for row in mat:
            del row[j]
    chain = elementary_divisors(diagonal)  # it drops the 1s
    return (1,) * (len(diagonal) - len(chain)) + chain


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


def _homology_rows(cells: tuple, factors: tuple, dom: Coeff) -> list:
    """H_d as (free rank, torsion) for each degree d, from the cell counts
    and the boundary invariant factors. Over F_p a boundary's rank counts the
    factors p does not divide, since its SNF D = U d V has U, V unimodular
    and so invertible mod p. Each boundary's factors are a divisibility
    chain, so its 1s come first and only the factors after them are read one
    by one. Over Z the non-unit factors of d_{d+1} are H_d's torsion."""
    factors = factors + ((),)  # the map out of the top degree is zero
    units = [fs.count(1) for fs in factors]
    if dom.kind == "Fp":
        rank = [u + sum(1 for q in fs[u:] if q % dom.p) for u, fs in zip(units, factors)]
    else:
        rank = [len(fs) for fs in factors]
    return [
        (n - rank[d] - rank[d + 1], () if dom.is_field else factors[d + 1][units[d + 1] :])
        for d, n in enumerate(cells)
    ]


def _homology_groups(cells: tuple, factors: tuple, dom: Coeff) -> GradedAbGroup:
    """H_* as a graded group, from `_homology_rows`."""
    return GradedAbGroup.of(dict(enumerate(_homology_rows(cells, factors, dom))))


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
    """Cell counts and boundary invariant factors of a quotient complex with
    the homology of spec's, over Z and so over every F_p, after refusing spec
    as `product_quotient_complex` would. The first sphere is a free
    Z[Z_t]-complex; each further sphere but the last is tensored on
    (`_tensor`), d o d is checked on the c = 0 columns (`_check_ring`), every
    unit entry is eliminated (`_eliminate`) and the result is checked whole.
    The last sphere is tensored on and the quotient taken by `_quotient`, one
    checked degree at a time; d_d's columns are made from its triples
    (`_columns`) with the rows that d_{d-1}'s sweep took as pivots left out,
    and reduced in place. For r <= 2 nothing is eliminated, and the result is
    the whole quotient complex's."""
    _check_cap(spec, cap)
    t = spec.t
    built = {ni: sphere_complex(ni, t).diffs for ni in set(spec.n)}  # each distinct sphere once
    spheres = [built[ni] for ni in spec.n]
    first = _sphere_factor(spheres[0])
    for diffs in spheres[1:-1]:
        cx = _tensor(first, diffs, t)
        _check_ring(spec, cx, t, t)
        first = _eliminate(cx, t)
        _check_ring(spec, first, t, 1)
    last = spheres[1:][-1:]
    tuples = _product_tuples(first[0], [len(diffs) for diffs in last])
    twists = t ** len(last)
    out, pivots = [()], ()
    for d, triples in enumerate(_quotient(spec, first, last, tuples), 1):
        factors, pivots = _snf_factors(_columns(triples, twists, pivots, len(tuples[d - 1]) * twists))
        out.append(factors)
    return tuple(len(row) * twists for row in tuples), tuple(out)


def compare_with_theory(spec: TupleSpec, dom: Coeff = ZZ, cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Oracle cohomology vs the predicted ring, one (free rank, elementary
    divisors) row per degree on each side. A mismatch signals a bug in one
    side. The oracle's row d is universal coefficients on the cached factors:
    the free rank of H_d and the non-unit factors of d_d, the torsion of
    H_{d-1} (none over a field); the theory's counts the degree-d monomials
    of a freshly built ring by their torsion orders. Only the factors are
    cached, as a pass over the grid compares each (spec, coefficient) once."""
    from .cohomology import CohomologyRing, resolve_mode

    homology = _homology_rows(*_cached_factors(spec, cap), dom)
    ring = CohomologyRing(spec, resolve_mode(spec, dom))
    rows, below = [], ()  # below: the torsion of H_{d-1}
    for d in range(spec.dim + 1):
        free, tors = homology[d]
        orders = [ring.factor.torsion[m.base] for m in ring.basis_by_degree.get(d, ())]
        th = (orders.count(0), elementary_divisors(orders) if any(orders) else ())  # it drops the 0s
        orc = (free, below)  # a boundary's factors already form a chain
        rows.append((d, th, orc, th == orc))
        below = tors
    return ComparisonReport(spec, dom, all(row[3] for row in rows), tuple(rows))
