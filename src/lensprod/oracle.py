"""Brute-force homology oracle.

Builds the free Z[Z_t]-equivariant cell complex of a product of odd spheres
(one cell per dimension per factor, boundary alternating between lambda - 1
and the norm element), passes to the quotient by the diagonal action, and
takes one exact Smith normal form per boundary map. Integral, rational and
mod-p homology all follow from those invariant factors: over F_p the rank of
a boundary is the number of its factors that p does not divide (universal
coefficients). A comparison routine reads cohomology off them by universal
coefficients, one (free, torsion) row per degree, and matches each row
against the predicted ring's counts in that degree.

Boundaries are stored column-major, one {row: value} map per cell, and the
SNF reduces those columns in place. The SNF is a sparse unit-pivot
elimination (Dumas-Saunders-Villard, "On efficient sparse integer matrix
Smith normal forms", JSC 2001) in passes over the columns, shortest first
(see `_snf_factors`), then a dense SNF of the small residual: a diagonal by
least-remainder pivots, then gcd/lcm exchanges (see `_dense_snf`). The
whole complex's boundaries are reduced in order, each with compression
(Bauer-Kerber-Reininghaus, "Clear and Compress", 2014): the rows of d_{d+1}
at the unit-pivot columns of d_d are left out, exact over Z since d o d = 0
is checked before.

Every complex is built by one fold: the spheres are tensored on one at a
time over Z[Z_t] under the diagonal action (`_step`), and each step's d o d
is checked over Z[Z_t] (`_check_step`). In the basis x (x) g^c e_j each
boundary entry is one monomial alpha g^k, and the column at twist c is the
c = 0 one moved by c, so a step keeps only its c = 0 columns. The
comparison folds each prefix (n_1..n_k; t) once (`_fold`), reducing each
step by the sphere's acyclic matching (`_reduce`, algebraic Morse theory),
whose pivots are its +-1 entries, and checking d o d over Z[Z_t] again; a
spec's factors come from the quotient (g -> 1) of its fold, checked over Z
(`_cached_factors`). That leaves 2^(r-1) (2 n_1 + 2) cells at any t: for
(2,2,2;6), 24 in place of the whole quotient's 7,776. The reduction is a
homotopy equivalence over Z[Z_t] that survives the later tensor steps and
the quotient, so the small complex's cell counts and factors give the whole
one's homology over Z and every F_p. `product_quotient_complex` runs the
steps without the reduction, lists each degree in sorted label order and
sends it to the quotient (`_sum_out`), which gives the whole quotient
complex.

There is no oracle for t = INFINITY: the circle quotient is not a finite free
quotient. That regime is validated elsewhere (duality, Euler characteristics,
wedge bookkeeping, the Gysin sequence of the circle bundle).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import prod
from typing import NamedTuple

from .algebra import Coeff, GradedAbGroup, TupleSpec, ZZ, elementary_divisors
from .cohomology import build_ring

__all__ = [
    "DEFAULT_CAP",
    "MemoryCapError",
    "EquivariantComplex",
    "QuotientComplex",
    "HomologyResult",
    "ComparisonReport",
    "sphere_complex",
    "product_quotient_complex",
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
        _check_ring(f"S^{self.dim}", _sphere_factor(self.diffs), self.t)


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
    (cells j_1..j_r, twists a_2..a_r) of degree d, the images of
    e_{j_1} (x) g^{a_2} e_{j_2} (x) .. (x) g^{a_r} e_{j_r}, sorted;
    boundaries[d] is the boundary into degree d-1 in column-major form:
    boundaries[d][col] is the {row: int} map of the nonzero entries of the
    boundary of basis[d][col] (boundaries[0] is None). Z_t^(r-1) acts on
    every degree by adding to the twists mod t, and the boundary commutes
    with that action."""

    spec: TupleSpec
    basis: tuple
    boundaries: tuple

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis) - 1


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
    # count; for r = 1 it counts the coefficients the build sums.
    entries = sum(total // (2 * ni + 2) * ((2 * ni + 2) * (t > 1) + ni * t) for ni in spec.n)
    if entries > ENTRIES_PER_CELL * cap:
        raise MemoryCapError(
            f"quotient boundaries have {entries} entries, "
            f"above {ENTRIES_PER_CELL} times the cap {cap}"
        )


def _sphere_factor(diffs: tuple) -> tuple[list, list]:
    """A sphere's complex as a free Z[Z_t]-complex (degrees, cols): the
    generator e_j has degree j, and cols[j] lists the terms (j - 1, k, c) of
    its boundary, the sum of c g^k e_{j-1}."""
    cols = [[(j - 1, k, c) for k, c in enumerate(diffs[j]) if c] for j in range(1, len(diffs))]
    return list(range(len(diffs))), [[]] + cols


def _one_sphere(diffs: tuple) -> list:
    """The quotient of one sphere (g -> 1) as the terms of a step with one
    twist: the boundary of e_d is the sum of its group-ring coefficients
    times e_{d-1}."""
    return [[[]]] + [[[(0, 0, 0, sum(c))] if sum(c) else []] for c in diffs[1:]]


def _step(first: tuple, cells: list, t: int, key=None) -> tuple[list, list]:
    """One tensor step: first (x) S over R = Z[Z_t] under the diagonal
    action, first a free R-complex (degrees, cols) and cells the cols of the
    sphere S, both in the form `_sphere_factor` gives. Returns (pairs,
    terms): pairs[d] lists the pairs (x, j) of a generator x of first and a
    cell e_j of S with degrees[x] + j = d, sorted by key (in product order
    when key is None); the generators x (x) g^c e_j of the i-th pair sit at
    the positions i t + c of degree d, and terms[d][i] is their c = 0 column.

    A term (face, h, k, v) stands, in the column at twist c, for v g^k times
    the generator at position face + (h + c) % t of degree d - 1. A term
    alpha g^k y of the boundary of x gives alpha g^k (y (x) g^(c-k) e_j):
    face is the position of (y, j) and h = -k. A term beta g^l of the
    boundary of e_j gives beta x (x) g^(c+l) e_{j-1}, with the Koszul sign of
    x's degree: face is the position of (x, j - 1), h = l and k = 0. A
    column of first holds each (row, power) once, so no two terms of one
    column share a (face, h)."""
    degrees, cols = first
    pairs: list[list] = [[] for _ in range(max(degrees) + len(cells))]
    for x, degree in enumerate(degrees):
        for j in range(len(cells)):
            pairs[degree + j].append((x, j))
    for row in pairs:
        row.sort(key=key)
    face = [[0] * len(degrees) for _ in cells]  # face[j][x]: the position of (x, j)
    for row in pairs:
        for i, (x, j) in enumerate(row):
            face[j][x] = i * t
    terms = []
    for row in pairs:
        out = []
        for x, j in row:
            at = face[j]
            col = [(at[y], -k % t, k, v) for y, k, v in cols[x]]
            if j:
                sign = -1 if degrees[x] % 2 else 1
                col += [(face[j - 1][x], l, 0, sign * b) for _, l, b in cells[j]]
            out.append(col)
        terms.append(out)
    return pairs, terms


def _check_step(name, terms: list, t: int, checked=None) -> None:
    """d o d = 0 over Z[Z_t] on a step's c = 0 columns, or on those of the
    pairs checked[d] lists for each degree d, accumulated by the key
    row t + power of g; name is the complex's name in the error. The column
    at twist c is the c = 0 one moved by 1 (x) g^c, which commutes with d and
    with the action, so the c = 0 columns prove d o d on all."""
    wrap = list(range(t)) * 2  # wrap[a] = a % t for a < 2 t
    for d in range(2, len(terms)):
        lower = terms[d - 1]
        for i in range(len(terms[d])) if checked is None else checked[d]:
            acc: dict = {}
            for face, h, k, v in terms[d][i]:
                for face2, h2, k2, w in lower[face // t]:
                    key = (face2 + wrap[h + h2]) * t + wrap[k + k2]
                    acc[key] = acc.get(key, 0) + v * w
            if any(acc.values()):
                raise AssertionError(f"d o d != 0 over Z[Z_t] at degree {d} of {name}")


def _free(terms: list, t: int) -> tuple[list, list]:
    """A step as an explicit free R-complex (degrees, cols) in the form of
    `_sphere_factor`: the generator at position i t + c of degree d follows
    the lower degrees' generators, and its column is the c = 0 column of the
    i-th pair moved by c."""
    degrees: list = []
    cols: list = []
    below = 0  # the position of degree d - 1's first generator
    for d, row in enumerate(terms):
        here = len(cols)
        for col in row:
            for c in range(t):
                cols.append([(below + face + (h + c) % t, k, v) for face, h, k, v in col])
        degrees += [d] * (len(cols) - here)
        below = here
    return degrees, cols


def _sum_out(row: list, nrows: int, t: int) -> list:
    """One degree of a step, terms[d], sent to the quotient (g -> 1): the
    column at position i t + c is {face + (h + c) % t: v} over the terms of
    row[i]. No two terms of a column share a (face, h), so no two share a
    row. The rows are one int per row of the nrows, shared by the columns."""
    rows = list(range(nrows))
    # block[face][h + c] is the row face + (h + c) % t, face a multiple of t
    block = [rows[face : face + t] * 2 if face % t == 0 else None for face in range(nrows)]
    return [{block[face][h + c]: v for face, h, _, v in col} for col in row for c in range(t)]


def product_quotient_complex(spec: TupleSpec, cap: int = DEFAULT_CAP) -> QuotientComplex:
    """The whole quotient complex, by the tensor steps of `_fold` without
    the reduction: each step keeps the label (cells, twists) of every
    generator and sorts each degree's pairs by it, so the last step's
    generators are the basis in sorted order, and its degrees, sent to the
    quotient (`_sum_out`) top down and each freed once used, the boundaries.
    Every step is checked before the next, the last before any columns."""
    _check_cap(spec, cap)
    t = spec.t
    spheres = [sphere_complex(ni, t).diffs for ni in spec.n]
    if spec.r == 1:
        terms, twists = _one_sphere(spheres[0]), 1
        basis = [[((d,), ())] for d in range(len(terms))]
    else:
        first = _sphere_factor(spheres[0])
        labels, twists = [((j,), ()) for j in first[0]], t
        for m, diffs in enumerate(spheres[1:], 2):
            cells_of = [[cells + (j,) for j in range(len(diffs))] for cells, _ in labels]  # [x][j]
            pairs, terms = _step(first, _sphere_factor(diffs)[1], t, lambda p: (cells_of[p[0]][p[1]], labels[p[0]][1]))
            # Checked on the pairs whose inner twists are all 0: s_h, adding h
            # to the twists, commutes with each step's D by induction (D on
            # (s_h x, j) is the rule applied to D' s_h x = s_h D' x, and the
            # column at c is the c = 0 one moved), every generator is s_h z
            # for such a pair's z at c = 0, and D D s_h z = s_h D D z = 0.
            untwisted = [[i for i, (x, _) in enumerate(row) if not any(labels[x][1])] for row in pairs]
            _check_step(spec, terms, t, untwisted)
            twists_of = {twist: [twist + (c,) for c in range(t)] for _, twist in labels}
            basis = [
                [(cells_of[x][j], twist) for x, j in row for twist in twists_of[labels[x][1]]] for row in pairs
            ]
            if m < spec.r:
                first, labels = _free(terms, t), [label for row in basis for label in row]
    boundaries = [_sum_out(terms.pop(), len(basis[d - 1]), twists) for d in range(len(terms) - 1, 0, -1)]
    return QuotientComplex(spec, tuple(map(tuple, basis)), (None,) + tuple(map(tuple, reversed(boundaries))))


# ---------------------------------------------------------------------------
# the Morse reduction of a tensor step


def _check_ring(name: str, cx: tuple, t: int) -> None:
    """d o d = 0 over Z[Z_t] on every column of the free R-complex cx,
    accumulated by (row, power of g); name is the complex's name in the
    error. Checks a sphere and a reduced step whole, and with t = 1 the
    reduced quotient over Z."""
    degrees, cols = cx
    for x, col in enumerate(cols):
        acc: dict = {}
        for mid, k, v in col:
            for row, k2, w in cols[mid]:
                key = row, (k + k2) % t
                acc[key] = acc.get(key, 0) + v * w
        if any(acc.values()):
            raise AssertionError(f"d o d != 0 over {'Z' if t == 1 else 'Z[Z_t]'} at degree {degrees[x]} of {name}")


def _reduce(pairs: list, terms: list, t: int, top: int) -> list:
    """A checked step (pairs, terms), as `_step` returns it for a sphere S
    with top cell e_top, reduced by S's own acyclic matching (Skoldberg,
    "Morse theory from an algebraic viewpoint", Trans. AMS 2006;
    Jollenbeck-Welker, "Minimal resolutions via algebraic discrete Morse
    theory", Mem. AMS 2009). Returns the Morse complex's columns degree by
    degree, one {row t + k: v} map per critical cell, for v g^k times the
    row-th critical cell of the degree below.

    On each fibre x (x) S it matches g^c e_j, j odd, with g^(c+1) e_(j-1)
    for c < t - 1, and e_j, j even and >= 2, with g^(t-1) e_(j-1), which
    leaves x (x) e_0 and x (x) g^(t-1) e_top critical. The pivot is S's own
    entry u = +-1 = u^-1, with k = 0. A boundary leaves x's fibre only for
    those of x's faces, whose pairs come before x's in each degree, so the
    matching is acyclic, and going up the degrees, pairs in order and twists
    ascending, meets every flow it reads made. The flow pi is 0 on a cell
    matched downwards and the cell on a critical one; for tau matched with
    sigma, D sigma = u tau + sum a rho, pi(tau) = -u sum a pi(rho). A
    critical cell's column is pi of its boundary.

    Why the quotient keeps its homology: the fibre is R (x) S over Z, so the
    reduction's maps and homotopy are R-linear and the Morse complex is
    homotopy equivalent to the step over R = Z[Z_t]. A ~ A' over R gives
    A (x) S ~ A' (x) S under the diagonal action, since f (x) 1 and the
    homotopies h (x) 1 (with the Koszul sign) commute with g (x) g, and
    - (x)_R Z keeps homotopy equivalences. So each step may start from the
    reduced complex of the one before, and the quotient of the last reduced
    complex has the whole quotient's homology."""
    wrap = list(range(t)) * 2  # wrap[a] = a % t for a < 2 t
    out = []
    below: list = []  # the flows of degree d - 1, by position
    for d, row in enumerate(pairs):
        partner = {x: i for i, (x, _) in enumerate(pairs[d + 1])} if d + 1 < len(pairs) else {}
        flows: list = [()] * (len(row) * t)  # a flow: (row t, p, w) for w g^p times a critical cell
        cols = []
        for i, (x, j) in enumerate(row):
            if j == 0 or j == top:
                c = 0 if j == 0 else t - 1
                acc: dict = {}
                for face, h, k, v in terms[d][i]:
                    for base, p, w in below[face + wrap[h + c]]:
                        key = base + wrap[p + k]
                        acc[key] = acc.get(key, 0) + v * w
                flows[i * t + c] = ((len(cols) * t, 0, 1),)
                cols.append({key: w for key, w in acc.items() if w})
            # (c, c') for g^c e_j matched with g^c' e_(j+1): c >= 1 for j even, t - 1 for j odd
            for c, c2 in [(c, c - 1) for c in range(1, t)] if j % 2 == 0 else [(t - 1, 0)] if j < top else ():
                acc, tau = {}, i * t + c
                for face, h, k, v in terms[d + 1][partner[x]]:
                    at = face + wrap[h + c2]
                    if at == tau:
                        u = v
                        continue
                    for base, p, w in flows[at]:
                        key = base + wrap[p + k]
                        acc[key] = acc.get(key, 0) + v * w
                flows[tau] = tuple((key - key % t, key % t, -u * w) for key, w in acc.items() if w)
        out.append(cols)
        below = flows
    return out


def _glued(cols: list, t: int) -> tuple[list, list]:
    """Per-degree columns as `_reduce` (or with t = 1 `_quotient`) returns
    them, as one free Z[Z_t]-complex (degrees, cols) like `_sphere_factor`'s."""
    starts = [0, *accumulate(map(len, cols))]  # starts[d]: degree d's first generator
    return [d for d, row in enumerate(cols) for _ in row], [
        [(starts[d - 1] + key // t, key % t, v) for key, v in col.items()] for d, row in enumerate(cols) for col in row
    ]


def _quotient(fold: tuple) -> list:
    """A free R-complex (degrees, cols) sent to the quotient (g -> 1),
    degree by degree: one {row: v} map per generator, for v times the
    row-th generator of the degree below."""
    degrees, cols = fold
    out: list = [[] for _ in range(degrees[-1] + 1)]
    for d, col in zip(degrees, cols):
        acc, below = {}, bisect_left(degrees, d - 1)  # below: degree d - 1's first generator
        for row, _, v in col:
            acc[row - below] = acc.get(row - below, 0) + v
        out[d].append({row: v for row, v in acc.items() if v})
    return out


# ---------------------------------------------------------------------------
# Smith normal form


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
# acceptance grid's 95 specs and their 95 prefixes (15 spheres, 30 pairs, 50
# triples), so a pass over the grid over Z, F2 and F3 folds each prefix once.
_FACTORS_CACHE_SIZE = 128


@lru_cache(maxsize=_FACTORS_CACHE_SIZE)
def _fold(n: tuple, t: int) -> tuple[list, list]:
    """The prefix (n; t) as a reduced free R-complex (degrees, cols): a
    sphere's own complex, else the fold of n[:-1] tensored with the last
    sphere's (`_step`), checked, reduced by the sphere's matching (`_reduce`)
    and checked whole, each check naming the prefix as a TupleSpec."""
    if len(n) == 1:
        return _sphere_factor(sphere_complex(n[0], t).diffs)
    cells, name = _fold(n[-1:], t)[1], TupleSpec(n, t)
    pairs, terms = _step(_fold(n[:-1], t), cells, t)
    _check_step(name, terms, t)
    fold = _glued(_reduce(pairs, terms, t, len(cells) - 1), t)
    _check_ring(name, fold, t)
    return fold


@lru_cache(maxsize=_FACTORS_CACHE_SIZE)
def _cached_factors(spec: TupleSpec, cap: int) -> tuple[tuple[int, ...], tuple]:
    """Cell counts and boundary invariant factors of a quotient complex with
    the homology of spec's, over Z and so over every F_p, after refusing spec
    as `product_quotient_complex` would: the quotient (g -> 1) of spec's own
    fold, checked over Z (`_check_ring`). Each degree of its
    2^(r-1) (2 n_1 + 2) cells is reduced in place, uncompressed: on the grid
    and 300 random specs no composite d_d d_{d+1} of the reduced quotient had
    a nonzero term, so compression found no row to drop. For r = 1 it is the
    lens space's own complex."""
    _check_cap(spec, cap)
    cols = _quotient(_fold(spec.n, spec.t))
    _check_ring(spec, _glued(cols, 1), 1)
    return tuple(map(len, cols)), ((),) + tuple(_snf_factors(row)[0] for row in cols[1:])


def compare_with_theory(spec: TupleSpec, dom: Coeff = ZZ, cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Oracle cohomology vs the predicted ring, one (free rank, elementary
    divisors) row per degree on each side. A mismatch signals a bug in one
    side. The oracle's row d is universal coefficients on the cached factors:
    the free rank of H_d and the non-unit factors of d_d, the torsion of
    H_{d-1} (none over a field); the theory's is a freshly built ring's
    count of its degree-d monomials by torsion order. Only the factors and
    folds are cached: a pass over the grid compares each (spec, dom) once."""
    homology = _homology_rows(*_cached_factors(spec, cap), dom)
    counts = build_ring(spec, dom).counts()
    rows, below = [], ()  # below: the torsion of H_{d-1}
    for d in range(spec.dim + 1):
        free, tors = homology[d]
        row = counts.get(d, {})
        th = (row.pop(0, 0), elementary_divisors(Counter(row).elements()) if row else ())
        orc = (free, below)  # a boundary's factors already form a chain
        rows.append((d, th, orc, th == orc))
        below = tors
    return ComparisonReport(spec, dom, all(row[3] for row in rows), tuple(rows))
