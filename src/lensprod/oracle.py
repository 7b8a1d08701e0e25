"""Homology oracle.

Builds a cell complex of the quotient of a product of odd spheres by the
diagonal Z_t action, from each sphere's free Z[Z_t]-equivariant cell
structure (one cell per dimension, boundary alternating between lambda - 1
and the norm element), and reads each boundary map's invariant factors off
its diagonal. Integral, rational and mod-p homology all follow from those
factors: over F_p the rank of a boundary is the number of its factors that
p does not divide (universal coefficients). A comparison routine reads
cohomology off them by universal coefficients, one (free, torsion) row per
degree, and matches each row against the predicted ring's counts in that
degree.

A free Z[Z_t]-complex has one form: a list over the degrees d of columns,
one {row t + k: v} map per generator for v g^k times the row-th generator of
degree d - 1. A Z-complex is the same form with t = 1.

One pipeline builds the complex. The spheres are tensored on one at a time
over Z[Z_t] under the diagonal action (`_step`), and each step's d o d is
checked over Z[Z_t] on every column (`_check_step`). In the basis
x (x) g^c e_j each boundary entry is one monomial alpha g^k, and the column
at twist c is the c = 0 one moved by c, so a step keeps only its c = 0
columns. Each step is reduced by the sphere's acyclic matching (`_reduce`,
algebraic Morse theory), whose pivots are its +-1 entries, and checked over
Z[Z_t] again; each prefix (n_1..n_k; t) is folded once (`_fold`). A spec's
`product_quotient_complex` is the quotient (g -> 1) of its fold, checked
over Z: 2^(r-1) (2 n_1 + 2) cells at any t, for (2,2,2;6) 24 in place of the
whole quotient's 7,776. The reduction is a homotopy equivalence over
Z[Z_t] that survives the later tensor steps and the quotient, so this
complex has the whole one's homology over Z and every F_p.

Every boundary of that complex has come out diagonal up to the order of its
rows and columns: at most one entry per column, and no row shared by two
columns. That is observed, not proved, so `boundary_factors` checks it and
refuses any other shape; its factors are then the absolute entries as a
divisibility chain, with no Smith normal form.

There is no oracle for t = INFINITY: the circle quotient is not a finite free
quotient. That regime is validated elsewhere (duality, Euler characteristics,
wedge bookkeeping, the Gysin sequence of the circle bundle).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
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
    """Raised when the whole quotient complex would exceed the configured cap
    in cells, or ENTRIES_PER_CELL times the cap in boundary entries."""


class EquivariantComplex(NamedTuple):
    """Free Z[Z_t] complex with one generator per degree 0..dim; diffs[d] is
    the group-ring coefficient of the boundary of the degree-d generator."""

    t: int
    dim: int
    diffs: tuple

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
# the quotient complex and the tensor step


class QuotientComplex(NamedTuple):
    """The quotient (g -> 1) of a spec's reduced fold: an integral complex of
    2^(r-1) (2 n_1 + 2) cells, homotopy equivalent to the whole quotient
    complex of t^(r-1) prod(2 n_i + 2) cells, so with its homology over Z and
    every F_p. boundaries[d] lists degree d's cells, each as the {row: int}
    map of its boundary into degree d - 1 (empty in degree 0)."""

    spec: TupleSpec
    boundaries: tuple

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(map(len, self.boundaries))


def _check_cap(spec: TupleSpec, cap: int) -> None:
    """Refuse spec when its whole quotient complex is above the cap in cells
    or in boundary entries. Only the tests build that complex; the cap still
    bounds it, not the reduced fold the comparison builds."""
    if not spec.finite:
        raise ValueError("no finite-quotient complex exists for t = INFINITY")
    t = spec.t
    total = t ** (spec.r - 1) * prod(2 * ni + 2 for ni in spec.n)
    if total > cap:
        raise MemoryCapError(f"quotient basis has {total} cells, above the cap {cap}")
    # A column has one entry per nonzero group-ring coefficient of each
    # face's sphere boundary: 2 for lambda - 1 (none when t = 1) and t for the
    # norm element. For r >= 2 no two share a row, so this is the entry
    # count; for r = 1 it counts the coefficients the quotient sums.
    entries = sum(total // (2 * ni + 2) * ((2 * ni + 2) * (t > 1) + ni * t) for ni in spec.n)
    if entries > ENTRIES_PER_CELL * cap:
        raise MemoryCapError(
            f"quotient boundaries have {entries} entries, "
            f"above {ENTRIES_PER_CELL} times the cap {cap}"
        )


def _sphere_factor(diffs: tuple) -> list:
    """A sphere's complex as a free Z[Z_t]-complex, cx[d] listing degree d's
    columns {row t + k: v}: one generator e_d per degree, whose column is
    {k: c} over the nonzero group-ring coefficients c g^k of its boundary."""
    return [[{}]] + [[{k: c for k, c in enumerate(coeffs) if c}] for coeffs in diffs[1:]]


def _step(first: list, cells: list, t: int) -> tuple[list, list]:
    """One tensor step: first (x) S over R = Z[Z_t] under the diagonal
    action, first a free R-complex and cells the sphere S, both in the form
    `_sphere_factor` gives. Returns (pairs, terms): pairs[d] lists the
    triples (e, x, j) of the x-th generator of degree e of first and a cell
    e_j of S with e + j = d, in product order; the generators
    (e, x) (x) g^c e_j of the i-th pair sit at the positions i t + c of
    degree d, and terms[d][i] is their c = 0 column.

    A term (face, h, k, v) stands, in the column at twist c, for v g^k times
    the generator at position face + (h + c) % t of degree d - 1. A term
    alpha g^k y of the boundary of x gives alpha g^k (y (x) g^(c-k) e_j):
    face is the position of (e - 1, y, j) and h = -k. A term beta g^l of the
    boundary of e_j gives beta x (x) g^(c+l) e_{j-1}, with the Koszul sign of
    x's degree: face is the position of (e, x, j - 1), h = l and k = 0. A
    column of first holds each (row, power) once, so no two terms of one
    column share a (face, h)."""
    pairs: list[list] = [[] for _ in range(len(first) + len(cells) - 1)]
    for e, row in enumerate(first):
        for x in range(len(row)):
            for j in range(len(cells)):
                pairs[e + j].append((e, x, j))
    face = [[[0] * len(row) for row in first] for _ in cells]  # face[j][e][x]: the position of (e, x, j)
    for row in pairs:
        for i, (e, x, j) in enumerate(row):
            face[j][e][x] = i * t
    terms = []
    for row in pairs:
        out = []
        for e, x, j in row:
            at = face[j][e - 1]  # unread for e = 0, whose columns are empty
            col = [(at[key // t], -key % t, key % t, v) for key, v in first[e][x].items()]
            if j:
                at, sign = face[j - 1][e][x], -1 if e % 2 else 1
                col += [(at, l, 0, sign * b) for l, b in cells[j][0].items()]
            out.append(col)
        terms.append(out)
    return pairs, terms


def _check_step(name, terms: list, t: int) -> None:
    """d o d = 0 over Z[Z_t] on every c = 0 column of a step, accumulated by
    the key row t + power of g; name is the complex's name in the error. The
    column at twist c is the c = 0 one moved by 1 (x) g^c, which commutes
    with d and with the action, so the c = 0 columns prove d o d on all."""
    wrap = list(range(t)) * 2  # wrap[a] = a % t for a < 2 t
    for d in range(2, len(terms)):
        lower = terms[d - 1]
        for col in terms[d]:
            acc: dict = {}
            for face, h, k, v in col:
                for face2, h2, k2, w in lower[face // t]:
                    key = (face2 + wrap[h + h2]) * t + wrap[k + k2]
                    acc[key] = acc.get(key, 0) + v * w
            if any(acc.values()):
                raise AssertionError(f"d o d != 0 over Z[Z_t] at degree {d} of {name}")


# ---------------------------------------------------------------------------
# the Morse reduction of a tensor step


def _check_ring(name: str, cx: list, t: int) -> None:
    """d o d = 0 over Z[Z_t] on every column of the free R-complex cx, in
    the form of `_sphere_factor`, accumulated by row t + power of g; name is
    the complex's name in the error. Checks a sphere and a reduced step
    whole, and with t = 1 the reduced quotient over Z."""
    for d in range(2, len(cx)):
        lower = cx[d - 1]
        for col in cx[d]:
            acc: dict = {}
            for key, v in col.items():
                for key2, w in lower[key // t].items():
                    at = key2 - key2 % t + (key + key2) % t
                    acc[at] = acc.get(at, 0) + v * w
            if any(acc.values()):
                raise AssertionError(f"d o d != 0 over {'Z' if t == 1 else 'Z[Z_t]'} at degree {d} of {name}")


def _reduce(pairs: list, terms: list, t: int, top: int) -> list:
    """A checked step (pairs, terms), as `_step` returns it for a sphere S
    with top cell e_top, reduced by S's own acyclic matching (Skoldberg,
    "Morse theory from an algebraic viewpoint", Trans. AMS 2006;
    Jollenbeck-Welker, "Minimal resolutions via algebraic discrete Morse
    theory", Mem. AMS 2009). Returns the Morse complex in the form of
    `_sphere_factor`, one {row t + k: v} map per critical cell, for v g^k
    times the row-th critical cell of the degree below.

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
        partner = {(e, x): i for i, (e, x, _) in enumerate(pairs[d + 1])} if d + 1 < len(pairs) else {}
        flows: list = [()] * (len(row) * t)  # a flow: (row t, p, w) for w g^p times a critical cell
        cols = []
        for i, (e, x, j) in enumerate(row):
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
                for face, h, k, v in terms[d + 1][partner[e, x]]:
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


def _quotient(cx: list, t: int) -> list:
    """A free R-complex in the form of `_sphere_factor` sent to the quotient
    (g -> 1), degree by degree: one {row: v} map per generator, for v times
    the row-th generator of the degree below, a Z-complex in the same form."""
    out = []
    for row in cx:
        cols = []
        for col in row:
            acc: dict = {}
            for key, v in col.items():
                acc[key // t] = acc.get(key // t, 0) + v
            cols.append({at: v for at, v in acc.items() if v})
        out.append(cols)
    return out


# ---------------------------------------------------------------------------
# homology and the theory comparison


class HomologyResult(NamedTuple):
    groups: GradedAbGroup
    dom: Coeff


def boundary_factors(cx: QuotientComplex) -> tuple[tuple[int, ...], ...]:
    """Invariant factors of every boundary map; entry d belongs to the map
    out of degree d (entry 0, the zero map, is empty), read off its diagonal.
    AssertionError unless each map has at most one entry per column and no
    row shared by two columns, which makes it diagonal up to the order of
    its rows and columns; its factors are then its absolute entries as a
    divisibility chain, behind their 1s."""
    out = [()]
    for d, cols in enumerate(cx.boundaries[1:], 1):
        entries = [abs(v) for col in cols for v in col.values()]
        if any(len(col) > 1 for col in cols) or len({row for col in cols for row in col}) < len(entries):
            raise AssertionError(f"the boundary out of degree {d} of {cx.spec} is not diagonal")
        chain = elementary_divisors(entries)
        out.append((1,) * (len(entries) - len(chain)) + chain)
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
    (Betti numbers), from the factors of its boundary maps."""
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
def _fold(n: tuple, t: int) -> list:
    """The prefix (n; t) as a reduced free R-complex in the form of
    `_sphere_factor`: a sphere's own complex, else the fold of n[:-1]
    tensored with the last sphere's (`_step`), checked, reduced by the
    sphere's matching (`_reduce`) and checked whole, each check naming the
    prefix as a TupleSpec."""
    if len(n) == 1:
        return _sphere_factor(sphere_complex(n[0], t).diffs)
    cells, name = _fold(n[-1:], t), TupleSpec(n, t)
    pairs, terms = _step(_fold(n[:-1], t), cells, t)
    _check_step(name, terms, t)
    fold = _reduce(pairs, terms, t, len(cells) - 1)
    _check_ring(name, fold, t)
    return fold


def product_quotient_complex(spec: TupleSpec, cap: int = DEFAULT_CAP) -> QuotientComplex:
    """spec's quotient complex as the comparison reads it, after refusing
    spec over the cap: the quotient (g -> 1) of spec's fold, checked over Z
    (`_check_ring`). It has 2^(r-1) (2 n_1 + 2) cells and is homotopy
    equivalent to the whole quotient complex; for r = 1 it is the lens
    space's own complex."""
    _check_cap(spec, cap)
    cols = _quotient(_fold(spec.n, spec.t), spec.t)
    _check_ring(spec, cols, 1)
    return QuotientComplex(spec, tuple(map(tuple, cols)))


@lru_cache(maxsize=_FACTORS_CACHE_SIZE)
def _cached_factors(spec: TupleSpec, cap: int) -> tuple[tuple[int, ...], tuple]:
    """Cell counts and boundary invariant factors of spec's
    `product_quotient_complex`, which has the whole quotient complex's
    homology over Z and so over every F_p."""
    cx = product_quotient_complex(spec, cap)
    return cx.ranks, boundary_factors(cx)


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
