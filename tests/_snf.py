"""The whole quotient complex's reference SNF: a sparse unit-pivot sweep
over the columns, shortest first (Dumas-Saunders-Villard, "On efficient
sparse integer matrix Smith normal forms", JSC 2001), then a dense SNF of
the small residual, and each boundary of a whole complex reduced in degree
order with compression (Bauer-Kerber-Reininghaus, "Clear and Compress",
2014). It shares no code with the oracle's fold, so the tests read the
reference builder's complexes with it."""

from typing import NamedTuple

from lensprod.algebra import Coeff, TupleSpec, ZZ, elementary_divisors
from lensprod.oracle import HomologyResult, _homology_groups


class WholeComplex(NamedTuple):
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


def boundary_factors(cx: WholeComplex) -> tuple[tuple[int, ...], ...]:
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


def homology(cx: WholeComplex, dom: Coeff = ZZ) -> HomologyResult:
    """H_*(cx) over Z or over a field, from one SNF per boundary map."""
    return HomologyResult(_homology_groups(cx.ranks, boundary_factors(cx), dom), dom)


def smith_normal_form(rows) -> tuple:
    """Invariant factors d_1 | d_2 | ... of an integer matrix given as a list
    of rows (zero factors dropped, units included), by the sparse
    elimination on a column copy."""
    cols: dict = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = int(v)
    return _snf_factors(cols.values())[0]
