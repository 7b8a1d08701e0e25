"""Shared desk-scale grids and helpers for the test suite."""

from itertools import combinations_with_replacement
from math import comb

from lensprod.algebra import INFINITY, TruncPoly, TupleSpec, ZZ
from lensprod.cohomology import BasisMonomial
from lensprod.oracle import _snf_factors
from lensprod.steenrod import sq_k

FINITE_TS = (1, 2, 3, 4, 6)


def tuples(nmax=2, rmax=3):
    for r in range(1, rmax + 1):
        yield from combinations_with_replacement(range(nmax + 1), r)


def grid_specs(ts=FINITE_TS, nmax=2, rmax=3):
    for t in ts:
        for tup in tuples(nmax, rmax):
            yield TupleSpec(tup, t)


def full_grid_specs(nmax=2, rmax=3):
    yield from grid_specs(FINITE_TS + (INFINITY,), nmax, rmax)


def multiplicative_t_series(t, precision, u=1, dom=ZZ):
    """The t-series of F(x, y) = x + y + u*x*y written out:
    [t](z) = ((1 + uz)^t - 1)/u = sum_{j >= 1} C(t, j) u^(j-1) z^j."""
    coeffs = [0] + [comb(t, j) * u ** (j - 1) for j in range(1, precision + 1)]
    return TruncPoly.of(dom, coeffs, precision)


def apply_linear(f, ring, elem: dict) -> dict:
    """The linear extension of a map f from basis monomials to elements of
    ring, applied to elem."""
    out: dict = {}
    for m, c in elem.items():
        for m2, c2 in f(m).items():
            out[m2] = out.get(m2, 0) + c * c2
    return ring._normalize(out)


def mul(ring, e1: dict, e2: dict) -> dict:
    """Bilinear extension of ring.multiply to elements {monomial: coefficient}."""
    out: dict = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            for m, c in ring.multiply(m1, m2).items():
                out[m] = out.get(m, 0) + c1 * c2 * c
    return ring._normalize(out)


def sq_k_elem(ring, elem: dict, k: int) -> dict:
    """Sq^k of an F_2 element, the linear extension of steenrod.sq_k."""
    return apply_linear(lambda m: sq_k(ring, m, k), ring, elem)


def positive_generators(ring) -> tuple:
    """Ring generators of positive degree as basis monomials: the base
    factor's letters, then x_2, ..., x_r."""
    return tuple(BasisMonomial(g) for g in ring.factor.generators) + tuple(
        BasisMonomial((0, 0, 0), (i,)) for i in range(2, ring.spec.r + 1)
    )


def smith_normal_form(rows) -> tuple:
    """Invariant factors d_1 | d_2 | ... of an integer matrix given as a list
    of rows (zero factors dropped, units included), by the oracle's sparse
    elimination on a column copy."""
    cols: dict = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = int(v)
    return _snf_factors(cols.values())[0]
