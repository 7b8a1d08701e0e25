"""Shared desk-scale grids and helpers for the test suite."""

from itertools import combinations_with_replacement
from math import comb

from lensprod.algebra import INFINITY, TruncPoly, TupleSpec, ZZ

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


def binom_expand(k, precision, dom=ZZ):
    """(1+z)^k over dom with exact binomial coefficients, truncated at the
    given precision."""
    return TruncPoly.of(dom, [comb(k, j) for j in range(precision + 1)], precision)
