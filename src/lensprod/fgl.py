"""Formal group laws over a coefficient domain and their t-series.

A law is a truncated bivariate series F(x, y) = sum a_ij x^i y^j with the
unit, commutativity and associativity axioms checked up to the stored
precision. Its t-series is the t-fold formal sum [t](z), computed by doubling
over the bits of t: [1](z) = z, [2k](z) = F([k](z), [k](z)) and
[2k+1](z) = F([2k](z), z), so O(log t) evaluations of F. Doubling equals the
left fold [k](z) = F([k-1](z), z) wherever F is associative through the
requested precision; a custom law asked above its own precision has no
defined series there, and its high terms are those of the doubling grouping.
One routine evaluates F on series held as {exponents: coefficient} maps: in
one variable for the t-series, in three for the associativity check.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Coeff, TruncPoly, ZZ

__all__ = [
    "FormalGroupLaw",
    "TSeries",
    "make_additive",
    "make_multiplicative",
    "make_custom",
    "t_series",
]

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
CUSTOM = "custom"


class FormalGroupLaw(NamedTuple):
    """Bivariate series truncated at total degree <= prec; coeffs holds the
    nonzero a_ij sorted by (i, j)."""

    coeffs: tuple
    prec: int
    dom: Coeff
    kind: str

    def coeff(self, i: int, j: int):
        for (a, b), c in self.coeffs:
            if (a, b) == (i, j):
                return c
        return self.dom(0)

    def as_dict(self) -> dict:
        return {ij: c for ij, c in self.coeffs}

    def __str__(self):
        terms = []
        for (i, j), c in self.coeffs:
            mono = "".join(
                [f"x^{i}" if i > 1 else "x" * (i == 1), f"y^{j}" if j > 1 else "y" * (j == 1)]
            )
            terms.append(mono if c == self.dom(1) and mono else f"{c}{mono}")
        return " + ".join(terms) if terms else "0"


def _clean(coeffs: dict, prec: int, dom: Coeff) -> tuple:
    return tuple(sorted(((i, j), c) for (i, j), c in _reduced(coeffs, dom).items() if i + j <= prec))


def make_additive(dom: Coeff = ZZ, prec: int = 8) -> FormalGroupLaw:
    """F(x, y) = x + y."""
    return FormalGroupLaw(_clean({(1, 0): 1, (0, 1): 1}, prec, dom), prec, dom, ADDITIVE)


def make_multiplicative(u, dom: Coeff = ZZ, prec: int = 8) -> FormalGroupLaw:
    """F(x, y) = x + y + u*x*y for a unit u."""
    if not dom.is_unit(u):
        raise ValueError(f"{u} is not invertible in {dom}")
    return FormalGroupLaw(
        _clean({(1, 0): 1, (0, 1): 1, (1, 1): u}, prec, dom), prec, dom, MULTIPLICATIVE
    )


def make_custom(coeffs: dict, dom: Coeff = ZZ, prec: int = 8) -> FormalGroupLaw:
    """Validate the axioms at this precision and reject non-laws."""
    law = FormalGroupLaw(_clean(dict(coeffs), prec, dom), prec, dom, CUSTOM)
    _validate(law)
    return law


# --- evaluating a law on series --------------------------------------------


def _mv_mul(a: dict, b: dict, prec: int, dom: Coeff) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= prec:
                out[e] = out.get(e, 0) + ca * cb
    return _reduced(out, dom)


def _reduced(a: dict, dom: Coeff) -> dict:
    """Coerce each coefficient into dom once and drop the zeros."""
    coerced = ((e, dom(c)) for e, c in a.items())
    return {e: c for e, c in coerced if c}


def _substitute(law: FormalGroupLaw, u: dict, v: dict, nvars: int, prec: int) -> dict:
    """F(u, v) truncated at total degree prec, for series u and v given as
    {exponents: coefficient} maps in nvars variables: the sum of c_ij u^i v^j."""
    dom = law.dom
    upows = [{(0,) * nvars: dom(1)}]
    vpows = upows[:]
    out: dict = {}
    for (i, j), c in law.coeffs:
        while len(upows) <= i:
            upows.append(_mv_mul(upows[-1], u, prec, dom))
        while len(vpows) <= j:
            vpows.append(_mv_mul(vpows[-1], v, prec, dom))
        for e, x in _mv_mul(upows[i], vpows[j], prec, dom).items():
            out[e] = out.get(e, 0) + c * x
    return _reduced(out, dom)


def _validate(law: FormalGroupLaw) -> None:
    dom = law.dom
    d = law.as_dict()
    for (i, j), c in d.items():
        if j == 0 and c != (dom(1) if i == 1 else dom(0)):
            raise ValueError("unit axiom fails: F(x, 0) != x")
        if i == 0 and c != (dom(1) if j == 1 else dom(0)):
            raise ValueError("unit axiom fails: F(0, y) != y")
        if dom(d.get((j, i), 0)) != c:
            raise ValueError("commutativity fails")
    x = {(1, 0, 0): dom(1)}
    y = {(0, 1, 0): dom(1)}
    z = {(0, 0, 1): dom(1)}
    fxy = _substitute(law, x, y, 3, law.prec)
    fyz = _substitute(law, y, z, 3, law.prec)
    if _substitute(law, fxy, z, 3, law.prec) != _substitute(law, x, fyz, 3, law.prec):
        raise ValueError("associativity fails up to the stored precision")


# --- t-series ---------------------------------------------------------------


class TSeries(NamedTuple):
    """[t](z) for a law; [1](z) = z and the constant term is always zero."""

    poly: TruncPoly
    t: int
    law_kind: str

    def __str__(self):
        return str(self.poly)


def t_series(law: FormalGroupLaw, t: int, precision: int) -> TSeries:
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    z = {(1,): law.dom(1)}  # at precision 0 the products and the read-out drop it
    cur = z
    for bit in bin(t)[3:]:
        cur = _substitute(law, cur, cur, 1, precision)
        if bit == "1":
            cur = _substitute(law, cur, z, 1, precision)
    coeffs = [cur.get((j,), 0) for j in range(precision + 1)]
    return TSeries(TruncPoly.of(law.dom, coeffs, precision), t, law.kind)
