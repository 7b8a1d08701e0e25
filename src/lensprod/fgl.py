"""Formal group laws over a coefficient domain and their t-series.

A law is a truncated bivariate series F(x, y) = sum a_ij x^i y^j with the
unit, commutativity and associativity axioms checked up to the stored
precision. Its t-series is the t-fold formal sum [t](z), computed by doubling
over the bits of t: [1](z) = z, [2k](z) = F([k](z), [k](z)) and
[2k+1](z) = F([2k](z), z), so O(log t) evaluations of F. Doubling equals the
left fold [k](z) = F([k-1](z), z) wherever F is associative through the
requested precision; a custom law asked above its own precision has no
defined series there, and its high terms are those of the doubling grouping.
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
    out = {}
    for (i, j), c in coeffs.items():
        c = dom(c)
        if i + j <= prec and c != dom(0):
            out[(i, j)] = c
    return tuple(sorted(out.items()))


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


# --- axiom checks on multivariate dicts (total degree <= prec) -------------


def _mv_mul(a: dict, b: dict, prec: int, dom: Coeff) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= prec:
                out[e] = dom(out.get(e, 0) + ca * cb)
    return {e: c for e, c in out.items() if c != dom(0)}

def _mv_pow(a: dict, k: int, nvars: int, prec: int, dom: Coeff) -> dict:
    out = {(0,) * nvars: dom(1)}
    for _ in range(k):
        out = _mv_mul(out, a, prec, dom)
    return out


def _substitute(law: FormalGroupLaw, u: dict, v: dict, nvars: int) -> dict:
    """F(u, v) where u, v are multivariate dicts in nvars variables."""
    prec, dom = law.prec, law.dom
    out: dict = {}
    upows = {0: {(0,) * nvars: dom(1)}}
    vpows = {0: {(0,) * nvars: dom(1)}}
    for (i, j), c in law.coeffs:
        if i not in upows:
            upows[i] = _mv_pow(u, i, nvars, prec, dom)
        if j not in vpows:
            vpows[j] = _mv_pow(v, j, nvars, prec, dom)
        for e, x in _mv_mul(upows[i], vpows[j], prec, dom).items():
            out[e] = dom(out.get(e, 0) + c * x)
    return {e: c for e, c in out.items() if c != dom(0)}


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
    fxy = _substitute(law, x, y, 3)
    fyz = _substitute(law, y, z, 3)
    if _substitute(law, fxy, z, 3) != _substitute(law, x, fyz, 3):
        raise ValueError("associativity fails up to the stored precision")


# --- t-series ---------------------------------------------------------------


class TSeries(NamedTuple):
    """[t](z) for a law; [1](z) = z and the constant term is always zero."""

    poly: TruncPoly
    t: int
    law_kind: str

    def __str__(self):
        return str(self.poly)


def _evaluate(law: FormalGroupLaw, a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """F(a, b) as the truncated sum of c_ij a^i b^j."""
    apow, bpow = [TruncPoly.one(a.dom, a.prec)], [TruncPoly.one(b.dom, b.prec)]
    out = TruncPoly.zero(a.dom, a.prec)
    for (i, j), c in law.coeffs:
        while len(apow) <= i:
            apow.append(apow[-1] * a)
        while len(bpow) <= j:
            bpow.append(bpow[-1] * b)
        out = out + (apow[i] * bpow[j]).scale(c)
    return out


def t_series(law: FormalGroupLaw, t: int, precision: int) -> TSeries:
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")
    z = TruncPoly.var(law.dom, precision)
    cur = z
    for bit in bin(t)[3:]:
        cur = _evaluate(law, cur, cur)
        if bit == "1":
            cur = _evaluate(law, cur, z)
    return TSeries(cur, t, law.kind)
