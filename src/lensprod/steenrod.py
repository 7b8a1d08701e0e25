"""Mod-2 Steenrod squares on the F_2 cohomology rings, total Stiefel-Whitney
classes of the tangent bundle, and the orientability/Spin predicates.

Each generator g of the base factor has Sq(g) = g + g^2: y has degree 1; z
has degree 2 and reduces an integral class, so Sq^1 z = 0; w is pulled back
from the r = 1 space, whose top class it is, so its only positive square
there that could survive is Sq^{2 n_1 + 1} w = w^2 = 0. By the Cartan
formula the bases of the base factor have squares in closed form:
Sq(z^a) = (z + z^2)^a = sum_j C(a, j) z^{a+j}, Sq(y z^a) = (y + y^2) Sq(z^a)
and Sq(w) = w. The exterior generators have Sq(x_i) = (1+z)^{n_i+1} x_i,
with z read as 0 when the presentation has no degree-2 class, and a
monomial's square is its base's square times those of its x_i, with every
product reduced by the ring's relations.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import GF, TruncPoly, TupleSpec, binom_mod2, binom_mod2_expand
from .cohomology import BasisMonomial, CohomologyRing

__all__ = [
    "total_sq",
    "sq_k",
    "stiefel_whitney_total",
    "is_orientable",
    "is_spin",
]

F2 = GF(2)


def _require_f2(ring: CohomologyRing) -> None:
    if ring.dom != F2:
        raise ValueError(f"Steenrod squares act on F_2 rings, not {ring.dom}")


def _z_series(ring: CohomologyRing, a: int, k: int) -> dict:
    """z^a (1+z)^k = sum_j C(k, j) z^{a+j} over F_2, without the powers of z
    that vanish in the ring."""
    out = {}
    for j in range(k + 1):
        m = ring.z_power(a + j)
        if m is not None and binom_mod2(k, j):
            out[m] = 1
    return out


def _sq_base(ring: CohomologyRing, base: tuple) -> dict:
    """Sq(z^a) = z^a (1+z)^a, Sq(y z^a) = (y + y^2) Sq(z^a) and Sq(w) = w."""
    if base == ("w",):
        return {BasisMonomial(base): 1}
    eps, a = base[1:] if base[0] == "yz" else (0, base[1])
    out = _z_series(ring, a, a)
    if eps:
        y = BasisMonomial(("yz", 1, 0))
        out = ring.mul(ring.add({y: 1}, ring.multiply(y, y)), out)
    return out


def _sq_ext(ring: CohomologyRing, i: int) -> dict:
    """Sq(x_i) = (1+z)^{n_i+1} x_i."""
    zpart = _z_series(ring, 0, ring.spec.n[i - 1] + 1)
    return ring.mul(zpart, {BasisMonomial(ring.unit.base, (i,)): 1})


def total_sq(ring: CohomologyRing, m: BasisMonomial) -> dict:
    """Total Steenrod square of a basis monomial as an F_2 combination."""
    _require_f2(ring)
    ring._require(m)
    return dict(_total_sq_items(ring, m))


@lru_cache(maxsize=4096)
def _total_sq_items(ring: CohomologyRing, m: BasisMonomial) -> tuple:
    """total_sq as an immutable tuple of (monomial, coefficient) pairs,
    cached by (ring, m) outside the shared ring. By the Cartan formula the
    square of base * x_S is the cached square of m without its last x_i
    times Sq(x_i), so the base's square is computed once per base."""
    if not m.ext:
        return tuple(_sq_base(ring, m.base).items())
    rest = dict(_total_sq_items(ring, BasisMonomial(m.base, m.ext[:-1])))
    return tuple(ring.mul(rest, _sq_ext(ring, m.ext[-1])).items())


def sq_k(ring: CohomologyRing, m: BasisMonomial, k: int) -> dict:
    """Degree-k component Sq^k(m); zero above the degree of m."""
    target = ring.degree(m) + k
    return {
        m2: c for m2, c in total_sq(ring, m).items() if ring.degree(m2) == target
    }


def sq_k_elem(ring: CohomologyRing, elem: dict, k: int) -> dict:
    out: dict = {}
    for m, c in elem.items():
        for m2, c2 in sq_k(ring, m, k).items():
            out[m2] = (out.get(m2, 0) + c * c2) % 2
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# characteristic classes of the tangent bundle


def stiefel_whitney_total(spec: TupleSpec) -> TruncPoly:
    """W(tau) = (1+z)^{|n|+r} as an F_2 polynomial in the degree-2 class z,
    truncated by z^{n1+1} = 0; z itself vanishes for odd finite t."""
    n1 = spec.n[0]
    if spec.finite and spec.t % 2 == 1:
        return TruncPoly.one(F2, n1)
    return binom_mod2_expand(spec.size_sum + spec.r, n1)


def is_orientable(spec: TupleSpec) -> bool:
    """Quotients of products of odd spheres by subgroups of the circle are
    orientable; equivalently w_1 = 0 (the SW polynomial is even-graded)."""
    return True


def is_spin(spec: TupleSpec) -> bool:
    """Spin iff w_2 = 0, i.e. iff (|n|+r) z = 0: so iff n1 = 0, or |n|+r is
    even, or the degree-2 class itself vanishes (odd finite t)."""
    return stiefel_whitney_total(spec).coeff(1) == 0
