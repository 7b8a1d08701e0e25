"""Mod-2 Steenrod squares on the F_2 cohomology rings, total Stiefel-Whitney
classes of the tangent bundle, and the orientability/Spin predicates.

Each generator g of the base factor has Sq(g) = g + g^2: y has degree 1; z
has degree 2 and reduces an integral class, so Sq^1 z = 0; w is pulled back
from the r = 1 space, whose top class it is, so its only positive square
there that could survive is Sq^{2 n_1 + 1} w = w^2 = 0. The exterior
generators have Sq(x_i) = (1+z)^{n_i+1} x_i. By the Cartan formula every
basis monomial then has its square in one closed form,

    Sq(y^e z^a w^b x_S) = y^e z^a w^b (1+y)^e (1+z)^k x_S,
    k = a + sum_{i in S} (n_i + 1),

each term's base reduced by the base factor's product (y^2 = z or 0, and
w z = 0).
"""

from __future__ import annotations

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


def total_sq(ring: CohomologyRing, m: BasisMonomial) -> dict:
    """Total Steenrod square of a basis monomial as an F_2 combination:
    the sum of y^i z^j m over i <= e and C(k, j) odd, where z^j with
    j > n_1 vanishes. Since e <= 1, no two terms reduce to the same base."""
    _require_f2(ring)
    ring._require(m)
    e, a, _ = m.base
    k = a + sum(ring.spec.n[i - 1] + 1 for i in m.ext)
    out = {}
    for i in range(e + 1):
        for j in range(min(k, ring.spec.n[0]) + 1):
            if binom_mod2(k, j):
                base = ring.factor.product(m.base, (i, j, 0))
                if base is not None:
                    out[BasisMonomial(base, m.ext)] = 1
    return out


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
