"""Cartesian sphere-factor splittings, the suspension wedge decomposition
into stunted spaces, and the explicit norm-preserving multiplication on
C^2 x C^2 that powers the n1 = 1 splittings.

The wedge decomposition is consumed combinatorially: each summand is a
suspension shift (possibly negative, treated as formal Laurent bookkeeping)
of a stunted space CP_(top)(t) / CP_(bottom)(t), and the verification matches
shifted reduced Poincare polynomials against the Thom-isomorphism prediction.
A stunted space's groups are read off the base factor of the r = 1 ring, so
no presentation is derived here a second time.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Coeff, GradedAbGroup, TupleSpec
from .cohomology import (
    base_factor,
    build_ring,
    exterior_subsets,
    poincare_polynomial,
    resolve_mode,
)

__all__ = [
    "CLIFFORD_BASE",
    "clifford_module_dim",
    "clifford_admits",
    "SplitStatus",
    "CartesianSplitting",
    "cartesian_split",
    "mu1",
    "mu_k",
    "WedgeSummand",
    "wedge_decomposition",
    "stunted_cohomology",
    "WedgeCheck",
    "verify_wedge",
]

UNKNOWN_REASON = "no Z_t-invariant map known"

# minimal dimensions of irreducible Clifford modules, with the 16-fold
# periodicity a_{k+8} = 16 a_k
CLIFFORD_BASE = (2, 4, 4, 8, 8, 8, 8, 16)


def clifford_module_dim(k: int) -> int:
    if k < 1:
        raise ValueError("Clifford index must be >= 1")
    return 16 ** ((k - 1) // 8) * CLIFFORD_BASE[(k - 1) % 8]


def clifford_admits(k: int, m: int) -> bool:
    """True iff R^m carries a Cliff(k)-module structure: a_k | m."""
    if m < 1:
        raise ValueError("module dimension must be >= 1")
    return m % clifford_module_dim(k) == 0


# ---------------------------------------------------------------------------
# cartesian splittings


class SplitStatus(NamedTuple):
    index: int
    splits: bool
    rules: tuple[str, ...]
    reason: str = ""


class CartesianSplitting(NamedTuple):
    spec: TupleSpec
    statuses: tuple[SplitStatus, ...]
    split_factors: tuple[int, ...]  # dimensions 2 n_i + 1 of split spheres
    remainder: TupleSpec


def cartesian_split(spec: TupleSpec) -> CartesianSplitting:
    """Mark each index i >= 2 whose sphere factor splits off via a known
    Z_t-invariant map; everything else is reported UNKNOWN, not guessed."""
    n1, t = spec.n[0], spec.t
    statuses = []
    for i in range(2, spec.r + 1):
        ni = spec.n[i - 1]
        rules = []
        if n1 == 0:
            rules.append("complex-structure")
        if n1 == 1 and ni % 2 == 1:
            rules.append("s3-multiplication")
        if t == 2 and clifford_admits(2 * n1 + 1, 2 * ni + 2):
            rules.append("clifford")
        if rules:
            statuses.append(SplitStatus(i, True, tuple(rules)))
        else:
            statuses.append(SplitStatus(i, False, (), UNKNOWN_REASON))
    split_idx = [s.index for s in statuses if s.splits]
    factors = tuple(2 * spec.n[i - 1] + 1 for i in split_idx)
    kept = tuple(
        spec.n[i - 1] for i in range(1, spec.r + 1) if i not in split_idx
    )
    return CartesianSplitting(spec, tuple(statuses), factors, TupleSpec(kept, t))


# ---------------------------------------------------------------------------
# the explicit S^1-invariant normed multiplication


def mu1(z, w):
    """mu_1((z1,z2),(w1,w2)) = (i conj(z1) w1 + z2 conj(w2),
    -conj(z2) w1 - i z1 conj(w2)); normed and invariant under the diagonal
    unit-scalar action."""
    z1, z2 = complex(z[0]), complex(z[1])
    w1, w2 = complex(w[0]), complex(w[1])
    return (
        1j * z1.conjugate() * w1 + z2 * w2.conjugate(),
        -z2.conjugate() * w1 - 1j * z1 * w2.conjugate(),
    )


def mu_k(alpha, betas):
    """Blockwise extension: mu_k(a, b_1, ..., b_k) = (mu1(a, b_1), ...)."""
    return tuple(mu1(alpha, b) for b in betas)


# ---------------------------------------------------------------------------
# wedge decomposition after one suspension


class WedgeSummand(NamedTuple):
    """One wedge summand: suspension shift 2 - r_sigma applied to the stunted
    space CP_(top)(t) / CP_(bottom)(t); bottom = -1 means the base point."""

    sigma: tuple[int, ...]
    shift: int
    t: object
    top: int
    bottom: int


def wedge_decomposition(spec: TupleSpec, k: int = 0) -> tuple[WedgeSummand, ...]:
    """One summand per subset sigma of {2..r}; k = 0 decomposes the suspension
    of the space itself, k >= 1 the suspension of the Thom space of k copies
    of the canonical line bundle."""
    if k < 0:
        raise ValueError("bundle multiplicity must be non-negative")
    n1 = spec.n[0]
    out = []
    for sigma in exterior_subsets(spec.r):
        r_sigma = len(sigma) + 1
        size = n1 + sum(spec.n[i - 1] for i in sigma)
        top = size + k + r_sigma - 1
        bottom = size - n1 + k + r_sigma - 2
        out.append(WedgeSummand(sigma, 2 - r_sigma, spec.t, top, bottom))
    return tuple(out)


def stunted_cohomology(t, top: int, bottom: int, dom: Coeff) -> GradedAbGroup:
    """Reduced cohomology of CP_(top)(t) / CP_(bottom)(t): the groups of the
    r = 1 ring above the collapsed skeleton, one per base of its base factor,
    with the bottom cell in degree 2 bottom + 2 freed by the collapse."""
    if bottom < -1 or bottom >= top:
        raise ValueError(f"need -1 <= bottom < top, got ({bottom}, {top})")
    factor = base_factor(top, t, resolve_mode(TupleSpec((top,), t), dom))
    cut = 2 * bottom + 2
    rows = [(cut, 1, ())] if cut else []
    for base, d in factor.degree.items():
        if d > cut:
            q = factor.torsion[base]
            rows.append((d, 0, (q,)) if q else (d, 1, ()))
    return GradedAbGroup(rows)


class WedgeCheck(NamedTuple):
    spec: TupleSpec
    k: int
    dom: Coeff
    ok: bool
    mismatch_degree: object  # int or None
    lhs: tuple
    rhs: tuple


def verify_wedge(spec: TupleSpec, k: int, dom: Coeff) -> WedgeCheck:
    """Match the sum of shift-adjusted reduced Poincare polynomials of the
    wedge summands against s * P~(T(k gamma)), where the Thom isomorphism
    gives P~(T(k gamma)) = s^{2k} P(space) for k >= 1 and the k = 0 case is
    the reduced polynomial of the space itself. Negative shifts are formal
    Laurent bookkeeping. A mismatch signals an implementation bug."""
    poly = poincare_polynomial(build_ring(spec, dom))  # refuses a non-field domain
    lhs: dict[int, int] = {}
    for summand in wedge_decomposition(spec, k):
        stunted = stunted_cohomology(summand.t, summand.top, summand.bottom, dom)
        for d, free, _ in stunted.groups:
            key = d + summand.shift
            lhs[key] = lhs.get(key, 0) + free
    # s * P~(T(k gamma)): P shifted up 2k + 1, or its reduced part up 1 when k = 0
    shift = 2 * k + 1 if k else 1
    rhs = {d + shift: c for d, c in enumerate(poly.coeffs) if c and (k or d)}
    lhs = {d: c for d, c in lhs.items() if c}
    mismatch = None
    for d in sorted(set(lhs) | set(rhs)):
        if lhs.get(d, 0) != rhs.get(d, 0):
            mismatch = d
            break
    return WedgeCheck(
        spec,
        k,
        dom,
        mismatch is None,
        mismatch,
        tuple(sorted(lhs.items())),
        tuple(sorted(rhs.items())),
    )
