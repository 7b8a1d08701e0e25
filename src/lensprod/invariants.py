"""Numeric and arithmetic invariants: Euler and Kervaire characteristics,
the KO-order arithmetic sigma(n1, t), stable parallelizability and
parallelizability, nonvanishing vector fields, category and topological
complexity intervals, span/immersion formulas, and the equivariant sphere
motion planner.

Reduced conventions throughout: cat(point) = 0, cat(CP^n) = n,
TC(odd sphere) = 1.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import NamedTuple

from .algebra import GF, QQ, TupleSpec, nu_p, prime_factors
from .cohomology import (
    build_ring,
    cup_length,
    field_modes,
    poincare_polynomial,
    zero_divisor_cup_length,
)
from .steenrod import is_orientable, is_spin

__all__ = [
    "TriState",
    "TRUE",
    "FALSE",
    "unknown",
    "euler_char",
    "kervaire_semichar",
    "sigma",
    "stably_parallelizable",
    "parallelizable",
    "vector_field_exists",
    "cat_bounds",
    "tc_bounds",
    "SpanInfo",
    "span_report",
    "immersion_dim",
    "motion_plan_sphere",
    "InvariantReport",
    "invariant_report",
]


class TriState(NamedTuple):
    value: object  # True, False, or None for unknown
    reason: str = ""

    @property
    def known(self) -> bool:
        return self.value is not None

    def __bool__(self):
        if self.value is None:
            raise ValueError(f"tri-state is unknown: {self.reason}")
        return self.value

    def json(self) -> str:
        if self.value is None:
            return f"unknown:{self.reason}"
        return "true" if self.value else "false"

    def __str__(self):
        return self.json()


TRUE = TriState(True)
FALSE = TriState(False)


def unknown(reason: str) -> TriState:
    return TriState(None, reason)


# ---------------------------------------------------------------------------
# characteristics


def _betti(spec: TupleSpec, dom) -> tuple[int, ...]:
    return tuple(poincare_polynomial(build_ring(spec, dom)).coeffs)


def euler_char(spec: TupleSpec) -> int:
    """n1 + 1 for a single complex projective space, 0 otherwise; cross
    checked against the alternating sum of rational Betti numbers."""
    value = spec.n[0] + 1 if (spec.r == 1 and not spec.finite) else 0
    alt = sum((-1) ** d * b for d, b in enumerate(_betti(spec, QQ)))
    if alt != value:
        raise AssertionError(f"Euler characteristic mismatch for {spec}: {alt} != {value}")
    return value


def _kervaire_case_value(spec: TupleSpec) -> int:
    n1, r, t = spec.n[0], spec.r, spec.t
    if (r == 1 and spec.finite and t % 2 == 0) or (r <= 2 and not spec.finite):
        return (n1 + 1) % 2
    if r == 1 and spec.finite and t % 2 == 1:
        return 1
    return 0


def kervaire_semichar(spec: TupleSpec):
    """Odd dimension: the mod-2 class of the sum of even F_2 Betti numbers,
    asserted equal to the closed case formula. Even dimension: chi/2 as an
    exact rational (emitted with a warning; only the odd case feeds the
    span criteria)."""
    if spec.dim % 2 == 0:
        warnings.warn(
            "Kervaire semi-characteristic of an even-dimensional space is chi/2",
            stacklevel=2,
        )
        return Fraction(euler_char(spec), 2)
    return _odd_semichar(spec)


def _odd_semichar(spec: TupleSpec) -> int:
    betti = _betti(spec, GF(2))
    value = sum(betti[d] for d in range(0, len(betti), 2)) % 2
    expected = _kervaire_case_value(spec)
    if value != expected:
        raise AssertionError(
            f"Kervaire semi-characteristic mismatch for {spec}: {value} != {expected}"
        )
    return value


# ---------------------------------------------------------------------------
# the KO-order ladder


def sigma(n1: int, t: int) -> int:
    """Product over primes p | t of p^e with e given by the first applicable
    case of the ladder (p = 2: nu_2(t) = 1 and n1 != 3 mod 4 -> n1 + 1;
    max(nu_2(t), n1) = 1 -> n1; n1 even -> nu_2(t) + n1 - 1; else
    nu_2(t) + n1 - 2; odd p: n1 >= 2 -> nu_p(t) + floor((n1-2)/(p-1)),
    else 0). Implemented verbatim, including the shadowed second case."""
    if isinstance(n1, bool) or not isinstance(n1, int) or n1 < 1:
        raise ValueError(f"sigma needs n1 >= 1, got {n1}; route n1 = 0 through the product-of-spheres rule")
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a finite positive integer, got {t}")
    out = 1
    for p in prime_factors(t):
        if p == 2:
            v2 = nu_p(2, t)
            if v2 == 1 and n1 % 4 != 3:
                e = n1 + 1
            elif max(v2, n1) == 1:
                e = n1
            elif n1 % 2 == 0:
                e = v2 + n1 - 1
            else:
                e = v2 + n1 - 2
        elif n1 >= 2:
            e = nu_p(p, t) + (n1 - 2) // (p - 1)
        else:
            e = 0
        out *= p**e
    return out


# ---------------------------------------------------------------------------
# parallelizability and vector fields


def stably_parallelizable(spec: TupleSpec) -> TriState:
    n1 = spec.n[0]
    if n1 == 0:
        return TRUE  # products of spheres
    if not spec.finite:
        return TRUE if (n1 == 1 and (spec.size_sum + spec.r) % 2 == 0) else FALSE
    return TRUE if (spec.size_sum + spec.r) % sigma(n1, spec.t) == 0 else FALSE


def parallelizable(spec: TupleSpec) -> TriState:
    return _parallelizable(spec, stably_parallelizable(spec))


def _parallelizable(spec: TupleSpec, stable: TriState) -> TriState:
    n1, r = spec.n[0], spec.r
    if n1 == 0:
        if not spec.finite and r == 2 and spec.n[1] not in (0, 1, 3):
            return FALSE  # an odd sphere outside dimensions 1, 3, 7
        return TRUE
    if not spec.finite:
        even = (spec.size_sum + r) % 2 == 0
        return TRUE if (n1 == 1 and r > 1 and even) else FALSE
    if r > 1:
        return stable
    if n1 == 1:
        return TRUE  # closed orientable 3-manifold
    return unknown("classical lens space; see literature")


def vector_field_exists(spec: TupleSpec) -> bool:
    """r > 1 or finite t; equivalently the Euler characteristic vanishes."""
    return _vector_field(spec, euler_char(spec))


def _vector_field(spec: TupleSpec, chi: int) -> bool:
    value = spec.r > 1 or spec.finite
    if value != (chi == 0):
        raise AssertionError(f"Poincare-Hopf cross-check failed for {spec}")
    return value


# ---------------------------------------------------------------------------
# category and topological complexity


def _cat_base(spec: TupleSpec) -> int:
    return 2 * spec.n[0] + 1 if spec.finite else spec.n[0]


def cat_bounds(spec: TupleSpec) -> tuple[int, int]:
    """[max cup length over field modes, r (cat(base) + 1) - 1]."""
    hi = spec.r * (_cat_base(spec) + 1) - 1
    lo = max(cup_length(build_ring(spec, dom)) for dom in field_modes(spec))
    if lo > hi:
        raise AssertionError(f"cat bounds crossed for {spec}: [{lo}, {hi}]")
    return lo, hi


def tc_bounds(spec: TupleSpec, base_tc_override: tuple[int, int] | None = None) -> tuple[int, int]:
    """Upper bound: the better of r (1 + TC(base)) - 1 and the fibration
    estimate 2 r (cat(base) + 1) - 2; lower bound: zero-divisor cup length,
    improved to the cat lower bound. Base TC is exact (2 n1) for t = INFINITY
    and an interval for finite t unless overridden."""
    return _tc_bounds(spec, base_tc_override, cat_bounds(spec)[0])


def _tc_bounds(spec: TupleSpec, base_tc_override, cat_lo: int) -> tuple[int, int]:
    zcl = max(
        zero_divisor_cup_length(build_ring(spec, dom)) for dom in field_modes(spec)
    )
    if base_tc_override is not None:
        b_lo, b_hi = base_tc_override
        if b_lo < 0:
            raise ValueError(f"override lower bound {b_lo} is negative; TC >= 0")
        if b_lo > b_hi:
            raise ValueError(f"override interval [{b_lo}, {b_hi}] is empty")
        base = (b_lo, b_hi)
    elif not spec.finite:
        base = (2 * spec.n[0], 2 * spec.n[0])
    else:
        # the zero-divisor cup length of the r = 1 space is r - 1 less
        base = (zcl - spec.r + 1, 2 * (2 * spec.n[0] + 1))
    estuno = 2 * spec.r * (_cat_base(spec) + 1) - 2
    hi = min(estuno, spec.r * (1 + base[1]) - 1)
    lo = max(zcl, cat_lo)
    if lo > hi:
        if base_tc_override is not None:
            raise ValueError(
                f"base TC override [{base[0]}, {base[1]}] gives the upper bound {hi}, "
                f"below the lower bound {lo} for {spec}"
            )
        raise AssertionError(f"TC bounds crossed for {spec}: [{lo}, {hi}]")
    return lo, hi


# ---------------------------------------------------------------------------
# span and immersions


class SpanInfo(NamedTuple):
    stablespan: object  # int or None when not determined
    span: object  # int or None
    span_equals_stablespan: bool
    clauses: tuple[str, ...]


def span_report(spec: TupleSpec, span_base_input: int | None = None) -> SpanInfo:
    """stablespan is the dimension when stably parallelizable, else derived
    from a literature value span((|n|+r) gamma over the base) when supplied.
    The guarantee flag records the two span = stablespan criteria; the
    forced clause pins span = 3."""
    return _span(spec, span_base_input, stably_parallelizable(spec), vector_field_exists(spec))


def _span(spec: TupleSpec, span_base_input, stable: TriState, field: bool, chi_star=None) -> SpanInfo:
    """span_report from its inputs already evaluated: stable parallelizability,
    the vector field and, when known, the Kervaire semi-characteristic."""
    dim = spec.dim
    nr = spec.size_sum + spec.r
    clauses = []
    if span_base_input is not None and not 0 <= span_base_input <= 2 * nr:
        raise ValueError(f"span of a rank-{2 * nr} real bundle lies in [0, {2 * nr}]")

    if bool(stable):
        stablespan = dim
        clauses.append("stably parallelizable: stablespan = dim")
    elif span_base_input is not None:
        stablespan = span_base_input - spec.r - spec.delta
        clauses.append("stablespan from supplied bundle span")
    else:
        stablespan = None

    guarantee = False
    # only the two dim = 3 mod 8 clauses read chi*; the dimension is odd there
    parity = field and dim % 8 == 3 and (spec.n[0] == 0 or nr % 2 == 0)
    if parity and chi_star is None:
        chi_star = _odd_semichar(spec)
    if field:
        if (spec.r - spec.delta) % 2 == 0:
            guarantee = True
            clauses.append("span = stablespan: r - delta_t even")
        elif parity and chi_star == 0:
            guarantee = True
            clauses.append("span = stablespan: dim = 3 mod 8, chi* = 0, parity")
    else:
        clauses.append("span clauses inapplicable: no nonvanishing vector field")

    span = None
    if guarantee and stablespan is not None:
        span = stablespan
    elif parity and chi_star != 0:
        span = 3
        clauses.append("span forced to 3: dim = 3 mod 8, parity, chi* != 0")
    return SpanInfo(stablespan, span, guarantee, tuple(clauses))


def immersion_dim(spec: TupleSpec, gd_input: int | None = None):
    """dim + max(1, gd) for a supplied geometric dimension of the stable
    normal bundle; without one, the interval from the trivial gd range."""
    dim = spec.dim
    gd_cap = 2 * spec.n[0] + 2 - spec.delta
    if gd_input is None:
        return (dim + 1, dim + gd_cap)
    if not 0 <= gd_input <= gd_cap:
        raise ValueError(f"gd must lie in [0, {gd_cap}], got {gd_input}")
    return dim + max(1, gd_input)


# ---------------------------------------------------------------------------
# the motion planner on odd spheres


def _real_inner(a, b) -> float:
    return sum((x.conjugate() * y).real for x, y in zip(a, b))


def _geodesic_point(a, b, s: float):
    theta = math.acos(max(-1.0, min(1.0, _real_inner(a, b))))
    if theta < 1e-14:
        return tuple(a)
    f = math.sin(theta)
    ca, cb = math.sin((1 - s) * theta) / f, math.sin(s * theta) / f
    return tuple(ca * x + cb * y for x, y in zip(a, b))


def motion_plan_sphere(n: int, a, b, rule: int, samples: int = 64):
    """Sampled local motion-planner paths on S^{2n+1} in C^{n+1}.

    rule 0 (defined off the antipodal pairs): the constant-speed minimal
    geodesic. rule 1 (defined off the diagonal): the great circle from a to
    -a in the direction of the vector field v(a) = i a, then the minimal
    geodesic to b. Both rules commute with the diagonal scalar action."""
    a = tuple(complex(x) for x in a)
    b = tuple(complex(x) for x in b)
    if len(a) != n + 1 or len(b) != n + 1:
        raise ValueError(f"points must lie in C^{n + 1}")
    for v in (a, b):
        if abs(_real_inner(v, v) - 1.0) > 1e-9:
            raise ValueError("points must be unit vectors")
    if samples < 2:
        raise ValueError("need at least two sample points")
    if rule == 0:
        if max(abs(x + y) for x, y in zip(a, b)) < 1e-12:
            raise ValueError("rule 0 is undefined on antipodal pairs")
        return [
            _geodesic_point(a, b, i / (samples - 1)) for i in range(samples)
        ]
    if rule != 1:
        raise ValueError("rule must be 0 or 1")
    if max(abs(x - y) for x, y in zip(a, b)) < 1e-12:
        raise ValueError("rule 1 is undefined on the diagonal")
    neg_a = tuple(-x for x in a)
    len1 = math.pi
    len2 = math.acos(max(-1.0, min(1.0, _real_inner(neg_a, b))))
    total = len1 + len2
    out = []
    for i in range(samples):
        u = total * i / (samples - 1)
        if u <= len1:
            s = u / len1
            out.append(
                tuple(
                    math.cos(math.pi * s) * x + math.sin(math.pi * s) * (1j * x)
                    for x in a
                )
            )
        else:
            out.append(_geodesic_point(neg_a, b, (u - len1) / len2 if len2 > 0 else 0.0))
    return out


# ---------------------------------------------------------------------------
# the assembled report


class InvariantReport(NamedTuple):
    spec: TupleSpec
    chi: int
    chi_star: object  # int mod-2 class (odd dim) or Fraction (even dim)
    orientable: bool
    spin: bool
    has_nonzero_field: bool
    stably_parallelizable: TriState
    parallelizable: TriState
    cat: tuple[int, int]
    tc: tuple[int, int]
    span: SpanInfo
    imm: object  # int or (lo, hi)
    gd_input: object


def invariant_report(
    spec: TupleSpec,
    gd: int | None = None,
    span_base: int | None = None,
    tc_override: tuple[int, int] | None = None,
) -> InvariantReport:
    """Every invariant of spec, each evaluated once and handed on to the
    ones that read it."""
    chi = euler_char(spec)
    # kervaire_semichar's value, without its even-dimension warning
    chi_star = Fraction(chi, 2) if spec.dim % 2 == 0 else _odd_semichar(spec)
    field = _vector_field(spec, chi)
    stable = stably_parallelizable(spec)
    cat = cat_bounds(spec)
    return InvariantReport(
        spec=spec,
        chi=chi,
        chi_star=chi_star,
        orientable=is_orientable(spec),
        spin=is_spin(spec),
        has_nonzero_field=field,
        stably_parallelizable=stable,
        parallelizable=_parallelizable(spec, stable),
        cat=cat,
        tc=_tc_bounds(spec, tc_override, cat[0]),
        span=_span(spec, span_base, stable, field, chi_star),
        imm=immersion_dim(spec, gd),
        gd_input=gd,
    )
