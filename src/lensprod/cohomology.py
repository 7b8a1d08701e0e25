"""Graded cohomology rings of complex-projective and lens product spaces.

Every ring is its base factor (the ring of the r = 1 space) tensored with
the exterior algebra on x_2, ..., x_r, deg x_i = 2 n_i + 1: a free module
over the base factor on the monomials x_S, S a subset of {2..r}. Only the
base factor depends on the coefficient domain:

* t = INFINITY ("free"): z^a for a <= n1, with z^{n1+1} = 0.
* finite t over Z ("integral"): 1 and w free, z^a of order t for
  1 <= a <= n1 (no z^a when t = 1).
* finite t with t invertible ("unit", rationals or F_p with p not dividing
  t): just 1 and w; t*z = 0 forces z = 0.
* finite t over F_p with p | t ("primary"): the mod-p ring of the p-primary
  lens space, monomials y^eps z^a with y^2 = z exactly when p = 2 and
  nu_2(t) = 1, else y^2 = 0.

Here w is the odd-degree class of the base factor in degree 2 n1 + 1 (it
restricts from the covering sphere); it kills every positive-degree class of
the base factor for degree reasons, while w * x_S are basis monomials.

A basis monomial's base is the exponent triple (e, a, b) of y^e z^a w^b,
the same letters in every presentation. A BaseFactor holds the triples that
are bases, with their degrees and torsion, its generators and relations, and
whether y^2 = z; base_factor builds it once per (n1, t, mode) and nothing
else reads the presentation (the splittings' stunted spaces read their
groups from it too). A product of two bases adds their triples, rewrites
y^2 as z when the relation holds, and is zero unless the sum is a base.
CohomologyRing is generic over the factor: a product of basis monomials is
that product of bases, the union of the exterior subsets, and the Koszul
sign of the odd letters. The base factor is also a tensor product
of truncated polynomial algebras k[g]/(g^h), its letters, so the cup length
and the zero-divisor cup length of a ring are closed-form sums over the
letters, plus 1 for each x_i.

A ring counts its monomials by a product formula and lists them only on
demand; rings are cheap to build, so none is cached. All queries are pure.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, groupby
from operator import itemgetter
from typing import NamedTuple

from .algebra import (
    Coeff,
    GF,
    GradedAbGroup,
    INFINITY,
    PoincareSeries,
    QQ,
    TupleSpec,
    ZZ,
    nu_p,
    prime_factors,
)
from . import fgl

__all__ = [
    "FREE",
    "INTEGRAL",
    "UNIT",
    "PRIMARY",
    "CoeffMode",
    "BaseFactor",
    "base_factor",
    "BasisMonomial",
    "CohomologyRing",
    "build_ring",
    "graded_groups",
    "poincare_polynomial",
    "restriction_p",
    "projection_pi_star",
    "change_coefficients",
    "cup_length",
    "zero_divisor_cup_length",
    "field_modes",
]

FREE = "free"
INTEGRAL = "integral"
UNIT = "unit"
PRIMARY = "primary"


class CoeffMode(NamedTuple):
    """A coefficient domain resolved against a specific (n, t): which base
    presentation applies, and the local parameter e = nu_p(t) when p | t."""

    dom: Coeff
    presentation: str
    e: int = 0


def resolve_mode(spec: TupleSpec, dom: Coeff) -> CoeffMode:
    if not spec.finite:
        return CoeffMode(dom, FREE)
    if dom.kind == "Z":
        return CoeffMode(dom, INTEGRAL)
    if dom.kind == "Fp" and spec.t % dom.p == 0:
        return CoeffMode(dom, PRIMARY, nu_p(dom.p, spec.t))
    return CoeffMode(dom, UNIT)


class BasisMonomial(NamedTuple):
    """y^e z^a w^b x_S: base is the exponent triple (e, a, b) and ext the
    sorted exterior subset S."""

    base: tuple
    ext: tuple = ()

    def __str__(self) -> str:
        parts = [g if k == 1 else f"{g}^{k}" for g, k in zip("yzw", self.base) if k]
        parts += [f"x{i}" for i in self.ext]
        return "*".join(parts) if parts else "1"


_GENERATOR_BASES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # y, z and w


class BaseFactor(NamedTuple):
    """The ring of the r = 1 space over one coefficient mode, its bases being
    exponent triples. Every structure constant of the factor is 1 (a product
    of two bases is a base or zero) and no product of bases carries a sign."""

    degree: dict  # base -> degree
    torsion: dict  # base -> q for a Z/q summand, 0 for a free or field one
    y_squared_is_z: bool  # the relation y^2 = z, else y^2 = 0 where y exists
    generators: tuple  # the positive-degree generators, in degree order
    relations: tuple  # relation strings
    letters: tuple  # (degree, height) of each tensor factor k[g]/(g^height)

    # compared and hashed by identity, since the tables are dicts
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def product(self, b1: tuple, b2: tuple):
        """b1 * b2 as a base, or None when the product is zero."""
        e, a, b = (i + j for i, j in zip(b1, b2))
        if e == 2 and self.y_squared_is_z:
            e, a = 0, a + 1
        base = (e, a, b)
        return base if base in self.degree else None


# Bounded so a long-running process keeps bounded memory, and above the
# acceptance grid's working set: 95 specs over Z, F2 and F3 use 45 base
# factors.
@lru_cache(maxsize=128)
def base_factor(n1: int, t, mode: CoeffMode) -> BaseFactor:
    """The base factor, the one place that reads the presentation.

    Each presentation lists its bases as exponent triples over y, z and w,
    with degrees 1, 2 and 2 n1 + 1; its letters write it as a tensor product
    of truncated polynomial algebras k[g]/(g^h)."""
    TupleSpec((n1,), t)  # refuses n1 and t as the spec of the r = 1 space
    pres = mode.presentation
    y_squared_is_z = False
    letters: tuple = ()  # none over Z, where the cup lengths are refused
    if pres == PRIMARY:
        bases = [(eps, a, 0) for a in range(n1 + 1) for eps in (0, 1)]
        y_squared_is_z = mode.dom.p == 2 and mode.e == 1
        if y_squared_is_z:
            rels = ("y^2 = z", f"z^{n1 + 1} = 0")
            letters = ((1, 2 * n1 + 2),)
        else:
            rels = ("y^2 = 0", f"z^{n1 + 1} = 0")
            letters = ((1, 2), (2, n1 + 1))
    else:
        # z^a for a <= n1, and w for finite t; z itself is zero when t acts
        # invertibly, and over Z when t = 1
        z_top = 0 if pres == UNIT or t == 1 else n1
        bases = [(0, a, 0) for a in range(z_top + 1)]
        if pres != FREE:
            bases.append((0, 0, 1))
        if pres == FREE:
            rels = (f"z^{n1 + 1} = 0",)
            letters = ((2, n1 + 1),)
        elif pres == INTEGRAL:
            series = fgl.t_series(fgl.make_additive(ZZ, n1 + 1), t, n1 + 1)
            rels = (f"z^{n1 + 1} = 0", f"{series.poly} = 0", "w*z = 0, w^2 = 0")
        else:
            rels = ("z = 0 (t acts invertibly)", "w^2 = 0")
            letters = ((2 * n1 + 1, 2),)

    degree = {(e, a, b): e + 2 * a + (2 * n1 + 1) * b for e, a, b in bases}
    return BaseFactor(
        degree=degree,
        # over Z every positive power of z has order t
        torsion={base: t if pres == INTEGRAL and base[1] else 0 for base in bases},
        y_squared_is_z=y_squared_is_z,
        generators=tuple(g for g in _GENERATOR_BASES if g in degree),
        relations=rels,
        letters=letters,
    )


class CohomologyRing:
    """Monomial-basis model of the cohomology ring of one space over one
    coefficient domain: its base factor tensored with the exterior algebra on
    the x_i. Built by build_ring; treat as immutable."""

    def __init__(self, spec: TupleSpec, mode: CoeffMode):
        self.spec = spec
        self.mode = mode
        self.factor = base_factor(spec.n[0], spec.t, mode)

    # -- structure ----------------------------------------------------------

    dom = property(lambda self: self.mode.dom)
    is_field = property(lambda self: self.dom.is_field)

    # the presentation's (name, degree) generators and relation strings, made on access
    generators = property(
        lambda self: tuple((str(BasisMonomial(g)), self.factor.degree[g]) for g in self.factor.generators)
        + tuple((f"x{i}", 2 * self.spec.n[i - 1] + 1) for i in range(2, self.spec.r + 1))
    )
    relations = property(lambda self: self.factor.relations + tuple(f"x{i}^2 = 0" for i in range(2, self.spec.r + 1)))

    def counts(self) -> dict:
        """degree -> {torsion order (0 if free): multiplicity}: the base
        factor's bases convolved with prod_{i >= 2} (1 + s^(2 n_i + 1))."""
        ext = Counter({0: 1})
        for ni in self.spec.n[1:]:
            ext.update({e + 2 * ni + 1: c for e, c in ext.items()})
        out: dict = {}
        for base, d in self.factor.degree.items():
            q = self.factor.torsion[base]
            for e, c in ext.items():
                row = out.setdefault(d + e, {})
                row[q] = row.get(q, 0) + c
        return out

    @property
    def basis_by_degree(self) -> dict:
        """degree -> its basis monomials, listed on access, w-based ones first
        in a tied degree: the order the outputs keep."""
        keyed = sorted(
            (d + sum(2 * self.spec.n[i - 1] + 1 for i in ext), -b[2], BasisMonomial(b, ext))
            for ext in exterior_subsets(self.spec.r) for b, d in self.factor.degree.items()
        )
        return {d: tuple(m for _, _, m in ms) for d, ms in groupby(keyed, itemgetter(0))}

    @property
    def basis(self) -> tuple:
        return tuple(m for ms in self.basis_by_degree.values() for m in ms)

    def degree(self, m: BasisMonomial) -> int:
        self._require(m)
        return self.factor.degree[m.base] + sum(2 * self.spec.n[i - 1] + 1 for i in m.ext)

    def _require(self, m: BasisMonomial) -> None:
        below, r = 1, len(self.spec.n)  # a base of the factor, and ext = (i_1 < ... < i_k) within 2..r
        for i in m.ext:
            if not below < i <= r:
                break
            below = i
        else:
            if m.base in self.factor.degree:
                return
        raise ValueError(f"{m} is not a basis monomial of {self.spec} over {self.dom}")

    def torsion_order(self, m: BasisMonomial) -> int:
        """0 for a free/field summand, q >= 2 for Z/q (integral mode only)."""
        self._require(m)
        return self.factor.torsion[m.base]

    # -- multiplication -----------------------------------------------------

    def multiply(self, m1: BasisMonomial, m2: BasisMonomial) -> dict:
        """Graded-commutative product of two basis monomials as a (at most
        singleton) linear combination {monomial: coefficient}. The Koszul
        sign counts the odd letters that pass each other: each x_i of m1
        passes the x_j of m2 with j < i, and the base of m2 when it is odd."""
        self._require(m1)
        self._require(m2)
        if set(m1.ext) & set(m2.ext):
            return {}
        base = self.factor.product(m1.base, m2.base)
        if base is None:
            return {}
        swaps = sum(1 for a in m1.ext for b in m2.ext if b < a)
        swaps += len(m1.ext) * (self.factor.degree[m2.base] % 2)
        mono = BasisMonomial(base, tuple(sorted(m1.ext + m2.ext)))
        # +-1 is nonzero in every field and modulo every torsion order
        c, q = self.dom(-1 if swaps % 2 else 1), self.factor.torsion[base]
        return {mono: c % q if q else c}

    def _normalize(self, elem: dict) -> dict:
        out = {}
        for m, c in elem.items():
            c = self.dom(c)
            q = self.torsion_order(m)
            if q:
                c %= q
            if c != self.dom(0):
                out[m] = c
        return out

    def __str__(self):
        return f"H*({self.spec}; {self.dom})"


def exterior_subsets(r: int) -> list:
    """The subsets S of {2..r}, each a sorted tuple, in lexicographic order."""
    return sorted(s for k in range(r) for s in combinations(range(2, r + 1), k))


def build_ring(spec: TupleSpec, dom: Coeff = ZZ) -> CohomologyRing:
    """The cohomology ring of the space named by spec over the given domain.

    Finite t paired with rational or F_p coefficients is answered by the
    matching presentation, never rejected. A ring costs O(r + |B|) to build,
    B its base factor, and is built afresh on every call; it is immutable."""
    return CohomologyRing(spec, resolve_mode(spec, dom))


def graded_groups(ring: CohomologyRing) -> GradedAbGroup:
    """Per-degree groups from the counts (over a field: dimensions as ranks)."""
    return GradedAbGroup.of({d: (row.pop(0, 0), Counter(row).elements()) for d, row in ring.counts().items()})


def poincare_polynomial(ring: CohomologyRing) -> PoincareSeries:
    if not ring.is_field:
        raise ValueError("Poincare polynomial needs field coefficients")
    return PoincareSeries.from_dict({d: sum(row.values()) for d, row in ring.counts().items()})


def field_modes(spec: TupleSpec) -> tuple[Coeff, ...]:
    """Canonical field domains used when an invariant maximizes over fields:
    the rationals plus F_p for every prime p dividing finite t."""
    if not spec.finite:
        return (QQ,)
    return (QQ,) + tuple(GF(p) for p in prime_factors(spec.t))


# ---------------------------------------------------------------------------
# induced maps


class RestrictionMap(NamedTuple):
    """Basis-level monomorphism from the ring of a kept sub-tuple into the
    full ring (induced by the coordinate-repetition section of the
    coordinate-dropping projection)."""

    sub: CohomologyRing
    full: CohomologyRing
    kept: tuple[int, ...]

    def image(self, m: BasisMonomial) -> BasisMonomial:
        self.sub._require(m)
        ext = tuple(sorted(self.kept[j - 1] for j in m.ext))
        out = BasisMonomial(m.base, ext)
        self.full._require(out)
        return out


def restriction_p(ring: CohomologyRing, kept) -> RestrictionMap:
    """The injection of the ring of the reduced tuple; index 1 must be kept."""
    kept = tuple(sorted(set(int(i) for i in kept)))
    if not kept or kept[0] != 1 or kept[-1] > ring.spec.r:
        raise ValueError(
            f"kept set {kept} must be a subset of 1..{ring.spec.r} containing 1"
        )
    sub_spec = TupleSpec(tuple(ring.spec.n[i - 1] for i in kept), ring.spec.t)
    sub = build_ring(sub_spec, ring.dom)
    return RestrictionMap(sub, ring, kept)


class ProjectionRule(NamedTuple):
    """Pullback along the covering projection from the t-quotient to the
    t'-quotient: z and the x_i map to their namesakes, and for finite t' the
    class w' maps to (t'/t) * w (both pull back to t' times the sphere
    generator). For t' = INFINITY there is no w'."""

    t: int
    t_prime: object
    omega_multiplier: object  # int for finite t', None otherwise

    def push(self, m: BasisMonomial, source: CohomologyRing, target: CohomologyRing) -> dict:
        """Image in the target (t) ring of a basis monomial of the source
        (t') ring, as an element; classes killed by the coarser torsion
        (e.g. z over t = 1) push to zero."""
        if source.spec.t != self.t_prime or target.spec.t != self.t:
            raise ValueError("rings do not match the projection's torsions")
        if source.spec.n != target.spec.n:
            raise ValueError("the projection maps rings of the same tuple")
        source._require(m)
        if source.mode.presentation == PRIMARY:
            # the rule covers z, the x_i and w; the degree-1 class of the
            # p-primary presentations does not pull back by name
            raise ValueError("push is defined on the z/w presentations only")
        if m.base not in target.factor.degree:
            return {}
        return target._normalize({m: self.omega_multiplier if m.base[2] else 1})


def projection_pi_star(t: int, t_prime) -> ProjectionRule:
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a finite positive integer, got {t}")
    if t_prime == INFINITY:
        return ProjectionRule(t, t_prime, None)
    if isinstance(t_prime, bool) or not isinstance(t_prime, int) or t_prime < 1 or t_prime % t:
        raise ValueError(f"t' = {t_prime} is not a multiple of t = {t}")
    return ProjectionRule(t, t_prime, t_prime // t)


class ReductionMap(NamedTuple):
    """Mod-p reduction of the integral ring on basis monomials. It acts on
    the base factor (universal coefficients degree by degree) and fixes every
    x_S: w reduces to the top base of the target's base factor, y z^{n1}
    when p divides t, else w itself; z^a reduces to z^a, and a base the
    target lacks (z^a when p does not divide t) reduces to zero."""

    source: CohomologyRing
    target: CohomologyRing

    def image(self, m: BasisMonomial) -> dict:
        self.source._require(m)
        degree = self.target.factor.degree
        base = max(degree, key=degree.get) if m.base[2] else m.base
        return {BasisMonomial(base, m.ext): self.target.dom(1)} if base in degree else {}


def change_coefficients(ring: CohomologyRing, p: int) -> ReductionMap:
    if ring.mode.presentation not in (FREE, INTEGRAL):
        raise ValueError("coefficient reduction starts from the integral ring")
    return ReductionMap(ring, build_ring(ring.spec, GF(p)))


# ---------------------------------------------------------------------------
# cup lengths


def cup_length(ring: CohomologyRing) -> int:
    """Largest m with a nonzero product of m positive-degree classes.

    A product in a tensor product of algebras over a field is nonzero when
    each factor's part is, and g^{h-1} is the top power in k[g]/(g^h): the
    sum of h - 1 over the base factor's letters, plus 1 for each x_i."""
    if not ring.is_field:
        raise ValueError("cup length is computed in field modes")
    return sum(h - 1 for _, h in ring.factor.letters) + ring.spec.r - 1


def zero_divisor_cup_length(ring: CohomologyRing) -> int:
    """Largest m with a nonzero m-fold product of zero divisors of the form
    g x 1 - 1 x g, g a ring generator; a lower bound for the reduced
    topological complexity.

    The zero divisors of a tensor product are generated by the factors', so
    the count is a sum over the letters and the x_i (Farber's tensor bound,
    "Topological complexity of motion planning", 2003, is an equality). The
    bar of an odd letter squares to 0 when 2 is invertible, and so does each
    x_i's: each counts 1. The m-th power of any other letter's bar is
    sum_a +-C(m, a) g^a x g^{m-a}, which is nonzero while some a, m - a <= h - 1
    have C(m, a) nonzero in the field."""
    if not ring.is_field:
        raise ValueError("zero-divisor cup length is computed in field modes")
    p = ring.dom.p  # 0 over Q
    counts = [1 if d % 2 and p != 2 else _carry_free_max(h - 1, p) for d, h in ring.factor.letters]
    return sum(counts) + ring.spec.r - 1


def _carry_free_max(m: int, p: int) -> int:
    """Largest a + b over 0 <= a, b <= m with C(a + b, a) nonzero mod p, or
    over Q when p = 0. By Kummer's theorem that means no carry in base p.
    Above the highest digit m_j of m with 2 m_j >= p, a = b = m; there
    a_j + b_j = p - 1 with b_j < m_j, which frees b below, so every lower
    digit of a + b is p - 1."""
    q = place = 1
    while p and place <= m:
        if 2 * (m // place % p) >= p:
            q = place * p
        place *= p
    return 2 * (m - m % q) + q - 1
