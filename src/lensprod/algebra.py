"""Exact arithmetic foundations: coefficient domains, a truncated-polynomial
record, p-adic valuations, and graded abelian-group bookkeeping.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf as INFINITY
from typing import NamedTuple

__all__ = [
    "INFINITY",
    "ZZ",
    "QQ",
    "GF",
    "Coeff",
    "TupleSpec",
    "TruncPoly",
    "GradedAbGroup",
    "PoincareSeries",
    "is_prime",
    "prime_factors",
    "PRIMALITY_BOUND",
    "nu_p",
    "binom_mod2",
    "binom_mod2_expand",
    "elementary_divisors",
]


# Miller-Rabin with the 13 primes up to 41 as bases is exact below psi_13
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin. Exact below PRIMALITY_BOUND; at or above
    it a failed base still proves p composite, but a p that passes all 13
    bases raises ValueError instead of being called prime."""
    if p < 2:
        return False
    for b in _BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= PRIMALITY_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: at or above {PRIMALITY_BOUND}")
    return True


def nu_p(p: int, m: int) -> int:
    """Largest e with p^e dividing m, for p prime and m >= 1."""
    if not is_prime(p):
        raise ValueError(f"nu_p requires a prime, got {p}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"nu_p requires a positive integer, got {m}")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def _iroot(m: int, k: int) -> int:
    """The integer part of the k-th root of m >= 1, by Newton's method from
    a power of two above it."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _split(m: int) -> int:
    """A nontrivial factor of a composite m with no prime factor up to 41,
    by Pollard's rho with Brent's cycle finding (Brent, "An improved Monte
    Carlo factorization algorithm", BIT 1980), x -> x^2 + c from x = 2 for
    c = 1, 2, ... until one splits m. A perfect power a^k is split first, by
    its integer k-th root, since rho finds no factor of p^k quickly for a
    large prime p. At or above PRIMALITY_BOUND the walk is capped at about
    2^19 steps, past which it raises ValueError."""
    for k in range(2, m.bit_length() // 5 + 1):  # a has no prime factor below 2^5
        a = _iroot(m, k)
        if a**k == m:
            return a
    cap = INFINITY if m < PRIMALITY_BOUND else 1 << 18
    for c in range(1, m):
        y, g, r, q = 2, 1, 1, 1
        while g == 1:
            if r > cap:
                raise ValueError(f"cannot factor {m}: at or above {PRIMALITY_BOUND}")
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
    raise AssertionError(f"no factor of {m} found")


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of m >= 1, ascending: trial division by the
    primes up to 41, then integer roots and Pollard-Brent rho. Exact below
    PRIMALITY_BOUND; above it, it raises ValueError where is_prime or _split
    does."""
    if m < 1:
        raise ValueError(f"positive integer required, got {m}")
    out = set()
    for b in _BASES:
        if m % b == 0:
            out.add(b)
            while m % b == 0:
                m //= b
    todo = [m] if m > 1 else []
    while todo:
        k = todo.pop()
        if is_prime(k):
            out.add(k)
        else:
            f = _split(k)
            todo += [f, k // f]
    return tuple(sorted(out))


def binom_mod2(m: int, k: int) -> int:
    """C(m, k) mod 2 by Lucas; 0 whenever k < 0, m < 0 or k > m."""
    if k < 0 or m < 0 or k > m:
        return 0
    return int(m & k == k)


# ---------------------------------------------------------------------------
# coefficient domains


class Coeff(NamedTuple("Coeff", [("kind", str), ("p", int)])):
    """Coefficient domain: the integers ("Z"), the rationals ("Q"), or a
    prime field ("Fp" with its prime)."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int = 0):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        if kind == "Fp" and not is_prime(p):
            raise ValueError(f"F_p needs a prime, got {p}")
        if kind != "Fp" and p != 0:
            raise ValueError("p is only meaningful for prime fields")
        return super().__new__(cls, kind, p)

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def __call__(self, x):
        """Coerce an int, Fraction or whole float into canonical form for this
        domain; over F_p, a/b maps to a * b^-1 mod p. A value with no image
        raises ValueError: a non-integer over Z, a fraction whose denominator
        p divides, or a float that is not a whole number."""
        kind = self.kind
        if kind == "Q":
            return Fraction(x)
        if type(x) is not int:
            if isinstance(x, Fraction) and x.denominator != 1:
                if kind == "Z":
                    raise ValueError(f"{x} is not an integer")
                if x.denominator % self.p == 0:
                    raise ValueError(f"{x} has no value mod {self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            if isinstance(x, float) and not x.is_integer():
                raise ValueError(f"{x} is not a whole number")
            x = int(x)
        return x % self.p if kind == "Fp" else x

    def is_unit(self, x) -> bool:
        x = self(x)
        if self.kind == "Z":
            return x in (1, -1)
        return x != 0

    def __str__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind


ZZ = Coeff("Z")
QQ = Coeff("Q")


def GF(p: int) -> Coeff:
    return Coeff("Fp", p)


# ---------------------------------------------------------------------------
# the tuple (n_1 <= ... <= n_r; t) naming a space


class TupleSpec(NamedTuple("TupleSpec", [("n", tuple[int, ...]), ("t", object)])):
    """The pair (n, t) naming the quotient of S^{2n_1+1} x ... x S^{2n_r+1}
    by the diagonal action of the t-th roots of unity (t = INFINITY for the
    full circle action)."""

    __slots__ = ()

    def __new__(cls, n, t):
        n = tuple(ZZ(v) for v in n)
        if len(n) < 1:
            raise ValueError("tuple must have length >= 1")
        if any(v < 0 for v in n):
            raise ValueError(f"entries must be non-negative, got {n}")
        if any(a > b for a, b in zip(n, n[1:])):
            raise ValueError(
                f"tuple {n} is not nondecreasing; sort it (or pass sort=True "
                "through TupleSpec.make) before building"
            )
        if t != INFINITY and (isinstance(t, bool) or not isinstance(t, int) or t < 1):
            raise ValueError(f"t must be a positive integer or INFINITY, got {t}")
        return super().__new__(cls, n, t)

    @classmethod
    def make(cls, n, t, sort: bool = False) -> "TupleSpec":
        n = tuple(ZZ(v) for v in n)
        if sort:
            n = tuple(sorted(n))
        return cls(n, t)

    @property
    def r(self) -> int:
        return len(self.n)

    @property
    def size_sum(self) -> int:
        return sum(self.n)

    @property
    def finite(self) -> bool:
        return self.t != INFINITY

    @property
    def delta(self) -> int:
        return 0 if self.finite else 1

    @property
    def dim(self) -> int:
        return 2 * self.size_sum + self.r - self.delta

    def __str__(self):
        t = "inf" if not self.finite else str(self.t)
        return f"CP_{self.n}({t})"


# ---------------------------------------------------------------------------
# truncated polynomials


def _no_tuple_arithmetic(self, other):
    return NotImplemented  # a record is a tuple: refuse, rather than concatenate or repeat


class TruncPoly(NamedTuple):
    """A univariate polynomial truncated at degree <= prec over a Coeff
    domain, as a record: coeffs has length prec + 1, each coefficient in the
    domain's canonical form. It carries and prints a series (a t-series, a
    Stiefel-Whitney class) and has no arithmetic; +, * and scalar * raise
    TypeError."""

    coeffs: tuple
    prec: int
    dom: Coeff

    __add__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    @classmethod
    def of(cls, dom: Coeff, coeffs, prec: int) -> "TruncPoly":
        if prec < 0:
            raise ValueError("precision must be >= 0")
        cs = [dom(c) for c in coeffs[: prec + 1]]
        cs += [dom(0)] * (prec + 1 - len(cs))
        return cls(tuple(cs), prec, dom)

    @classmethod
    def one(cls, dom: Coeff, prec: int) -> "TruncPoly":
        return cls.of(dom, (1,), prec)

    def coeff(self, j: int):
        return self.coeffs[j] if 0 <= j <= self.prec else self.dom(0)

    def __str__(self):
        return _poly_str(self.coeffs, "z", self.dom(0), self.dom(1))


def _poly_str(coeffs, var: str, zero, one) -> str:
    """A polynomial in var as "c + v + c*v^j", skipping zero terms."""
    terms = []
    for j, c in enumerate(coeffs):
        if c == zero:
            continue
        power = var if j == 1 else f"{var}^{j}"
        terms.append(str(c) if j == 0 else power if c == one else f"{c}*{power}")
    return " + ".join(terms) if terms else "0"


def binom_mod2_expand(k: int, precision: int) -> TruncPoly:
    """(1+z)^k over F_2 truncated at the given precision, via Lucas."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    f2 = GF(2)
    return TruncPoly.of(
        f2, [binom_mod2(k, j) for j in range(precision + 1)], precision
    )


# ---------------------------------------------------------------------------
# graded abelian groups


def elementary_divisors(torsion) -> tuple[int, ...]:
    """Normalize a multiset of torsion orders to the divisibility chain
    d_1 | d_2 | ... (trivial orders 0 and 1 are dropped), with no factoring:
    diag(a, b) has the invariant factors gcd(a, b) | lcm(a, b), and
    exchanging each pair (i < j) for them leaves, prime by prime, the
    exponents sorted. Sorted orders that already form a chain, such as the
    calculator's, are returned as they are."""
    chain = sorted(ZZ(q) for q in torsion)
    if chain and chain[0] < 0:
        raise ValueError("torsion orders must be non-negative")
    chain = [q for q in chain if q > 1]
    if any(b % a for a, b in zip(chain, chain[1:])):
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                g = gcd(chain[i], chain[j])
                chain[i], chain[j] = g, chain[i] // g * chain[j]
        chain = [q for q in chain if q > 1]
    return tuple(chain)


class GradedAbGroup(
    NamedTuple("GradedAbGroup", [("groups", tuple[tuple[int, int, tuple[int, ...]], ...])])
):
    """Finitely supported map degree -> (free rank, torsion), stored in one
    canonical form made at construction: rows (degree, free rank, elementary
    divisors) sorted by degree, with zero rows dropped. So tuple equality and
    hashing compare groups up to isomorphism, and oracle output and theory
    predictions compare directly.

    For field coefficients the per-degree dimension is stored in the free
    rank slot with empty torsion.
    """

    __slots__ = ()

    def __new__(cls, groups):
        rows = sorted((ZZ(d), ZZ(f), elementary_divisors(t)) for d, f, t in groups)
        return super().__new__(cls, tuple(row for row in rows if row[1] or row[2]))

    @classmethod
    def _make(cls, iterable) -> "GradedAbGroup":
        return cls(*iterable)  # through __new__, and so _replace too

    @classmethod
    def of(cls, data) -> "GradedAbGroup":
        """data: mapping degree -> (free, torsion iterable)."""
        return cls((d, f, t) for d, (f, t) in data.items())

    def as_dict(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {d: (f, t) for d, f, t in self.groups}

    def free_rank(self, d: int) -> int:
        return self.as_dict().get(d, (0, ()))[0]

    def torsion(self, d: int) -> tuple[int, ...]:
        return self.as_dict().get(d, (0, ()))[1]

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _, _ in self.groups)

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=-1)

    def betti(self) -> tuple[int, ...]:
        """Per-degree free ranks 0..max_degree (field-coefficient view)."""
        rows = self.as_dict()
        return tuple(rows.get(d, (0,))[0] for d in range(self.max_degree + 1))

    def normalized(self) -> "GradedAbGroup":
        return self  # already canonical

    def __str__(self):
        if not self.groups:
            return "0"
        parts = []
        for d, f, t in self.groups:
            names = []
            if f:
                names.append("Z" if f == 1 else f"Z^{f}")
            names += [f"Z/{q}" for q in t]
            parts.append(f"{d}: " + " + ".join(names))
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Poincare series


class PoincareSeries(NamedTuple):
    """Polynomial in s with non-negative integer coefficients; coefficient of
    s^d is the degree-d dimension of the field-coefficient ring it summarizes."""

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, coeffs) -> "PoincareSeries":
        cs = [ZZ(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if any(c < 0 for c in cs):
            raise ValueError("Poincare coefficients must be non-negative")
        return cls(tuple(cs))

    @classmethod
    def from_dict(cls, dims: dict[int, int]) -> "PoincareSeries":
        top = max(dims, default=-1)
        return cls.of([dims.get(d, 0) for d in range(top + 1)])

    def coeff(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        top = max(self.degree, other.degree)
        return PoincareSeries.of(
            [self.coeff(d) + other.coeff(d) for d in range(top + 1)]
        )

    def __mul__(self, other):
        out = [0] * (self.degree + other.degree + 1 if self.coeffs and other.coeffs else 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PoincareSeries.of(out)

    __rmul__ = _no_tuple_arithmetic

    def __str__(self):
        return _poly_str(self.coeffs, "s", 0, 1)
