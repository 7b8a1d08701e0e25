"""Ring and Steenrod properties on random specs beyond the desk grid: r <= 5,
n_i <= 4 and t in {8, 9, 12, 16, inf}, so odd t (where w is present) and
nu_2(t) >= 3 are drawn as well. Each example draws a spec and basis
monomials of its ring."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lensprod.algebra import GF, INFINITY, QQ, ZZ, TupleSpec
from lensprod.cohomology import build_ring, change_coefficients, restriction_p
from lensprod.steenrod import total_sq

specs = st.builds(
    lambda n, t: TupleSpec(tuple(sorted(n)), t),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
    st.sampled_from((8, 9, 12, 16, INFINITY)),
)


def monomials(data, ring, k):
    return [data.draw(st.sampled_from(ring.basis)) for _ in range(k)]


def apply_linear(f, ring, elem: dict) -> dict:
    """The linear extension of a map f from basis monomials to elements of
    ring, applied to elem."""
    out: dict = {}
    for m, c in elem.items():
        for m2, c2 in f(m).items():
            out[m2] = out.get(m2, 0) + c * c2
    return ring._normalize(out)


@settings(max_examples=150, deadline=None)
@given(spec=specs, data=st.data())
def test_cartan_formula_property(spec, data):
    # Sq(m1 m2) = Sq(m1) Sq(m2), the right side multiplied out by ring.mul
    ring = build_ring(spec, GF(2))
    m1, m2 = monomials(data, ring, 2)
    lhs = apply_linear(lambda m: total_sq(ring, m), ring, ring.multiply(m1, m2))
    assert lhs == ring.mul(total_sq(ring, m1), total_sq(ring, m2)), (spec, m1, m2)


@settings(max_examples=150, deadline=None)
@given(spec=specs, dom=st.sampled_from((ZZ, GF(2), GF(3))), data=st.data())
def test_multiply_is_associative_and_graded_commutative(spec, dom, data):
    ring = build_ring(spec, dom)
    m1, m2, m3 = monomials(data, ring, 3)
    left = ring.mul(ring.multiply(m1, m2), {m3: 1})
    assert left == ring.mul({m1: 1}, ring.multiply(m2, m3)), (spec, m1, m2, m3)
    sign = -1 if ring.degree(m1) % 2 and ring.degree(m2) % 2 else 1
    assert ring.mul({m1: 1}, {m2: 1}) == ring.mul({m2: sign}, {m1: 1}), (spec, m1, m2)


@settings(max_examples=150, deadline=None)
@given(spec=specs, p=st.sampled_from((2, 3, 5)), data=st.data())
def test_change_coefficients_is_a_ring_map(spec, p, data):
    red = change_coefficients(build_ring(spec, ZZ), p)
    m1, m2 = monomials(data, red.source, 2)
    lhs = apply_linear(red.image, red.target, red.source.multiply(m1, m2))
    assert lhs == red.target.mul(red.image(m1), red.image(m2)), (spec, p, m1, m2)


@settings(max_examples=150, deadline=None)
@given(spec=specs, dom=st.sampled_from((ZZ, GF(2), GF(3))), data=st.data())
def test_restriction_is_a_ring_map(spec, dom, data):
    ring = build_ring(spec, dom)
    kept = {1} | set(data.draw(st.lists(st.integers(1, spec.r)), label="kept"))
    res = restriction_p(ring, kept)
    m1, m2 = monomials(data, res.sub, 2)
    lhs = apply_linear(lambda m: {res.image(m): 1}, ring, res.sub.multiply(m1, m2))
    assert lhs == ring.multiply(res.image(m1), res.image(m2)), (spec, kept, m1, m2)


def _rank(matrix: list, p: int | None) -> int:
    """Rank of a matrix of ints (mod p) or Fractions (p None), by Gaussian
    elimination."""
    rows = [[Fraction(v) if p is None else v % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col] if p is None else pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                if p is not None:
                    rows[i] = [a % p for a in rows[i]]
        rank += 1
    return rank


@settings(max_examples=100, deadline=None)
@given(spec=specs, dom=st.sampled_from((GF(2), GF(3), QQ)))
def test_poincare_duality(spec, dom):
    # over a field the top group is one-dimensional and the cup pairing
    # H^d x H^(dim-d) -> H^dim is nonsingular in every degree
    ring = build_ring(spec, dom)
    dim = spec.dim
    by_degree = ring.basis_by_degree
    (top,) = by_degree[dim]
    p = None if dom.kind == "Q" else dom.p
    for d in range(dim + 1):
        left = by_degree.get(d, ())
        right = by_degree.get(dim - d, ())
        assert len(left) == len(right), (spec, d)
        if not left:
            continue
        pairing = [[ring.multiply(a, b).get(top, 0) for b in right] for a in left]
        assert _rank(pairing, p) == len(left), (spec, d)
