"""The closed-form cup lengths, sums over the base factor's letters plus
r - 1, against brute-force searches over the whole ring: dict-valued elements
built from ring.multiply and tensor_mul, kept here as the reference."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lensprod.algebra import GF, INFINITY, QQ, TupleSpec
from lensprod.cohomology import (
    _carry_free_max,
    build_ring,
    cup_length,
    field_modes,
    zero_divisor_cup_length,
)

from _grid import full_grid_specs, positive_generators


def tensor_mul(ring, e1: dict, e2: dict) -> dict:
    """Product in ring tensor ring with the Koszul sign; elements are maps
    (m_left, m_right) -> coefficient."""
    out: dict = {}
    for (a2, b2), c2 in e2.items():
        for (a1, b1), c1 in e1.items():
            sign = -1 if ring.degree(a2) % 2 and ring.degree(b1) % 2 else 1
            for ma, ca in ring.multiply(a1, a2).items():
                for mb, cb in ring.multiply(b1, b2).items():
                    out[(ma, mb)] = out.get((ma, mb), 0) + sign * c1 * c2 * ca * cb
    return {k: c for k, v in out.items() if (c := ring.dom(v)) != ring.dom(0)}


def reference_cup_length(ring) -> int:
    gens = positive_generators(ring)
    best = {g: 1 for g in gens}
    for m in ring.basis:  # sorted by degree
        length = best.get(m)
        if not length:
            continue
        for g in gens:
            for m2, c in ring.multiply(m, g).items():
                if c != ring.dom(0) and best.get(m2, 0) < length + 1:
                    best[m2] = length + 1
    return max(best.values(), default=0)


def reference_zcl(ring) -> int:
    gens = positive_generators(ring)
    one = ring.unit
    bars = [{(g, one): ring.dom(1), (one, g): ring.dom(-1)} for g in gens]
    best = 0

    def extend(elem: dict, start: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for idx in range(start, len(bars)):
            nxt = tensor_mul(ring, elem, bars[idx])
            if nxt:
                extend(nxt, idx, length + 1)

    extend({(one, one): ring.dom(1)}, 0, 0)
    return best


def grid_field_rings():
    for spec in full_grid_specs():
        for dom in field_modes(spec):
            yield build_ring(spec, dom)


def test_zcl_matches_brute_force_on_grid():
    for ring in grid_field_rings():
        assert zero_divisor_cup_length(ring) == reference_zcl(ring), ring


def test_cup_length_matches_brute_force_on_grid():
    for ring in grid_field_rings():
        assert cup_length(ring) == reference_cup_length(ring), ring


def test_closed_forms_match_brute_force_on_base_factors():
    # r = 1 up to n1 = 16, where the letters are tallest: carries in base 2,
    # 3 and 5, over every presentation
    for t in (INFINITY, 2, 4, 3, 9, 5, 6, 10, 15):
        for n1 in range(17):
            spec = TupleSpec((n1,), t)
            for dom in dict.fromkeys(field_modes(spec) + (GF(2), GF(3), GF(5))):
                ring = build_ring(spec, dom)
                assert cup_length(ring) == reference_cup_length(ring), ring
                assert zero_divisor_cup_length(ring) == reference_zcl(ring), ring


def test_carry_free_max_is_the_largest_sum_with_a_unit_binomial():
    for p in (0, 2, 3, 5, 7):
        for m in range(40):
            pairs = ((a, b) for a in range(m + 1) for b in range(m + 1))
            best = max(a + b for a, b in pairs if p == 0 or comb(a + b, a) % p)
            assert _carry_free_max(m, p) == best, (m, p)


@settings(max_examples=30, deadline=None)
@given(
    n=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    t=st.sampled_from((INFINITY,) + tuple(range(1, 17))),
)
def test_searches_match_brute_force_property(n, t):
    # every presentation: Q and F_p for p | t, and F2, F3 in any other
    spec = TupleSpec(tuple(sorted(n)), t)
    for dom in dict.fromkeys(field_modes(spec) + (GF(2), GF(3))):
        ring = build_ring(spec, dom)
        assert cup_length(ring) == reference_cup_length(ring), ring
        assert zero_divisor_cup_length(ring) == reference_zcl(ring), ring


@pytest.mark.parametrize(
    "n, t, dom, zcl, cl",
    [
        ((2, 2, 2, 2, 2), 2, QQ, 5, 5),
        ((2, 2, 2, 2, 2), 2, GF(2), 11, 9),
        ((1,) * 6, 2, QQ, 6, 6),
        ((1,) * 6, 2, GF(2), 8, 8),
        ((1,) * 7, INFINITY, QQ, 8, 7),
        # past the reach of the brute force: zcl and cup length of the base
        # factor plus 11
        ((1,) * 12, 2, QQ, 12, 12),
        ((1,) * 12, 2, GF(2), 14, 14),
        ((1,) * 12, INFINITY, QQ, 13, 12),
        # one tall letter: 2^s - 1 for F2[y]/y^{2 n + 2} (Farber, Tabachnikov
        # and Yuzvinsky), and the base-3 digits of 40 = 1111_3
        ((60,), 2, GF(2), 127, 121),
        ((100,), 2, GF(2), 255, 201),
        ((200,), 2, GF(2), 511, 401),
        ((40,), INFINITY, QQ, 80, 40),
        ((40,), 9, GF(3), 81, 41),
    ],
)
def test_zcl_heavy_specs_pinned(n, t, dom, zcl, cl):
    ring = build_ring(TupleSpec(n, t), dom)
    assert zero_divisor_cup_length(ring) == zcl
    assert cup_length(ring) == cl


def test_searches_leave_the_ring_untouched():
    ring = build_ring(TupleSpec((1, 1, 2), 2), GF(2))
    before = dict(vars(ring))
    cup_length(ring)
    zero_divisor_cup_length(ring)
    assert vars(ring) == before
