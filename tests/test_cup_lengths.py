"""The cup-length searches, which run on the base factor and add r - 1,
against brute-force searches over the whole ring: dict-valued elements built
from ring.multiply and tensor_mul, kept here as the reference."""

import pytest
from hypothesis import given, settings, strategies as st

from lensprod.algebra import GF, INFINITY, QQ, TupleSpec
from lensprod.cohomology import (
    build_ring,
    cup_length,
    field_modes,
    tensor_mul,
    zero_divisor_cup_length,
)

from _grid import full_grid_specs


def reference_cup_length(ring) -> int:
    gens = ring.positive_generators()
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
    gens = ring.positive_generators()
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
