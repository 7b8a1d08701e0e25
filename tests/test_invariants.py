import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest

from lensprod.algebra import GF, INFINITY, TupleSpec
from lensprod.cohomology import build_ring, field_modes, poincare_polynomial
from lensprod.invariants import (
    cat_bounds,
    euler_char,
    immersion_dim,
    invariant_report,
    kervaire_semichar,
    motion_plan_sphere,
    parallelizable,
    sigma,
    span_report,
    stably_parallelizable,
    tc_bounds,
    unknown,
    vector_field_exists,
)

from _grid import full_grid_specs


def test_euler_char_examples():
    assert euler_char(TupleSpec((2,), INFINITY)) == 3
    assert euler_char(TupleSpec((1, 2), 3)) == 0
    assert euler_char(TupleSpec((4,), 6)) == 0


def test_euler_char_matches_betti_on_grid():
    # the case formula is asserted against the alternating rational Betti sum
    # inside euler_char itself; check every canonical field mode here
    from lensprod.cohomology import field_modes

    for spec in full_grid_specs():
        chi = euler_char(spec)
        for dom in field_modes(spec) + (GF(2),):
            betti = poincare_polynomial(build_ring(spec, dom)).coeffs
            assert chi == sum((-1) ** d * b for d, b in enumerate(betti))


def test_kervaire_examples():
    assert kervaire_semichar(TupleSpec((2,), 2)) == 1  # [3]
    assert kervaire_semichar(TupleSpec((1, 1), INFINITY)) == 0  # [2]
    assert kervaire_semichar(TupleSpec((0, 0, 0), 2)) == 0


def test_kervaire_even_dim_is_half_euler():
    with pytest.warns(UserWarning):
        assert kervaire_semichar(TupleSpec((2,), INFINITY)) == Fraction(3, 2)
    with pytest.warns(UserWarning):
        assert kervaire_semichar(TupleSpec((1, 1), 2)) == 0


def test_kervaire_odd_dim_grid():
    # the F_2 Betti computation is asserted equal to the case table inside
    # kervaire_semichar; run it across every odd-dimensional grid spec
    count = 0
    for spec in full_grid_specs():
        if spec.dim % 2 == 1:
            assert kervaire_semichar(spec) in (0, 1)
            count += 1
    assert count > 20


def test_sigma_examples():
    assert sigma(1, 2) == 4  # case 1, exponent 2
    assert sigma(3, 2) == 4  # case 4, exponent 1 + 3 - 2 = 2
    assert sigma(1, 3) == 1  # odd p, n1 = 1: final case
    assert sigma(2, 12) == 24  # 2^{2+2-1} * 3^{1+0}


def test_sigma_more_ladder_walks():
    assert sigma(2, 2) == 8  # case 1: exponent 3
    assert sigma(1, 4) == 2  # case 4: exponent 2 + 1 - 2 = 1
    assert sigma(2, 4) == 8  # case 3: exponent 2 + 2 - 1 = 3
    assert sigma(4, 3) == 9  # case 5: exponent 1 + floor(2/2) = 2
    assert sigma(2, 9) == 9  # case 5: exponent 2 + 0
    assert sigma(5, 1) == 1  # no primes divide 1


def test_sigma_rejects_bad_input():
    with pytest.raises(ValueError):
        sigma(0, 2)
    with pytest.raises(ValueError):
        sigma(1, 0)


def test_sigma_refuses_a_bool():
    # True is an int, but no n1 or t; TupleSpec refuses a bool t the same way
    with pytest.raises(ValueError, match="got True"):
        sigma(True, 2)
    with pytest.raises(ValueError, match="got True"):
        sigma(1, True)


def test_stably_parallelizable_examples():
    assert stably_parallelizable(TupleSpec((1, 1), INFINITY)).value is True
    assert stably_parallelizable(TupleSpec((1, 2), INFINITY)).value is False
    assert stably_parallelizable(TupleSpec((1, 1), 2)).value is True  # 4 | 4
    assert stably_parallelizable(TupleSpec((0, 2), 9)).value is True


def test_parallelizable_examples():
    assert parallelizable(TupleSpec((1, 1), INFINITY)).value is True
    assert parallelizable(TupleSpec((2,), INFINITY)).value is False
    assert parallelizable(TupleSpec((0, 4), INFINITY)).value is False  # S^9
    assert parallelizable(TupleSpec((0, 1), INFINITY)).value is True  # S^3
    assert parallelizable(TupleSpec((1,), 5)).value is True  # 3-manifold
    assert parallelizable(TupleSpec((2,), 5)).value is None  # literature
    assert parallelizable(TupleSpec((1,), 5)).known and not unknown("r").known


def test_parallelizable_implications_on_grid():
    # TRUE parallelizable implies TRUE stably parallelizable and chi = 0,
    # except: the 0-dimensional point (chi = 1), and r = 1, n1 = 1,
    # t = 2 mod 4 where the verbatim sigma ladder (case 1 shadowing case 2)
    # declares L^3(t) not stably parallelizable although it is parallelizable
    for spec in full_grid_specs():
        if spec.dim == 0:
            continue
        par = parallelizable(spec)
        if par.value is not True:
            continue
        assert euler_char(spec) == 0, spec
        ladder_artifact = (
            spec.r == 1 and spec.n[0] == 1 and spec.finite and spec.t % 4 == 2
        )
        if not ladder_artifact:
            assert stably_parallelizable(spec).value is True, spec


def test_vector_field_examples():
    assert vector_field_exists(TupleSpec((3,), INFINITY)) is False
    assert vector_field_exists(TupleSpec((3,), 9)) is True
    assert vector_field_exists(TupleSpec((1, 1), INFINITY)) is True


def test_cat_bounds_examples():
    assert cat_bounds(TupleSpec((1, 1), INFINITY)) == (2, 3)
    assert cat_bounds(TupleSpec((2,), INFINITY)) == (2, 2)  # exact for CP^n
    assert cat_bounds(TupleSpec((1, 1), 2)) == (4, 7)


def test_tc_bounds_examples():
    # hi = 2(1+2)-1 = 5; lo = zcl = 3 (the 4 in the source example is not
    # attainable: every 4-fold product of generator differences vanishes)
    assert tc_bounds(TupleSpec((1, 1), INFINITY)) == (3, 5)
    for n1 in (1, 2):
        assert tc_bounds(TupleSpec((n1,), INFINITY)) == (2 * n1, 2 * n1)
    lo, hi = tc_bounds(TupleSpec((1, 1, 1), INFINITY))
    assert hi == 8  # 3*(1+2)-1, against the fibration bound 10


def test_tc_improvement_over_fibration_bound():
    for spec in full_grid_specs():
        base_hi = (
            2 * spec.n[0]
            if not spec.finite
            else 2 * (2 * spec.n[0] + 1)
        )
        cat_base = spec.n[0] if not spec.finite else 2 * spec.n[0] + 1
        estuno = 2 * spec.r * (cat_base + 1) - 2
        _, hi = tc_bounds(spec)
        if base_hi <= 2 * cat_base:
            assert hi <= estuno - (spec.r - 1), spec


def test_tc_override():
    assert tc_bounds(TupleSpec((1,), 2), base_tc_override=(3, 3)) == (3, 3)
    with pytest.raises(ValueError):
        tc_bounds(TupleSpec((1,), 2), base_tc_override=(4, 2))


def test_bounds_ordered_on_grid():
    for spec in full_grid_specs(nmax=2, rmax=2):
        lo, hi = cat_bounds(spec)
        assert lo <= hi
        lo2, hi2 = tc_bounds(spec)
        assert lo2 <= hi2
        assert lo2 >= lo  # TC >= cat is folded into the lower bound


def test_span_examples():
    # dim 6, r - delta even, stably parallelizable
    info = span_report(TupleSpec((1, 1), 2))
    assert info.stablespan == 6 and info.span == 6
    assert info.span_equals_stablespan

    # L^3(2) = RP^3: dim 3 = 3 mod 8, chi* = 0, |n|+r even
    info = span_report(TupleSpec((1,), 2))
    assert info.span_equals_stablespan
    assert info.stablespan is None  # the verbatim ladder gives sigma = 4

    # dim 5: no clause applies
    info = span_report(TupleSpec((2,), 2))
    assert not info.span_equals_stablespan
    assert info.stablespan is None and info.span is None


def test_span_with_literature_input():
    # supplying span((|n|+r) gamma over the base) pins stablespan
    spec = TupleSpec((2,), 2)
    info = span_report(spec, span_base_input=3)
    assert info.stablespan == 3 - 1 - 0
    with pytest.raises(ValueError):
        span_report(spec, span_base_input=7)  # above 2(|n|+r) = 6
    with pytest.raises(ValueError):
        span_report(spec, span_base_input=-1)


def test_span_forced_three():
    # dim = 3 mod 8, parity holds, chi* = 1: span forced to 3.
    # L^{11}(2) has dim 11 = 3 mod 8, r = 1, |n|+r = 6 even, chi* = [6] = ...
    # chi*(L^{11}(2)) = [n1+1] = [6] = 0, so that one is not forced; use
    # (0,0,0) with t=2: dim 3, n1 = 0, chi* = [0]... also 0. A forced case
    # needs chi* = 1: r = 1, t even, n1 even with 2n1+1 = 3 mod 8 -> n1 = 1
    # mod 4 and n1 + 1 odd -> n1 even: impossible; r = 3 gives chi* = 0.
    # For t odd, r = 1: chi* = [1], dim = 2n1+1 = 3 mod 8 -> n1 = 1 mod 4,
    # |n|+r = n1+1 even: L^3(5): forced span 3 (it is parallelizable).
    info = span_report(TupleSpec((1,), 5))
    assert info.span == 3
    assert not info.span_equals_stablespan


def test_span_inapplicable_without_vector_field():
    info = span_report(TupleSpec((2,), INFINITY))
    assert not info.span_equals_stablespan
    assert any("inapplicable" in c for c in info.clauses)


def test_immersion_examples():
    assert immersion_dim(TupleSpec((1, 1), INFINITY), 0) == 6
    assert immersion_dim(TupleSpec((2,), INFINITY), 2) == 6
    # the op formula: [dim+1, dim + 2 n1 + 2 - delta] with dim = 8, delta = 0
    assert immersion_dim(TupleSpec((1, 2), 3)) == (9, 12)
    assert immersion_dim(TupleSpec((1, 2), INFINITY)) == (8, 10)


def test_immersion_rejects_out_of_range_gd():
    with pytest.raises(ValueError):
        immersion_dim(TupleSpec((1, 1), INFINITY), 4)
    with pytest.raises(ValueError):
        immersion_dim(TupleSpec((1, 1), INFINITY), -1)


# ---------------------------------------------------------------------------
# motion planner


def _unit(rng, n):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return tuple(x / norm for x in v)


def test_planner_rule0_constant_on_diagonal():
    a = (1 / math.sqrt(2), 1j / math.sqrt(2))
    path = motion_plan_sphere(1, a, a, 0, samples=7)
    for p in path:
        assert max(abs(x - y) for x, y in zip(p, a)) < 1e-12


def test_planner_rule1_first_leg_midpoint_is_ia():
    a = (1, 0, 0)
    b = (0, 0, 1)
    # leg 1 has length pi, leg 2 length pi/2; midpoint of leg 1 sits at
    # parameter (pi/2) / (3pi/2) = 1/3
    path = motion_plan_sphere(2, a, b, 1, samples=3 * 800 + 1)
    mid = path[800]
    expected = tuple(1j * x for x in a)
    assert max(abs(x - y) for x, y in zip(mid, expected)) < 1e-3


def test_planner_rejections():
    a = (1, 0)
    with pytest.raises(ValueError):
        motion_plan_sphere(1, a, tuple(-x for x in a), 0)
    with pytest.raises(ValueError):
        motion_plan_sphere(1, a, a, 1)
    with pytest.raises(ValueError):
        motion_plan_sphere(1, (2, 0), a, 0)


def test_planner_unit_norm_and_endpoints():
    rng = random.Random(17)
    for rule in (0, 1):
        for _ in range(25):
            a, b = _unit(rng, 2), _unit(rng, 2)
            path = motion_plan_sphere(2, a, b, rule, samples=33)
            for p in path:
                assert abs(sum(abs(x) ** 2 for x in p) - 1) < 1e-12
            assert max(abs(x - y) for x, y in zip(path[0], a)) < 1e-12
            assert max(abs(x - y) for x, y in zip(path[-1], b)) < 1e-12


def test_planner_equivariance():
    # path(lam a, lam b) = lam path(a, b) for lam in Z_t
    rng = random.Random(23)
    for rule in (0, 1):
        for t in (2, 3, 5):
            for _ in range(20):
                a, b = _unit(rng, 1), _unit(rng, 1)
                lam = cmath.exp(2j * cmath.pi * rng.randrange(t) / t)
                base = motion_plan_sphere(1, a, b, rule, samples=17)
                moved = motion_plan_sphere(
                    1, tuple(lam * x for x in a), tuple(lam * x for x in b), rule, samples=17
                )
                for p, q in zip(base, moved):
                    assert max(abs(lam * x - y) for x, y in zip(p, q)) < 1e-12


def test_planner_continuity_refines():
    rng = random.Random(29)
    a, b = _unit(rng, 1), _unit(rng, 1)
    gaps = []
    for m in (17, 65, 257):
        path = motion_plan_sphere(1, a, b, 1, samples=m)
        gaps.append(
            max(
                math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(p, q)))
                for p, q in zip(path, path[1:])
            )
        )
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


# ---------------------------------------------------------------------------
# assembled report


def test_invariant_report_assembly():
    rep = invariant_report(TupleSpec((1, 1), INFINITY))
    assert rep.chi == 0
    assert rep.spin and rep.orientable
    assert rep.has_nonzero_field == (rep.chi == 0)
    assert rep.stably_parallelizable.json() == "true"
    assert rep.cat == (2, 3) and rep.tc == (3, 5)
    assert rep.cat[0] <= rep.cat[1] and rep.tc[0] <= rep.tc[1]


def test_invariant_report_cp2():
    rep = invariant_report(TupleSpec((2,), INFINITY))
    assert rep.chi == 3
    assert rep.has_nonzero_field is False
    assert rep.chi_star == Fraction(3, 2)


def test_invariant_report_gd_passthrough():
    rep = invariant_report(TupleSpec((1, 1), INFINITY), gd=0)
    assert rep.imm == 6


@pytest.mark.parametrize(
    "n, t",
    [((1, 1, 1), 2), ((1, 1), 2), ((1,), 2), ((0, 0, 0), 3), ((1, 2), INFINITY), ((2,), INFINITY)],
)
def test_invariant_report_evaluates_each_invariant_once(monkeypatch, n, t):
    # the report hands chi, chi*, the vector field, stable
    # parallelizability and the cat bounds on to the invariants that read
    # them, so each is evaluated once, cup lengths once per field mode, and
    # each Betti sequence is read once
    import lensprod.invariants as inv

    spec = TupleSpec(n, t)
    calls: dict = {}

    def counted(name):
        real = getattr(inv, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return real(*args)

        monkeypatch.setattr(inv, name, wrapper)

    for name in (
        "euler_char",
        "_betti",
        "stably_parallelizable",
        "vector_field_exists",
        "_vector_field",
        "kervaire_semichar",
        "_odd_semichar",
        "cat_bounds",
        "cup_length",
    ):
        counted(name)
    rep = invariant_report(spec, span_base=2)
    count = {name: len(args) for name, args in calls.items()}
    assert count["euler_char"] == 1
    assert count["stably_parallelizable"] == 1
    assert count.get("vector_field_exists", 0) + count["_vector_field"] == 1
    semichars = count.get("kervaire_semichar", 0) + count.get("_odd_semichar", 0)
    assert semichars == spec.dim % 2
    assert count["cat_bounds"] == 1
    assert count["cup_length"] == len(field_modes(spec))
    assert len(set(calls["_betti"])) == len(calls["_betti"])
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chi_star = kervaire_semichar(spec)
    assert rep.chi == euler_char(spec) and rep.chi_star == chi_star
    assert rep.has_nonzero_field == vector_field_exists(spec)
    assert rep.stably_parallelizable == stably_parallelizable(spec)
    assert rep.parallelizable == parallelizable(spec)
    assert rep.span == span_report(spec, 2)
    assert rep.cat == cat_bounds(spec) and rep.tc == tc_bounds(spec)
