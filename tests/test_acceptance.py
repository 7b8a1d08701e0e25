"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is exact except the mu_1 numerics (1e-12 as stated).
"""

import cmath
import json
import random
import time
from functools import wraps
from io import StringIO

from lensprod.algebra import (
    GF,
    INFINITY,
    QQ,
    TruncPoly,
    TupleSpec,
    ZZ,
    binom_mod2,
)
from lensprod.cli import run as cli_run
from lensprod.cohomology import (
    build_ring,
    cup_length,
    field_modes,
    poincare_polynomial,
)
from lensprod.fgl import make_additive, make_multiplicative, t_series
from lensprod.invariants import (
    cat_bounds,
    euler_char,
    kervaire_semichar,
    sigma,
    stably_parallelizable,
    tc_bounds,
)
from lensprod.oracle import compare_with_theory
from lensprod.splittings import mu1, verify_wedge
from lensprod.steenrod import sq_k, stiefel_whitney_total, total_sq

from _grid import apply_linear, full_grid_specs, grid_specs, mul, multiplicative_t_series, sq_k_elem

ORACLE_TS = (1, 2, 3, 4, 6)


def criterion(number, title):
    def deco(fn):
        @wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} [{title}]: FAIL")
                raise
            print(f"criterion {number:2d} [{title}]: PASS")

        return wrapper

    return deco


@criterion(1, "oracle equivalence on the full grid")
def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    for spec in grid_specs(ts=ORACLE_TS):
        for dom in (ZZ, GF(2), GF(3)):
            report = compare_with_theory(spec, dom)
            assert report.ok, (spec, dom, report.mismatches())
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"grid took {elapsed:.0f}s, budget is 5 minutes"


@criterion(2, "Poincare duality of field Betti vectors")
def test_criterion_2_poincare_duality():
    for spec in grid_specs(ts=ORACLE_TS):
        for dom in field_modes(spec):
            coeffs = poincare_polynomial(build_ring(spec, dom)).coeffs
            assert coeffs == coeffs[::-1], (spec, dom)
    for spec in grid_specs(ts=(INFINITY,)):
        coeffs = poincare_polynomial(build_ring(spec, QQ)).coeffs
        assert coeffs == coeffs[::-1], spec


@criterion(3, "Euler characteristic case formula")
def test_criterion_3_euler():
    for spec in full_grid_specs():
        expected = spec.n[0] + 1 if (spec.r == 1 and not spec.finite) else 0
        # euler_char internally asserts equality with the alternating
        # rational Betti sum; check the F_2 sum independently here
        assert euler_char(spec) == expected
        betti = poincare_polynomial(build_ring(spec, GF(2))).coeffs
        assert expected == sum((-1) ** d * b for d, b in enumerate(betti)), spec


@criterion(4, "Kervaire semi-characteristic case table")
def test_criterion_4_kervaire():
    checked = 0
    for spec in full_grid_specs():
        if spec.dim % 2 == 0:
            continue
        betti = poincare_polynomial(build_ring(spec, GF(2))).coeffs
        from_betti = sum(betti[d] for d in range(0, len(betti), 2)) % 2
        n1, r, t = spec.n[0], spec.r, spec.t
        if (r == 1 and spec.finite and t % 2 == 0) or (r <= 2 and not spec.finite):
            expected = (n1 + 1) % 2
        elif r == 1 and spec.finite:
            expected = 1
        else:
            expected = 0
        assert from_betti == expected == kervaire_semichar(spec), spec
        checked += 1
    assert checked >= 40


@criterion(5, "wedge bookkeeping after suspension")
def test_criterion_5_wedge():
    for spec in full_grid_specs():
        for k in (0, 1, 2):
            for dom in field_modes(spec):
                check = verify_wedge(spec, k, dom)
                assert check.ok, (spec, k, dom, check.mismatch_degree)
    # the worked identity: Sigma CP_(1,1)(inf) ~ Sigma CP^1 v CP^3/CP^1
    check = verify_wedge(TupleSpec((1, 1), INFINITY), 0, QQ)
    assert check.lhs == ((3, 1), (4, 1), (6, 1))  # s^3 + s^4 + s^6


@criterion(6, "Steenrod axioms, Cartan and Adem relations")
def test_criterion_6_steenrod():
    for spec in full_grid_specs():
        if spec.t not in (2, 4, INFINITY):
            continue
        ring = build_ring(spec, GF(2))
        basis = ring.basis
        for m in basis:
            d = ring.degree(m)
            assert sq_k(ring, m, 0) == {m: 1}
            for k in range(d + 1, 2 * d + 2):
                assert sq_k(ring, m, k) == {}
            assert sq_k(ring, m, d) == ring.multiply(m, m)
        for m1 in basis:
            sq1 = total_sq(ring, m1)
            for m2 in basis:
                lhs = apply_linear(lambda m: total_sq(ring, m), ring, ring.multiply(m1, m2))
                assert lhs == mul(ring, sq1, total_sq(ring, m2)), (spec, m1, m2)
        for b in range(1, 12):
            for a in range(1, 12 - b + 1):
                if a >= 2 * b:
                    continue
                for m in basis:
                    lhs = sq_k_elem(ring, sq_k(ring, m, b), a)
                    rhs = {}
                    for j in range(0, a // 2 + 1):
                        if binom_mod2(b - 1 - j, a - 2 * j):
                            for m2, c in sq_k_elem(
                                ring, sq_k(ring, m, j), a + b - j
                            ).items():
                                rhs[m2] = (rhs.get(m2, 0) + c) % 2
                    rhs = {m2: c for m2, c in rhs.items() if c}
                    assert lhs == rhs, (spec, a, b, m)


@criterion(7, "t-series recursion against the closed forms")
def test_criterion_7_t_series():
    for t in range(1, 13):
        for prec in range(1, 9):
            law = make_multiplicative(1, ZZ, prec)
            assert t_series(law, t, prec).poly == multiplicative_t_series(t, prec)
            additive = make_additive(ZZ, prec)
            assert t_series(additive, t, prec).poly == TruncPoly.of(ZZ, (0, t), prec)


@criterion(8, "mu_1 numeric properties within 1e-12")
def test_criterion_8_mu1():
    rng = random.Random(2024)

    def rand_pair():
        return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))

    def norm(v):
        return sum(abs(x) ** 2 for x in v) ** 0.5

    for _ in range(1000):
        z, w = rand_pair(), rand_pair()
        # norm multiplicativity
        assert abs(norm(mu1(z, w)) - norm(z) * norm(w)) < 1e-12
        # invariance under the diagonal action of roots of unity / circle
        t = rng.choice((2, 3, 4, 6))
        lam = cmath.exp(2j * cmath.pi * rng.randrange(t) / t)
        moved = mu1(tuple(lam * x for x in z), tuple(lam * x for x in w))
        assert max(abs(p - q) for p, q in zip(moved, mu1(z, w))) < 1e-12
    # invertibility of mu1(z, -) for |z| = 1: it preserves norms, so the
    # real-linear map has modulus-one determinant; sample via basis images
    for _ in range(1000):
        z = rand_pair()
        z = tuple(x / norm(z) for x in z)
        images = [mu1(z, w) for w in ((1, 0), (1j, 0), (0, 1), (0, 1j))]
        for img in images:
            assert abs(norm(img) - 1) < 1e-12
        # orthogonality of the image frame (real inner products)
        for i in range(4):
            for j in range(i + 1, 4):
                dot = sum(
                    (a.conjugate() * b).real for a, b in zip(images[i], images[j])
                )
                assert abs(dot) < 1e-12


@criterion(9, "sigma, Stiefel-Whitney and parallelizability consistency")
def test_criterion_9_parallelizability():
    # stably parallelizable => all positive-degree SW classes vanish
    for spec in full_grid_specs():
        if stably_parallelizable(spec).value is True:
            w = stiefel_whitney_total(spec)
            assert all(w.coeff(j) == 0 for j in range(1, w.prec + 1)), spec
    # the pinned ladder value and the divisibility consequence
    assert sigma(1, 2) == 4
    assert stably_parallelizable(TupleSpec((1, 1), 2)).value is True
    # the t = INFINITY rule
    assert stably_parallelizable(TupleSpec((1, 1), INFINITY)).value is True
    assert stably_parallelizable(TupleSpec((1, 2), INFINITY)).value is False


@criterion(10, "bound coherence for cat/TC and the cup-length formula")
def test_criterion_10_bounds():
    for spec in full_grid_specs():
        cat_lo, cat_hi = cat_bounds(spec)
        tc_lo, tc_hi = tc_bounds(spec)
        assert cat_lo <= cat_hi and tc_lo <= tc_hi, spec
        base_hi = 2 * spec.n[0] if not spec.finite else 2 * (2 * spec.n[0] + 1)
        cat_base = spec.n[0] if not spec.finite else 2 * spec.n[0] + 1
        if base_hi <= 2 * cat_base:
            estuno = 2 * spec.r * (cat_base + 1) - 2
            assert tc_hi <= estuno - (spec.r - 1), spec
        if not spec.finite:
            assert cup_length(build_ring(spec, QQ)) == spec.n[0] + spec.r - 1, spec


@criterion(11, "CLI determinism and JSON schema on the grid")
def test_criterion_11_cli():
    for spec in grid_specs(ts=(2, 3, 4)):
        args = [
            "--n",
            ",".join(str(v) for v in spec.n),
            "--t",
            str(spec.t),
            "report",
            "--json",
        ]
        outs = []
        for _ in range(2):
            out, err = StringIO(), StringIO()
            assert cli_run(args, out, err) == 0, (spec, err.getvalue())
            outs.append(out.getvalue())
        assert outs[0] == outs[1], spec
        doc = json.loads(outs[0])
        assert list(doc) == [
            "input",
            "dim",
            "ring",
            "steenrod",
            "invariants",
            "splittings",
            "oracle",
        ] or list(doc) == [
            "input",
            "dim",
            "ring",
            "invariants",
            "splittings",
            "oracle",
        ]
        assert doc["dim"] == spec.dim
        assert isinstance(doc["ring"]["poincare"], list)
        assert isinstance(doc["invariants"]["cat"], list)
        assert doc["oracle"]["checked"] in (True, False)
