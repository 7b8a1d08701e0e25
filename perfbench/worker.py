"""One fresh interpreter of the benchmark. Started by run.py, never imported
by it, so every timed pass begins with cold caches.

    worker.py setup  <workload> <seed> <tiny>          import + generate, then exit
    worker.py oracle <workload> <seed> <tiny> <trace>   one oracle pass
    worker.py query  <argv-json>                         one traced CLI query

Each mode prints "ready" once lensprod is imported and the inputs exist, then
(except setup) one JSON line with its result. The lensprod imported is the
one under <checkout>/src; any other copy is refused.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import lensprod  # noqa: E402
from lensprod import cli, fgl, invariants, oracle, splittings, steenrod  # noqa: E402
from lensprod.algebra import GF, INFINITY, ZZ, TupleSpec  # noqa: E402
from lensprod.cohomology import (  # noqa: E402
    build_ring,
    cup_length,
    field_modes,
    graded_groups,
    zero_divisor_cup_length,
)

if not os.path.abspath(lensprod.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"imported lensprod from {lensprod.__file__}, not from {SRC}")

from spans import Tracer  # noqa: E402
import workloads  # noqa: E402


COEFFS = {"Z": ZZ, "F2": GF(2), "F3": GF(3)}
MODULES = [m for name, m in sys.modules.items() if name.startswith("lensprod")]


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def clear_caches() -> None:
    """Empty every lru_cache in lensprod, as a fresh process would have it."""
    for module in MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def assert_cold() -> None:
    info = getattr(build_ring, "cache_info", None)
    if info is not None and info().currsize != 0:
        raise SystemExit("build_ring cache is not empty before the timed pass")


# ---------------------------------------------------------------------------
# oracle ops


def traced_compare(tr: Tracer, spec, dom, complexes: dict, cap: int) -> bool:
    """compare_with_theory, stage by stage from its public parts. complexes
    plays the part of the oracle's per-process complex cache."""
    with tr.span("oracle.compare") as compare:
        cx = complexes.get(spec)
        if cx is None:
            with tr.span("oracle.build") as build:
                cx = oracle.product_quotient_complex(spec, cap)
            build["cells"] = sum(cx.ranks)
            build["nonzeros"] = sum(len(b) for b in cx.boundaries[1:])
            complexes[spec] = cx
        stage = "oracle.homology_fp" if dom.kind == "Fp" else "oracle.homology_z"
        with tr.span(stage):
            h = oracle.homology(cx, dom)
        with tr.span("oracle.theory_side"):
            oracle_side = oracle.cohomology_from_homology(h, spec.dim).normalized()
            with tr.span("cohomology.build_ring") as ring_attrs:
                ring = build_ring(spec, dom)
            ring_attrs["basis"] = len(ring.basis)
            theory_side = graded_groups(ring).normalized()
            ok = all(
                (theory_side.free_rank(d), theory_side.torsion(d))
                == (oracle_side.free_rank(d), oracle_side.torsion(d))
                for d in range(spec.dim + 1)
            )
    compare["ok"] = ok
    return ok


def oracle_pass(workload: str, seed: int, tiny: bool, trace: bool) -> dict:
    ops = workloads.generate(workload, seed, tiny)
    inputs = [(TupleSpec(tuple(op["n"]), op["t"]), COEFFS[op["coeff"]]) for op in ops]
    _ready()
    assert_cold()
    tr = Tracer()
    complexes: dict = {}
    times, failures = [], []
    start = perf_counter()
    for i, (spec, dom) in enumerate(inputs):
        t0 = perf_counter()
        try:
            if trace:
                tr.op = i
                ok = traced_compare(tr, spec, dom, complexes, oracle.DEFAULT_CAP)
            else:
                ok = oracle.compare_with_theory(spec, dom).ok
        except Exception as exc:  # an op that raises is a failed op, not a crash
            ok = False
            failures.append({"op": ops[i], "error": repr(exc)})
        else:
            if not ok:
                failures.append({"op": ops[i], "error": "oracle mismatch"})
        times.append(perf_counter() - t0)
    wall = perf_counter() - start
    result = {"wall_s": wall, "op_s": times, "failures": failures}
    if trace:
        complexes.clear()
        replay = calculator_replay(tr, workloads.calculator_queries(ops))
        result["replay_s"] = replay
        result["spans"] = tr.spans
    return result


# ---------------------------------------------------------------------------
# CLI queries: in-process cli.run, then the same layer calls replayed


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def replay(tr: Tracer, argv: list[str]) -> None:
    """The layer calls cli.run makes for argv, in its order and with its
    caching, each in a span under one cli.replay span; then, for queries
    that reach them, the inner calls of invariant_report timed cold."""
    try:
        q = cli.parse(argv)
    except cli.UsageError:
        return  # rejected before any layer runs
    spec, dom = q.spec, q.dom
    clear_caches()
    with tr.span("cli.replay"):
        if q.command in ("ring", "report"):
            ring_span(tr, spec, dom)
        if q.command == "steenrod":
            sq_sweep(tr, ring_span(tr, spec, GF(2)))
        elif q.command == "report" and dom == GF(2):
            sq_sweep(tr, build_ring(spec, GF(2)))  # a cache hit, as in cli.run
        if q.command in ("invariants", "report"):
            with tr.span("invariants.report"):
                invariants.invariant_report(
                    spec, gd=q.gd, span_base=q.span_base, tc_override=q.tc_override
                )
        if q.command == "split" or q.command == "report":
            with tr.span("splittings.cartesian_split"):
                splittings.cartesian_split(spec)
        if (q.command == "wedge" or q.command == "report") and dom.is_field:
            with tr.span("splittings.verify_wedge"):
                splittings.verify_wedge(spec, q.k, dom)
        if q.command == "tseries" and q.t != INFINITY:
            if q.law == "additive":
                law = fgl.make_additive(ZZ, q.precision)
            else:
                law = fgl.make_multiplicative(q.unit, ZZ, q.precision)
            with tr.span("fgl.t_series"):
                fgl.t_series(law, q.t, q.precision)
        if q.command in ("oracle", "report") and spec.finite:
            try:
                traced_compare(tr, spec, ZZ if q.command == "report" else dom, {}, q.cap)
            except oracle.MemoryCapError:
                pass
    if q.command in ("invariants", "report"):
        clear_caches()
        with tr.span("invariants.tc_bounds"):
            invariants.tc_bounds(spec, q.tc_override)
        clear_caches()
        for mode in field_modes(spec):
            ring = build_ring(spec, mode)
            with tr.span("cohomology.cup_length"):
                cup_length(ring)
            with tr.span("cohomology.zcl"):
                zero_divisor_cup_length(ring)


def ring_span(tr: Tracer, spec, dom):
    with tr.span("cohomology.build_ring") as attrs:
        ring = build_ring(spec, dom)
    attrs["basis"] = len(ring.basis)
    return ring


def sq_sweep(tr: Tracer, ring) -> None:
    with tr.span("steenrod.total_sq") as attrs:
        for m in ring.basis:
            steenrod.total_sq(ring, m)
    attrs["calls"] = len(ring.basis)


def traced_query(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    with tr.span("cli.run"):
        code, digest = run_cli(argv)
    replay(tr, argv)
    return code, digest


def calculator_replay(tr: Tracer, queries: list[dict]) -> float:
    """oracle-grid's calculator side, outside their timed pass."""
    start = perf_counter()
    tr.op = "calculator"
    for q in queries:
        clear_caches()
        code, _ = traced_query(tr, q["argv"])
        if code != 0:
            raise SystemExit(f"calculator query {q['argv']} exited {code}")
    return perf_counter() - start


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        workloads.generate(argv[1], int(argv[2]), argv[3] == "1")
        _ready()
    elif mode == "oracle":
        result = oracle_pass(argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1")
        print(json.dumps(result))
    elif mode == "query":
        _ready()
        tr = Tracer()
        code, digest = traced_query(tr, json.loads(argv[1]))
        run_end = next(end for name, _, end, _, _, _ in tr.spans if name == "cli.run")
        replay_s = perf_counter() - run_end
        print(json.dumps({"exit": code, "sha256": digest, "replay_s": replay_s, "spans": tr.spans}))
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
