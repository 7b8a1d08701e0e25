"""lensprod benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Every timed pass runs in a fresh interpreter
(worker.py, or `python -m lensprod` for each cli-corpus query), one op at a
time: a closed loop with a single client and at most one child process alive.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass, and the
difference from an untraced pass run just before it as trace.overhead_s. The
line before it is the full record (provenance, samples, failures). See
README.md in this directory for the schema and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 2  # setup-only interpreters before each pass, besides the pass workers
CHILD_TIMEOUT_S = 170  # a child still alive after this is killed

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Child:
    """One child process, killed if it outlives CHILD_TIMEOUT_S and reaped
    with os.wait4 so that its own peak RSS is known."""

    def __init__(self, argv: list[str], stderr=None):
        env = dict(os.environ, PYTHONPATH=SRC)
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr
        )
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline().decode()

    def finish(self) -> tuple[bytes, int, float, float]:
        """Rest of stdout, exit code, seconds since spawn, peak RSS in MB."""
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        end = perf_counter()
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return out, self.proc.returncode, end - self.start, usage.ru_maxrss / 1024


def worker(*args) -> Child:
    return Child([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)])


def await_ready(child: Child) -> float:
    """Seconds from spawn until the child has imported lensprod and built its
    inputs; fails the run if the child dies first."""
    line = child.readline()
    ready = perf_counter() - child.start
    if line.strip() != "ready":
        out, code, _, _ = child.finish()
        raise SystemExit(f"worker failed before it was ready (exit {code})")
    return ready


def finish_json(child: Child) -> tuple[dict, float, float]:
    """The worker's result line, its peak RSS in MB and its life in seconds."""
    out, code, elapsed, peak = child.finish()
    if code != 0:
        raise SystemExit(f"worker exited {code}")
    return json.loads(out.decode().strip().splitlines()[-1]), peak, elapsed


# ---------------------------------------------------------------------------
# passes


def setup_sample(workload: str, seed: int, tiny: bool) -> float:
    child = worker("setup", workload, seed, int(tiny))
    ready = await_ready(child)
    _, code, _, _ = child.finish()
    if code != 0:
        raise SystemExit(f"setup worker exited {code}")
    return ready


def oracle_pass(workload: str, seed: int, tiny: bool, trace: bool, setups: list) -> dict:
    child = worker("oracle", workload, seed, int(tiny), int(trace))
    startup = await_ready(child)
    setups.append(startup)
    result, peak, _ = finish_json(child)
    result["peak_rss_mb"] = peak
    result["startup_s"] = startup
    result["attempted"] = len(result["op_s"])
    return result


def cli_pass(ops: list[dict]) -> dict:
    """Each query as a cold `python -m lensprod` process, gated on its exit
    code and the sha256 of its stdout."""
    times, failures, peaks = [], [], []
    start = perf_counter()
    for op in ops:
        # the invalid-input query's diagnostic is expected; the gate checks stdout
        child = Child([sys.executable, "-m", "lensprod", *op["argv"]], stderr=subprocess.DEVNULL)
        out, code, elapsed, peak = child.finish()
        times.append(elapsed)
        peaks.append(peak)
        failure = gate(op, code, hashlib.sha256(out).hexdigest())
        if failure:
            failures.append(failure)
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "op_s": times,
        "failures": failures,
        "peak_rss_mb": max(peaks),
        "attempted": len(ops),
    }


def gate(op: dict, code: int, digest: str) -> dict | None:
    """The cli-corpus correctness gate: exit code and stdout digest must be
    those recorded in corpus.json."""
    if code != op["exit"] or digest != op["sha256"]:
        return {"argv": op["argv"], "exit": code, "sha256": digest}
    return None


def cli_traced_pass(ops: list[dict]) -> dict:
    """Each query in a cold worker: start-up span, in-process cli.run, then
    the replayed layer calls. The traced wall is each child's life minus its
    replay, the part that corresponds to the untraced query."""
    tr = spans.Tracer()
    failures = []
    wall = 0.0
    for i, op in enumerate(ops):
        tr.op = i
        child = worker("query", json.dumps(op["argv"]))
        startup = await_ready(child)
        tr.add("cli.startup", child.start, child.start + startup)
        result, _, elapsed = finish_json(child)
        tr.extend(result["spans"], i)
        wall += elapsed - result["replay_s"]
        failure = gate(op, result["exit"], result["sha256"])
        if failure:
            failures.append(failure)
    return {"wall_s": wall, "spans": tr.spans, "failures": failures, "attempted": len(ops)}


def oracle_traced_pass(workload: str, seed: int, tiny: bool, setups: list) -> dict:
    result = oracle_pass(workload, seed, tiny, True, setups)
    tr = spans.Tracer()
    tr.add("cli.startup", 0.0, result["startup_s"])
    tr.extend(result["spans"], None)
    result["spans"] = tr.spans
    return result


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_ms(passes: list[dict]) -> list[float]:
    """Each op's time: its median over the run's passes (every pass runs the
    same ops in the same order)."""
    return [1000 * statistics.median(times) for times in zip(*(p["op_s"] for p in passes))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "lensprod", "__init__.py")):
        raise SystemExit(f"no lensprod sources under {SRC}; run from a full checkout")
    # byte-compile once, as an installed package would be
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "lensprod")],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    if compiled.returncode != 0:
        raise SystemExit("byte-compiling lensprod failed")
    ops = workloads.generate(workload, seed, tiny)
    is_cli = workload == "cli-corpus"

    setups: list[float] = []
    passes: list[dict] = []
    started = perf_counter()
    while True:
        round_start = perf_counter()
        # set-up samples spread over the run, so their median sees the same
        # machine as the passes
        setups += [setup_sample(workload, seed, tiny) for _ in range(SETUP_SAMPLES)]
        if is_cli:
            passes.append(cli_pass(ops))
        else:
            passes.append(oracle_pass(workload, seed, tiny, False, setups))
        now = perf_counter()
        # trace runs take one untraced pass; otherwise fill --seconds with
        # whole rounds (set-ups and a pass) without overrunning it
        if trace or (now - started) + (now - round_start) > seconds:
            break

    traced = None
    if trace:
        if is_cli:
            traced = cli_traced_pass(ops)
        else:
            traced = oracle_traced_pass(workload, seed, tiny, setups)

    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    e2e = end_to_end(passes, setups)
    if trace:
        overhead = traced["wall_s"] - passes[0]["wall_s"]
        metrics = spans.layer_metrics(traced["spans"], overhead)
        units = spans.PER_LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        spans.write_jsonl(os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.jsonl"), traced["spans"])
    else:
        metrics, units = e2e, END_TO_END_UNITS

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "passes": len(passes),
        "wall_s_samples": [p["wall_s"] for p in passes],
        "setup_s_samples": setups,
        "ops_failed": len(failures) / attempted,
        "failures": failures[:10],
        "end_to_end": e2e,
        # not end-to-end metrics: oracle-grid's median check moves with the
        # seed (the first check of a spec builds its complex) and with the
        # host more than wall_s does; only oracle-grid has ten ops above a p95
        "op_ms_p50": statistics.median(op_ms(passes)),
        "op_ms_p95": percentile(op_ms(passes), 0.95),
        "ops": len(passes[0]["op_s"]),
    }
    if traced:
        record["traced_wall_s"] = traced["wall_s"]
        record["self_s"] = spans.self_times(traced["spans"])
        if not is_cli:
            stages = sum(metrics[m] for m in ("oracle.build.s", "oracle.homology_z.s", "oracle.homology_fp.s", "oracle.theory_side.s"))
            record["oracle_stage_cover_s"] = stages
            record["calculator_replay_s"] = traced["replay_s"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record, result


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
