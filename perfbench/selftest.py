"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:
  * every workload, untraced and traced, runs on tiny inputs, passes its
    correctness gate, and emits exactly the metric names and units listed in
    BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1);
  * the cli-corpus gate trips when one expected digest is wrong;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
Takes about fifteen seconds. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def bench_run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names the harness's workloads")

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = bench_run(ROOT, workload, trace)
            check(done.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} --trace {trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace}: correct, {result['attempted']} ops, none failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{workload} --trace {trace}: metric names and units")

    ops = workloads.cli_corpus(7, tiny=True)
    check(not run.cli_pass(ops)["failures"], "cli-corpus gate passes on the recorded digests")
    ops[0]["sha256"] = "0" * 64
    tripped = run.cli_pass(ops)["failures"]
    check(len(tripped) == 1 and tripped[0]["argv"] == ops[0]["argv"],
          "cli-corpus gate trips on one wrong expected digest")

    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = bench_run(bare, "oracle-grid", 0)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "without the lensprod sources the benchmark fails and prints no result")


if __name__ == "__main__":
    main()
