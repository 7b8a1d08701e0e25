"""Workload generation. Standard library only; lensprod is never imported here,
so the harness hands the program nothing but the generated plain-data inputs.

An oracle op is {"n": [...], "t": int, "coeff": "Z" | "F2" | "F3"}; a CLI op is
{"argv": [...], "exit": int, "sha256": str} from corpus.json.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations_with_replacement

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "corpus.json")

WORKLOADS = ("oracle-grid", "cli-corpus")

# criterion 1 of the acceptance suite: t in {1,2,3,4,6}, r <= 3, n_i <= 2
GRID_TS = (1, 2, 3, 4, 6)
GRID_COEFFS = ("Z", "F2", "F3")

# tiny inputs for the self-test: same code paths, seconds instead of minutes
TINY_GRID = ((1, 2), 1, 2)  # ts, nmax, rmax
TINY_CORPUS = 4


def oracle_grid(seed: int, tiny: bool = False) -> list[dict]:
    """Every grid spec over Z, F2 and F3, in a seeded shuffle."""
    ts, nmax, rmax = TINY_GRID if tiny else (GRID_TS, 2, 3)
    ops = [
        {"n": list(n), "t": t, "coeff": coeff}
        for t in ts
        for r in range(1, rmax + 1)
        for n in combinations_with_replacement(range(nmax + 1), r)
        for coeff in GRID_COEFFS
    ]
    random.Random(seed).shuffle(ops)
    return ops


def load_corpus() -> list[dict]:
    with open(CORPUS_PATH) as fh:
        return json.load(fh)["queries"]


def cli_corpus(seed: int, tiny: bool = False) -> list[dict]:
    """The fixed query corpus in a seeded order (each query runs in its own
    cold process, so the order changes no result)."""
    queries = load_corpus()
    if tiny:
        queries = [q for q in queries if q.get("tiny")][:TINY_CORPUS]
    ops = [dict(q) for q in queries]
    random.Random(seed).shuffle(ops)
    return ops


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    if workload == "oracle-grid":
        return oracle_grid(seed, tiny)
    if workload == "cli-corpus":
        return cli_corpus(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def calculator_queries(ops: list[dict]) -> list[dict]:
    """For oracle-grid's traced run: the calculator side of each
    distinct spec (a capped-off `report`, so the oracle is not run twice) and
    one `tseries` per distinct t. Not part of the timed pass."""
    specs = list(dict.fromkeys((tuple(op["n"]), op["t"]) for op in ops))
    queries = [
        {"argv": ["--n", ",".join(map(str, n)), "--t", str(t), "report", "--json", "--cap", "1"]}
        for n, t in specs
    ]
    for t in sorted({t for _, t in specs}):
        queries.append({"argv": ["--t", str(t), "tseries", "--json"]})
    return queries
