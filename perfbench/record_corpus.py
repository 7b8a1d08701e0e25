"""Record the expected exit code and stdout sha256 of every cli-corpus query.

    python3 perfbench/record_corpus.py

Run from the root of a checkout of the commit whose output is the reference.
Each query runs as a cold `python -m lensprod` process, as in the benchmark.
Re-recording changes the correctness gate, so do it only on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "corpus.json")


def main() -> None:
    with open(CORPUS) as fh:
        doc = json.load(fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for q in doc["queries"]:
        done = subprocess.run(
            [sys.executable, "-m", "lensprod", *q["argv"]],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=170,
        )
        q["exit"] = done.returncode
        q["sha256"] = hashlib.sha256(done.stdout).hexdigest()
        print(q["exit"], q["sha256"][:12], " ".join(q["argv"]))
    with open(CORPUS, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
