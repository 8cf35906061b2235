"""Regenerate golden_regular.json: the fixed 3-regular hosts of the
`regular` workload and the power sums p_1..p_m the code computes on them.

    python3 bench/make_golden.py

The oracle cannot enumerate 2^50 states, so these recorded values are the
reference the benchmark checks `regular` against. Regenerate them only
from a commit whose power sums are trusted, and keep the commit id the
file records.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from hyperising import PartitionEstimator  # noqa: E402
from hyperising.hypergraph import hypergraph_to_doc  # noqa: E402
from hyperising.instances import random_regular_graph  # noqa: E402

BETA = 0.2
LAMBDA = 0.3
EPSILON = 0.1
# one host on each side of the 62-vertex split between int64 label masks
# and python-int masks in the coefficient tables
SIZES = (50, 64)


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    hosts = []
    for n in SIZES:
        g = random_regular_graph(random.Random(n), n, 3, BETA)
        est = PartitionEstimator(g)
        approx = est.approximate(LAMBDA, EPSILON)
        p = est.power_sums_up_to(approx.order)
        hosts.append({
            "n": n,
            "m": approx.order,
            "power_sums": [[z.real, z.imag] for z in p],
            "host": hypergraph_to_doc(g),
        })
    doc = {
        "commit": commit,
        "beta": BETA,
        "lambda": LAMBDA,
        "epsilon": EPSILON,
        "hosts": hosts,
    }
    path = BENCH_DIR / "golden_regular.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)} at {commit}")


if __name__ == "__main__":
    main()
