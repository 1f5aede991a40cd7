"""Seeded scenario generator for the benchmark workloads.

Every input the benchmark feeds to the ``airconsensus`` CLI comes from
here, as a pure function of ``(workload, seed)``. Randomness comes from
the standard library's ``random.Random`` (seeded with a string, which is
stable across Python versions), so the inputs do not depend on the numpy
version under test. Each scenario carries an explicit ``initial_state``,
so the checks know x0 without reproducing the program's own seeding.

Run as a script to write the scenario JSON of every workload:

    python3 perfbench/scenarios.py --seed 1 --out-dir /tmp/scenarios
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Make-up of each workload. ``chords`` is the number of random extra
# in-arcs per node on top of the directed ring (``None``: a complete
# digraph). The nodes form ``blocks`` equal communities, and ``cross`` of
# each node's chords come from outside its own community. ``runs`` is the
# Monte Carlo replicate count, ``None`` a single scenario run.
#
# ti-sparse uses two communities with one cross chord per node, and x0
# drawn from the lower half of (0, 2*pi) in one community and the upper
# half in the other. That gives the update matrix one slow
# inter-community mode, well separated from the rest of its spectrum and
# carrying the initial disagreement, so the log-spread slope reaches
# log(lambda_2) within the run on every seed. On a uniform random ring
# plus chords the top of the spectrum is a dense cluster and the fitted
# slope misses log(lambda_2) by more than 10% on a few seeds in a hundred.
WORKLOADS = {
    "mc-dense": dict(n=30, chords=None, blocks=1, cross=0, mode="iid-per-step", mixing=0.8, runs=1000),
    "mc-sparse": dict(n=500, chords=3, blocks=1, cross=0, mode="iid-per-step", mixing=0.5, runs=30),
    "ti-sparse": dict(n=500, chords=8, blocks=2, cross=1, mode="time-invariant", mixing=0.3, runs=None),
}

LAW = {"kind": "uniform", "lo": 0.0, "hi": 10.0}
TOL = 1e-9
MAX_STEPS = 10_000


@dataclass(frozen=True)
class Scenario:
    workload: str
    doc: dict
    n: int
    arcs: int
    x0: tuple[float, ...]
    mixing: float
    mode: str
    runs: Optional[int]


def ring_with_chords(
    rng: random.Random, n: int, chords: int, blocks: int, cross: int
) -> list[tuple[int, int]]:
    """Directed ring 1 -> 2 -> ... -> n -> 1 plus ``chords`` random distinct
    in-arcs per node, ``cross`` of them from outside the node's community,
    as sorted ``(transmitter, receiver)`` pairs."""
    size = n // blocks
    arcs = set()
    for i in range(1, n + 1):
        pred = (i - 2) % n + 1
        arcs.add((pred, i))
        block = (i - 1) // size
        candidates = [j for j in range(1, n + 1) if j != i and j != pred]
        inside = [j for j in candidates if (j - 1) // size == block]
        outside = [j for j in candidates if (j - 1) // size != block]
        for j in rng.sample(outside, cross) + rng.sample(inside, chords - cross):
            arcs.add((j, i))
    return sorted(arcs)


def strongly_connected(n: int, arcs: list[tuple[int, int]]) -> bool:
    """Forward and backward reachability from node 1 by breadth-first search."""
    out: list[list[int]] = [[] for _ in range(n + 1)]
    inc: list[list[int]] = [[] for _ in range(n + 1)]
    for j, i in arcs:
        out[j].append(i)
        inc[i].append(j)

    def reached(adj):
        seen = [False] * (n + 1)
        seen[1] = True
        frontier = [1]
        count = 1
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        count += 1
                        nxt.append(u)
            frontier = nxt
        return count == n

    return reached(out) and reached(inc)


def generate(workload: str, seed: int) -> Scenario:
    """The scenario of ``workload`` for workload seed ``seed``."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    n = spec["n"]
    if spec["chords"] is None:
        topology = {"kind": "complete", "n": n}
        arc_count = n * (n - 1)
    else:
        arcs = ring_with_chords(rng, n, spec["chords"], spec["blocks"], spec["cross"])
        # The ring makes the graph strongly connected by construction;
        # confirm it independently of the program's own graph search.
        if not strongly_connected(n, arcs):
            raise AssertionError(f"{workload}: generated topology is not strongly connected")
        topology = {"kind": "custom", "n": n, "arcs": [[j, i, 1.0] for j, i in arcs]}
        arc_count = len(arcs)
    size = n // spec["blocks"]
    width = math.tau / spec["blocks"]
    x0 = tuple(rng.uniform(width * (i // size), width * (i // size + 1)) for i in range(n))
    doc = {
        "topology": topology,
        "channel": {"law": dict(LAW), "mode": spec["mode"], "seed": rng.getrandbits(32)},
        "protocol": {"variant": "superposition", "mixing": spec["mixing"]},
        "initial_state": {"kind": "explicit", "values": list(x0)},
        "run": {"tol": TOL, "max_steps": MAX_STEPS},
    }
    return Scenario(
        workload=workload,
        doc=doc,
        n=n,
        arcs=arc_count,
        x0=x0,
        mixing=spec["mixing"],
        mode=spec["mode"],
        runs=spec["runs"],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--out-dir", type=Path, required=True, help="where to write <workload>.json")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        sc = generate(name, args.seed)
        path = args.out_dir / f"{name}.json"
        path.write_text(json.dumps(sc.doc) + "\n")
        runs = f", {sc.runs} replicates" if sc.runs else ""
        print(f"{path}: n={sc.n}, {sc.arcs} arcs, mixing {sc.mixing}, {sc.mode}{runs}")


if __name__ == "__main__":
    main()
