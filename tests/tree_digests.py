"""Committed digests of every cluster's tree, and the helper that checks or rewrites them.

No store record depends on a strong cluster's root or BFS tree, or on a
weak cluster's Steiner tree, so ``record_manifest.json`` cannot see a
change that moves one.  ``tree_digests.json`` (next to this file) pins
them: for each graph of the record manifest's n=2,048 cells and of its
n=128 decomposition grid at master seed 0, and for each of strong-log3,
strong-log2 and weak-rg20, it holds one 8-hex digest per cluster of the
decomposition, in cluster order.  A digest covers the cluster's colour,
members, tree root and parent map (the shape of ``_tree_signature`` in
``tests/test_kernels.py``).

``tests/test_tree_digests.py`` recomputes them in tier-1 and names the
first cluster that moved.  Run this file as a script to check or, for a
deliberate move, rewrite them::

    PYTHONPATH=src python tests/tree_digests.py check
    PYTHONPATH=src python tests/tree_digests.py write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "tree_digests.json")
if HERE not in sys.path:  # run as a script
    sys.path.insert(0, HERE)

import record_manifest  # noqa: E402

#: The record manifest's grids whose graphs are pinned here.
GRIDS = ("decomposition-m0", "large")
METHODS = ("strong-log3", "strong-log2", "weak-rg20")


def cases() -> List[Tuple[str, str, int, str, int, int]]:
    """``(case id, scenario, n, method, graph seed, algo seed)`` per pinned tree set."""
    from repro.pipeline.spec import SuiteSpec

    found = []
    for grid in GRIDS:
        spec = SuiteSpec.from_dict(dict(record_manifest.GRIDS[grid]))
        for cell in spec.expand():
            if cell.task != "decompose" or cell.method not in METHODS:
                continue
            identity = cell.identity(spec.master_seed)
            found.append(
                (cell.cell_id, cell.scenario, cell.n, cell.method,
                 identity["graph_seed"], identity["algo_seed"])
            )
    return found


def _key(value: Any) -> str:
    return json.dumps(value, default=str)


def cluster_digest(cluster: Any) -> str:
    """8 hex of the sha256 of the cluster's colour, members, root and parent map."""
    tree = cluster.tree
    payload = [
        cluster.color,
        sorted(cluster.nodes, key=_key),
        None if tree is None else tree.root,
        None if tree is None else sorted(tree.parent.items(), key=_key),
    ]
    return hashlib.sha256(_key(payload).encode()).hexdigest()[:8]


def compute() -> Dict[str, List[str]]:
    """Case id -> the per-cluster digests of its decomposition, in cluster order."""
    import repro
    from repro.pipeline.scenarios import build_workload

    graphs: Dict[Tuple[str, int, int], Any] = {}
    digests: Dict[str, List[str]] = {}
    for case, scenario, n, method, graph_seed, algo_seed in cases():
        key = (scenario, n, graph_seed)
        if key not in graphs:
            graphs[key] = build_workload(scenario, n, seed=graph_seed)
        decomposition = repro.decompose(graphs[key], method=method, seed=algo_seed)
        digests[case] = [cluster_digest(cluster) for cluster in decomposition.clusters]
    return digests


def moved(computed: Dict[str, List[str]], pinned: Dict[str, List[str]]) -> List[str]:
    """One line per case whose trees differ from ``pinned``, naming the first moved cluster."""
    problems: List[str] = []
    for case in sorted(set(computed) | set(pinned)):
        have, want = computed.get(case), pinned.get(case)
        if have is None or want is None:
            problems.append("{}: {}".format(case, "not pinned" if want is None else "not run"))
            continue
        if have == want:
            continue
        first = next(
            (i for i in range(min(len(have), len(want))) if have[i] != want[i]),
            min(len(have), len(want)),
        )
        problems.append(
            "{}: cluster {} moved ({} clusters now, {} pinned)".format(
                case, first, len(have), len(want)
            )
        )
    return problems


def load(path: str = DIGESTS_PATH) -> Dict[str, List[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def write(path: str = DIGESTS_PATH) -> Dict[str, List[str]]:
    import networkx
    import numpy
    import platform

    digests = compute()
    header = {
        "format": "case id -> one 8-hex sha256 prefix per cluster, in cluster order, of "
        "[colour, members, tree root, parent map]",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }
    lines = ["{}: {}".format(json.dumps(key), json.dumps(value)) for key, value in header.items()]
    cells = ",\n".join(
        "  {}: {}".format(json.dumps(case), json.dumps(values)) for case, values in digests.items()
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n " + ",\n ".join(lines) + ',\n "cases": {\n' + cells + "\n }\n}\n")
    return digests


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("verb", choices=("check", "write"))
    args = parser.parse_args(argv)
    if args.verb == "write":
        digests = write()
        total = sum(len(values) for values in digests.values())
        print("wrote {} cluster digests of {} cases to {}".format(total, len(digests), DIGESTS_PATH))
        return 0
    problems = moved(compute(), load())
    for line in problems:
        print(line)
    print("{} case(s) moved".format(len(problems)) if problems else "every tree matches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
