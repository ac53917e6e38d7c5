"""Committed per-cell record digests, and the helper that checks or rewrites them.

``record_manifest.json`` (next to this file) pins the records of a few
fixed suite grids.  Each cell id maps to a pair: the sha256 of its record
without ``timings``/``seconds`` (key order kept, ``json.dumps`` defaults),
and one 4-hex digest per top-level key in record order, so a moved cell
can name the first key that differs.  The header holds every grid's spec
and the Python, numpy and networkx versions the manifest was written with.

``tests/test_record_manifest.py`` checks the manifest in tier-1: serially,
with two pool workers, on the scalar oracle and on the large cells.  The
other run modes are checked by running this file as a script::

    PYTHONPATH=src python tests/record_manifest.py check memmap spill supervised shards
    PYTHONPATH=src python tests/record_manifest.py write

``check`` runs the n=128 grids in each named mode and exits 1, naming
every moved cell, when one disagrees with the manifest.  ``write`` reruns
every grid serially and rewrites the manifest: a change that moves
records on purpose does that in the same commit and names the moved
cells.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST_PATH = os.path.join(HERE, "record_manifest.json")

_SCENARIOS = ["torus", "regular", "small-world", "expander-mix", "power-law"]
_METHODS = ["strong-log3", "strong-log2", "weak-rg20", "ls93", "mpx", "sequential"]


def _decomposition_grid(master_seed: int) -> Dict[str, Any]:
    return {
        "name": "manifest-decomposition",
        "scenarios": _SCENARIOS,
        "sizes": [128],
        "methods": _METHODS,
        "seeds": [0, 1],
        "tasks": ["decompose", "mis", "coloring"],
        "master_seed": master_seed,
    }


#: Grid name -> suite spec.  The n=2,048 cells reach the vectorised BFS and
#: proposal paths (frontiers of 32 nodes and more) and carvings that cut.
GRIDS: Dict[str, Dict[str, Any]] = {
    "decomposition-m0": _decomposition_grid(0),
    "decomposition-m2": _decomposition_grid(2),
    "carving": {
        "name": "manifest-carving",
        "scenarios": _SCENARIOS,
        "sizes": [128],
        "methods": _METHODS,
        "mode": "carving",
        "eps": [0.25, 0.5],
        "seeds": [0, 1],
    },
    "large": {
        "name": "manifest-large",
        "scenarios": ["expander-mix", "cycle"],
        "sizes": [2048],
        "methods": ["strong-log3", "strong-log2", "weak-rg20", "mpx"],
        "seeds": [0],
    },
}

#: The n=128 grids, cheap enough to run in every mode.
SMALL_GRIDS = ("decomposition-m0", "decomposition-m2", "carving")

#: Run options of the modes that are one ``run_suite`` call.
RUN_MODES: Dict[str, Dict[str, Any]] = {
    "serial": {},
    "workers2": {"workers": 2},
    # ``spill_dir: None`` stands for a fresh temporary directory.
    "memmap": {"graph_backend": "memmap", "spill_dir": None},
    # A pool run whose column files live in a spill directory.
    "spill": {"workers": 2, "spill_dir": None},
    # The supervisor loop with nothing injected: retries armed, none taken.
    "supervised": {"workers": 2, "max_retries": 1},
}
#: Modes this script checks: the run modes, plus two shards merged.
CHECK_MODES = tuple(RUN_MODES) + ("shards",)


def record_digest(record: Dict[str, Any]) -> str:
    """sha256 of ``record`` without ``timings``/``seconds``, key order kept."""
    stable = {key: value for key, value in record.items() if key not in ("timings", "seconds")}
    return hashlib.sha256(json.dumps(stable).encode()).hexdigest()


def key_digests(record: Dict[str, Any]) -> List[str]:
    """One 4-hex digest per top-level key of ``record``, in record order."""
    return [
        hashlib.sha256(json.dumps([key, value]).encode()).hexdigest()[:4]
        for key, value in record.items()
        if key not in ("timings", "seconds")
    ]


def entry(record: Dict[str, Any]) -> List[str]:
    return [record_digest(record), "".join(key_digests(record))]


def load_manifest(path: str = MANIFEST_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_grid(grid: str, **options: Any) -> List[Dict[str, Any]]:
    """The records of ``grid`` from one ``run_suite`` call with ``options``."""
    import repro

    return repro.run_suite(dict(GRIDS[grid]), **options).records


def run_grid_sharded(grid: str, workdir: str) -> List[Dict[str, Any]]:
    """The records of ``grid`` run as two shards, then merged."""
    import repro
    from repro.pipeline.backends import merge_stores

    paths = []
    for index in range(2):
        path = os.path.join(workdir, "{}-shard{}.jsonl".format(grid, index))
        repro.run_suite(dict(GRIDS[grid]), store=path, shard=(index, 2))
        paths.append(path)
    merged = merge_stores(paths, os.path.join(workdir, "{}-merged.jsonl".format(grid)))
    try:
        return merged.results()
    finally:
        merged.close()


def moved_cells(grid: str, records: Sequence[Dict[str, Any]], manifest: Dict[str, Any]) -> List[str]:
    """One line per cell of ``grid`` whose record differs from ``manifest``.

    A line names the cell and its first differing top-level key; cells
    missing on either side are named too.
    """
    expected: Dict[str, List[str]] = manifest["grids"][grid]["cells"]
    problems: List[str] = []
    seen = set()
    for record in records:
        cell = record["cell"]
        seen.add(cell)
        want = expected.get(cell)
        if want is None:
            problems.append("{}: {}: not in the manifest".format(grid, cell))
            continue
        if record_digest(record) == want[0]:
            continue
        keys = [key for key in record if key not in ("timings", "seconds")]
        have = key_digests(record)
        stored = [want[1][i : i + 4] for i in range(0, len(want[1]), 4)]
        first = next(
            (keys[i] for i in range(len(keys)) if i >= len(stored) or stored[i] != have[i]),
            "<a key the record lacks>",
        )
        problems.append("{}: {}: moved; first differing key {!r}".format(grid, cell, first))
    for cell in expected:
        if cell not in seen:
            problems.append("{}: {}: no record".format(grid, cell))
    return problems


def write_manifest(path: str = MANIFEST_PATH) -> Dict[str, Any]:
    """Rerun every grid serially and rewrite the manifest at ``path``."""
    import networkx
    import numpy

    manifest: Dict[str, Any] = {
        "format": (
            "cell id -> [sha256 of the record without timings/seconds, key order "
            "kept; one 4-hex sha256 prefix per top-level key, in record order]"
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "grids": {},
    }
    for grid, spec in GRIDS.items():
        cells = {record["cell"]: entry(record) for record in run_grid(grid)}
        manifest["grids"][grid] = {"spec": spec, "cells": cells}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dumps(manifest))
    return manifest


def _dumps(manifest: Dict[str, Any]) -> str:
    """The manifest as JSON with one line per header field, spec and cell."""

    def block(items: List[str], indent: str) -> str:
        return "{\n" + ",\n".join(indent + item for item in items) + "\n" + indent[:-1] + "}"

    grids = [
        "{}: {}".format(
            json.dumps(name),
            block(
                [
                    '"spec": ' + json.dumps(grid["spec"]),
                    '"cells": '
                    + block(
                        ["{}: {}".format(json.dumps(cell), json.dumps(pair))
                         for cell, pair in grid["cells"].items()],
                        "    ",
                    ),
                ],
                "   ",
            ),
        )
        for name, grid in manifest["grids"].items()
    ]
    header = [
        "{}: {}".format(json.dumps(key), json.dumps(value))
        for key, value in manifest.items()
        if key != "grids"
    ]
    return block(header + ['"grids": ' + block(grids, "  ")], " ") + "\n"


def check_mode(mode: str, grids: Sequence[str], manifest: Dict[str, Any]) -> List[str]:
    """Every moved cell of ``grids`` under check mode ``mode``."""
    problems: List[str] = []
    for grid in grids:
        with tempfile.TemporaryDirectory(prefix="manifest-") as workdir:
            if mode == "shards":
                records = run_grid_sharded(grid, workdir)
            else:
                options = dict(RUN_MODES[mode])
                if "spill_dir" in options:
                    options["spill_dir"] = workdir
                records = run_grid(grid, **options)
        problems.extend(moved_cells(grid, records, manifest))
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    check = verbs.add_parser("check", help="check the n=128 grids in each named mode")
    check.add_argument("modes", nargs="+", choices=CHECK_MODES, metavar="MODE",
                       help="one of: {}".format(", ".join(CHECK_MODES)))
    verbs.add_parser("write", help="rerun every grid serially and rewrite the manifest")
    args = parser.parse_args(argv)
    if args.verb == "write":
        manifest = write_manifest()
        total = sum(len(grid["cells"]) for grid in manifest["grids"].values())
        print("wrote {} cell digests to {}".format(total, MANIFEST_PATH))
        return 0
    manifest = load_manifest()
    failed = False
    for mode in args.modes:
        problems = check_mode(mode, SMALL_GRIDS, manifest)
        cells = sum(len(manifest["grids"][grid]["cells"]) for grid in SMALL_GRIDS)
        if problems:
            failed = True
            print("{}: {} of {} cells moved".format(mode, len(problems), cells))
            for line in problems:
                print("  " + line)
        else:
            print("{}: {} cells match the manifest".format(mode, cells))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
