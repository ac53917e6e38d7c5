"""Scenario registry: named, parameterized workloads for the suite runner.

The paper's experiments are grids of ``(family x n x method x eps x seed)``
cells.  The *family* axis is captured here: a :class:`Scenario` names a graph
builder ``(n, seed) -> nx.Graph`` so that suite specs (and their JSON files)
can refer to workloads by string.  The registry covers

* the classic benchmark families (torus, grid, cycle, path, tree, hypercube,
  random regular),
* the wider catalogue added for the pipeline (Watts–Strogatz small-world,
  bounded-degree expander mix, Margulis expander, preferential-attachment
  power-law, weighted torus),
* user graphs on disk, through the ``"edgelist:<path>"`` pseudo-scenario
  which loads an edge-list file via :func:`repro.graphs.io.read_edge_list`.

Builders take a *target* node count — families with structural constraints
(square tori, ``2^d`` hypercubes) return the nearest representable size — and
a topology seed; deterministic families simply ignore the seed.  Downstream
code should read the actual size off the returned graph.

Register project-specific workloads with :func:`register_scenario`::

    from repro.pipeline import register_scenario
    register_scenario("my-mesh", lambda n, seed: build_mesh(n, seed),
                      "application mesh workload")

For multiprocessing fan-out under the *spawn* start method (macOS/Windows
defaults), register in a module the worker processes also import — workers
re-import this registry, so registration inside ``__main__`` is only seen
with the fork start method.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Callable, List, Optional

import networkx as nx

from repro._registry import Registry
from repro.graphs.expanders import margulis_expander
from repro.graphs.generators import (
    attach_edge_weights,
    binary_tree_graph,
    cycle_graph,
    expander_mix_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_regular_graph,
    torus_graph,
    watts_strogatz_graph,
)
from repro.graphs.power import power_law_graph

EDGE_LIST_PREFIX = "edgelist:"


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named workload family, registered in :data:`SCENARIOS`.

    Attributes:
        name: Registry key (also used inside cell ids, so keep it short and
            free of ``/`` and whitespace).
        builder: Callable ``(n, seed) -> nx.Graph`` producing an instance
            with roughly ``n`` nodes; every node must carry a ``"uid"``
            attribute (all registry builders guarantee this).
        description: One line on what the family stresses.
    """

    name: str
    builder: Callable[[int, Optional[int]], nx.Graph]
    description: str

    def build(self, n: int, seed: Optional[int] = None) -> nx.Graph:
        """Build an instance with roughly ``n`` nodes."""
        return self.builder(n, seed)


def _square_side(n: int, minimum: int) -> int:
    return max(minimum, int(round(math.sqrt(max(1, n)))))


def _torus(n: int, seed: Optional[int]) -> nx.Graph:
    side = _square_side(n, 3)
    return torus_graph(side, side, seed=seed)


def _grid(n: int, seed: Optional[int]) -> nx.Graph:
    side = _square_side(n, 2)
    return grid_graph(side, side, seed=seed)


def _cycle(n: int, seed: Optional[int]) -> nx.Graph:
    return cycle_graph(max(3, n), seed=seed)


def _path(n: int, seed: Optional[int]) -> nx.Graph:
    return path_graph(max(1, n), seed=seed)


def _tree(n: int, seed: Optional[int]) -> nx.Graph:
    depth = max(1, int(math.floor(math.log2(max(2, n + 1)))) - 1)
    return binary_tree_graph(depth, seed=seed)


def _hypercube(n: int, seed: Optional[int]) -> nx.Graph:
    dimension = max(1, int(round(math.log2(max(2, n)))))
    return hypercube_graph(dimension, seed=seed)


def _regular(n: int, seed: Optional[int]) -> nx.Graph:
    size = n if (n * 4) % 2 == 0 else n + 1
    return random_regular_graph(max(6, size), 4, seed=seed)


def _small_world(n: int, seed: Optional[int]) -> nx.Graph:
    return watts_strogatz_graph(max(8, n), k=4, rewire_probability=0.1, seed=seed)


def _expander_mix(n: int, seed: Optional[int]) -> nx.Graph:
    return expander_mix_graph(max(96, n), degree=4, seed=seed)


def _margulis(n: int, seed: Optional[int]) -> nx.Graph:
    return margulis_expander(_square_side(n, 2), seed=seed)


def _power_law(n: int, seed: Optional[int]) -> nx.Graph:
    return power_law_graph(max(8, n), attachment=2, seed=seed)


def _weighted(n: int, seed: Optional[int]) -> nx.Graph:
    # Hop-metric algorithms ignore the weights; the scenario exists so
    # attribute-carrying graphs flow through every pipeline path (store,
    # resume, fallback scheduling) — see attach_edge_weights.
    return attach_edge_weights(_torus(n, seed), seed=seed)


def _check_scenario(scenario: Scenario) -> None:
    name = scenario.name
    if "/" in name or any(ch.isspace() for ch in name):
        raise ValueError("scenario names may not contain '/' or whitespace: {!r}".format(name))
    if name.startswith(EDGE_LIST_PREFIX):
        raise ValueError("the {!r} prefix is reserved".format(EDGE_LIST_PREFIX))


SCENARIOS = Registry("scenario", _check_scenario)


def register_scenario(
    name: str,
    builder: Callable[[int, Optional[int]], nx.Graph],
    description: str,
    overwrite: bool = False,
) -> Scenario:
    """Add a scenario to the registry (``overwrite=False`` rejects clashes)."""
    return SCENARIOS.register(
        Scenario(name=name, builder=builder, description=description), overwrite=overwrite
    )


def _register_builtins() -> None:
    register_scenario("torus", _torus, "2-D torus: moderate diameter, degree 4")
    register_scenario("grid", _grid, "2-D grid: moderate diameter with boundary")
    register_scenario("cycle", _cycle, "cycle: maximal diameter per node")
    register_scenario("path", _path, "path: maximal diameter, has endpoints")
    register_scenario("tree", _tree, "complete binary tree: hierarchical layers")
    register_scenario("hypercube", _hypercube, "hypercube: log diameter, log degree")
    register_scenario("regular", _regular, "random 4-regular graph: expander-like")
    register_scenario(
        "small-world", _small_world, "Watts-Strogatz ring with rewired shortcuts"
    )
    register_scenario(
        "expander-mix", _expander_mix, "bounded-degree expander blocks bridged in a ring"
    )
    register_scenario("margulis", _margulis, "deterministic Margulis-Gabber-Galil expander")
    register_scenario(
        "power-law", _power_law, "preferential-attachment graph: heavy degree tail, hubs"
    )
    register_scenario(
        "weighted", _weighted, "2-D torus with seeded integer edge weights"
    )


_register_builtins()


def _edge_list_scenario(name: str) -> Scenario:
    path = name[len(EDGE_LIST_PREFIX):]
    if not path:
        raise ValueError("edge-list scenario needs a path: 'edgelist:<path>'")

    def build(n: int, seed: Optional[int]) -> nx.Graph:
        # The file fixes both topology and size; n and seed only apply to
        # generated families.
        from repro.graphs.io import read_edge_list

        return read_edge_list(path)

    return Scenario(
        name=name, builder=build, description="edge-list file {}".format(path)
    )


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    ``"edgelist:<path>"`` resolves to a dynamic scenario reading that file;
    every other name must have been registered.
    """
    if name.startswith(EDGE_LIST_PREFIX):
        return _edge_list_scenario(name)
    return SCENARIOS.get(name)


def list_scenarios() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(SCENARIOS.names())


def build_workload(name: str, n: int, seed: Optional[int] = None) -> nx.Graph:
    """Convenience: ``get_scenario(name).build(n, seed)``."""
    return get_scenario(name).build(n, seed)


def build_workload_memmap(
    name: str, n: int, seed: Optional[int] = None, spill_dir: Optional[str] = None
):
    """Build a scenario on the **memmap** graph backend (no live adjacency).

    Returns a :class:`repro.graphs.memmap.CSRBackedGraph` whose adjacency
    arrays are ``np.memmap`` views over an on-disk ``.csrbin`` file:

    * ``"edgelist:<path>"`` scenarios stream straight from the text file
      into the CSR file via :func:`repro.graphs.memmap.ingest_edge_list` —
      no networkx object is ever built, and the converted file is cached
      (next to the source, or under ``spill_dir``) so reruns reattach it
      for free;
    * generated families run their builder once, freeze the CSR, write it
      to a scratch file and immediately drop the networkx object — the
      scratch file is unlinked right after mapping, so the OS page cache
      (not the heap) holds the adjacency for the rest of the run.
    """
    import hashlib
    import tempfile

    from repro.graphs.csr import CSRGraph
    from repro.graphs.memmap import ingest_edge_list, load_graph, write_csr_file

    if spill_dir:
        os.makedirs(spill_dir, exist_ok=True)
    if name.startswith(EDGE_LIST_PREFIX):
        source = name[len(EDGE_LIST_PREFIX):]
        if not source:
            raise ValueError("edge-list scenario needs a path: 'edgelist:<path>'")
        if spill_dir:
            digest = hashlib.sha256(
                os.path.abspath(source).encode("utf-8")
            ).hexdigest()[:16]
            dest = os.path.join(
                spill_dir, "{}-{}.csrbin".format(os.path.basename(source), digest)
            )
        else:
            dest = source + ".csrbin"
        return load_graph(ingest_edge_list(source, dest))

    host = build_workload(name, n, seed=seed)
    csr = CSRGraph.from_networkx(host, cache=False)
    del host
    fd, path = tempfile.mkstemp(
        prefix="workload-", suffix=".csrbin", dir=spill_dir or None
    )
    os.close(fd)
    try:
        write_csr_file(csr, path)
        del csr
        graph = load_graph(path)
    finally:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - non-POSIX leftover, harmless
            pass
    return graph
