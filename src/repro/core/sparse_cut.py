"""Lemma 3.1 — balanced sparse cut or large small-diameter component.

Given an ``n``-node graph (in our usage: the subgraph induced by one cluster
of an intermediate strong-diameter carving) and a parameter ``eps``, the
procedure returns one of:

* a **balanced sparse cut**: two non-adjacent node sets ``V1, V2`` with
  ``|V1|, |V2| >= n/3`` and a separator ``V \\ (V1 ∪ V2)`` of
  ``O(eps * n / log n)`` nodes, or
* a **large small-diameter component**: a set ``U`` with ``|U| >= n/3``,
  strong diameter ``O(log^2 n / eps)``, whose outside neighbourhood has
  ``O(eps * n / log n)`` nodes.

The algorithm follows the proof of Lemma 3.1: it maintains a shrinking seed
set ``S`` (initially all nodes).  Per iteration it computes the radii ``a``
(smallest radius whose ball around ``S`` holds ``>= n/3`` nodes) and ``b``
(``>= 2n/3`` nodes).  If ``b - a`` is large, some intermediate BFS layer is
light — cutting there yields the balanced sparse cut.  Otherwise ``S`` is
split into two halves and the half with the smaller ``a`` radius is kept;
this preserves ``a = O(iteration * log n / eps)``.  After ``O(log n)``
iterations ``S`` is a single node and a final ball-growing sweep around it
yields the large small-diameter component.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Iterable, List, Optional, Sequence, Set, Union

import networkx as nx
import numpy as np

from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_members


@dataclasses.dataclass
class SparseCut:
    """A balanced sparse cut: ``side_a`` and ``side_b`` are non-adjacent."""

    side_a: Set[Any]
    side_b: Set[Any]
    separator: Set[Any]

    @property
    def kind(self) -> str:
        return "cut"


@dataclasses.dataclass
class LargeComponent:
    """A large component of small strong diameter with a light boundary.

    ``boundary`` holds the nodes *outside* ``component`` that are adjacent to
    it (the nodes Theorem 3.2 declares dead when it accepts the component).
    """

    component: Set[Any]
    boundary: Set[Any]
    radius: int

    @property
    def kind(self) -> str:
        return "component"


SparseCutResult = Union[SparseCut, LargeComponent]


def _cumulative_layers(layers: Sequence[np.ndarray]) -> List[int]:
    return np.cumsum([layer.size for layer in layers]).tolist()


def _radius_reaching(cumulative: Sequence[int], target: int) -> int:
    """Smallest radius whose cumulative ball size reaches ``target``."""
    for radius, size in enumerate(cumulative):
        if size >= target:
            return radius
    return len(cumulative) - 1


def _layer_window(n: int, eps: float) -> int:
    """Number of consecutive BFS layers needed so that the lightest one is an
    ``O(eps / log n)`` fraction of the ball mass (see the proof of Lemma 3.1:
    the ball grows by at most a factor 3 over the window, so the minimum
    per-layer growth ratio is ``3^{1/window} = 1 + O(eps / log n)`` once the
    window has ``Omega(log n / eps)`` layers)."""
    log_n = math.log(max(3, n))
    return max(2, int(math.ceil(2.0 * math.log(3.0) * log_n / eps)) + 1)


def _lightest_layer_index(cumulative: Sequence[int], lo: int, hi: int) -> int:
    """Index ``r`` in ``[lo, hi]`` minimising ``|B_{r+1}| / |B_r|``."""
    best_index = lo
    best_ratio = float("inf")
    for radius in range(lo, min(hi, len(cumulative) - 2) + 1):
        inner = cumulative[radius]
        outer = cumulative[radius + 1]
        if inner == 0:
            continue
        ratio = outer / inner
        if ratio < best_ratio:
            best_ratio = ratio
            best_index = radius
    return best_index


def sparse_cut_or_component(
    graph: nx.Graph,
    nodes: Iterable[Any],
    eps: float,
    ledger: Optional[RoundLedger] = None,
) -> SparseCutResult:
    """Run the Lemma 3.1 procedure on the subgraph induced by ``nodes``.

    Args:
        graph: Host graph.
        nodes: The node set to operate on (assumed connected; the callers of
            Theorem 3.2 only invoke this on connected clusters).  A label
            that is not a node of ``graph`` raises ``KeyError``.
        eps: The parameter ``eps`` of Lemma 3.1; the separator / boundary has
            ``O(eps * |nodes| / log |nodes|)`` nodes.
        ledger: Optional round ledger; each iteration is charged ``O(D)``
            rounds where ``D`` is the BFS depth actually explored.

    Returns:
        Either a :class:`SparseCut` or a :class:`LargeComponent`.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()
    node_set: Set[Any] = set(nodes)
    n = len(node_set)
    if n == 0:
        return LargeComponent(component=set(), boundary=set(), radius=0)
    csr, members = csr_members(graph, node_set)
    if n <= 3:
        return LargeComponent(component=set(node_set), boundary=set(), radius=1)
    result = sparse_cut_indices(csr, members, eps, ledger)
    labels = csr.nodes

    def named(indices: np.ndarray) -> Set[Any]:
        return {labels[i] for i in indices.tolist()}

    if isinstance(result, SparseCut):
        return SparseCut(
            side_a=named(result.side_a),
            side_b=named(result.side_b),
            separator=named(result.separator),
        )
    return LargeComponent(
        component=named(result.component), boundary=named(result.boundary), radius=result.radius
    )


def sparse_cut_indices(
    csr: CSRGraph, members: np.ndarray, eps: float, ledger: RoundLedger
) -> SparseCutResult:
    """Lemma 3.1 on the subgraph induced by the index array ``members``,
    which holds more than three nodes.

    The result holds index arrays where :func:`sparse_cut_or_component`
    holds label sets.  Every BFS walks all of its layers: the ledger
    charges each one its full depth.  An iteration starts from the walk
    of the half the previous one kept, which is the walk from its seed.
    """
    n = members.size
    window = _layer_window(n, eps)
    target_a = int(math.ceil(n / 3.0))
    target_b = int(math.ceil(2.0 * n / 3.0))
    rank = csr.rank_array

    seed = members
    # The kept half's walk, which the next iteration's walk would repeat.
    layers: Optional[List[np.ndarray]] = None
    max_iterations = 2 * max(1, int(math.ceil(math.log2(n)))) + 4

    for _ in range(max_iterations):
        if layers is None:
            layers = csr.layers(seed, members)
        cumulative = _cumulative_layers(layers)
        ledger.bfs(len(layers))

        radius_a = _radius_reaching(cumulative, target_a)
        radius_b = _radius_reaching(cumulative, target_b)

        if radius_b - radius_a >= window and radius_b - 2 >= radius_a:
            # Balanced sparse cut: cut along the lightest layer between a and
            # b - 2 (both resulting sides then hold at least n/3 nodes).
            cut_radius = _lightest_layer_index(cumulative, radius_a, radius_b - 2)
            inner = np.concatenate(layers[: cut_radius + 1])
            separator = layers[cut_radius + 1]
            outside = np.setdiff1d(
                members, np.concatenate((inner, separator)), assume_unique=True
            )
            ledger.bfs(cut_radius + 1)
            return SparseCut(side_a=inner, side_b=outside, separator=separator)

        if seed.size == 1:
            # Final sweep: grow a ball around the single remaining seed node
            # and cut at the lightest layer within the window past radius_a.
            cut_radius = _lightest_layer_index(
                cumulative, radius_a, radius_a + window
            )
            component = np.concatenate(layers[: cut_radius + 1])
            boundary = layers[cut_radius + 1] if cut_radius + 1 < len(layers) else seed[:0]
            ledger.bfs(cut_radius + 1)
            return LargeComponent(component=component, boundary=boundary, radius=cut_radius)

        # Split the seed set into two halves and keep the half whose n/3-ball
        # radius is smaller.  Any split works for correctness; we use the
        # deterministic identifier order (the distributed version sorts by an
        # in-order traversal of a BFS tree, which costs O(D) rounds).
        ordered = seed[np.argsort(rank[seed])]
        half = ordered.size // 2
        first_half, second_half = ordered[:half], ordered[half:]

        layers_first = csr.layers(first_half, members)
        layers_second = csr.layers(second_half, members)
        ledger.bfs(max(len(layers_first), len(layers_second)))

        radius_first = _radius_reaching(_cumulative_layers(layers_first), target_a)
        radius_second = _radius_reaching(_cumulative_layers(layers_second), target_a)
        if radius_first <= radius_second:
            seed, layers = first_half, layers_first
        else:
            seed, layers = second_half, layers_second

    raise RuntimeError(
        "Lemma 3.1 procedure did not terminate within the expected number of "
        "iterations; this indicates a bug in the seed-halving logic"
    )
