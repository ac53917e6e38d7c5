"""networkx's own algorithms are the oracle for every graph primitive.

Each BFS-shaped primitive of :mod:`repro.graphs.properties` runs on the CSR
index (:func:`repro.graphs.csr.csr_index`).  Here hypothesis draws a host
graph — one of the five families of the suite-sweep benchmark, or a
disconnected Erdős–Rényi graph — in one of the shapes the index must
express: the graph itself, a node-induced view, an edge-filtered view, a
copy with self-loops, or a multigraph with parallel edges.  Every answer is
compared with networkx's on ``G.subgraph(S)``, where ``G`` is the shape's
simple graph (``nx.Graph`` of the view, the copy without its loops, the
multigraph collapsed) and ``S`` a random node subset, on the kernel and
on the seed loops' oracle.
"""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.properties import (
    bfs_layers_within,
    conductance_of_cut,
    distances_from,
    induced_components,
    neighborhood_ball,
    neighbors_resolver,
    subgraph_diameter,
)
from tests.kernel_oracle import kernel_scope
from repro.pipeline.scenarios import build_workload

SUITE_SWEEP_FAMILIES = ("torus", "regular", "small-world", "expander-mix", "power-law")
SHAPES = ("graph", "node-view", "edge-view", "self-loops", "multigraph")

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _host(family, n, seed):
    if family == "erdos-renyi":
        return erdos_renyi_graph(n, 1.2 / n, seed=seed)
    return build_workload(family, n, seed=seed)


def _shaped(host, shape, rng):
    """``(graph under test, its simple graph as a plain nx.Graph)``."""
    nodes = list(host.nodes())
    edges = list(host.edges())
    if shape == "graph":
        return host, host
    if shape == "node-view":
        view = host.subgraph(rng.sample(nodes, max(1, 2 * len(nodes) // 3)))
        return view, nx.Graph(view)
    if shape == "edge-view":
        view = nx.edge_subgraph(host, rng.sample(edges, max(1, len(edges) // 2)))
        return view, nx.Graph(view)
    if shape == "self-loops":
        looped = host.copy()
        looped.add_edges_from((node, node) for node in rng.sample(nodes, max(1, len(nodes) // 4)))
        return looped, host
    multigraph = nx.MultiGraph(host)
    multigraph.add_edges_from(rng.sample(edges, max(1, len(edges) // 3)))
    return multigraph, host


@st.composite
def cases(draw):
    family = draw(st.sampled_from(SUITE_SWEEP_FAMILIES + ("erdos-renyi",)))
    n = draw(st.integers(min_value=16, max_value=56))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    shape = draw(st.sampled_from(SHAPES))
    kernel = draw(st.sampled_from(("numpy", "oracle")))
    rng = random.Random(seed)
    graph, simple = _shaped(_host(family, n, seed), shape, rng)
    subset = set(rng.sample(sorted(simple.nodes()), rng.randint(1, simple.number_of_nodes())))
    return graph, simple, subset, kernel


def _layers(distances):
    layers = [set() for _ in range(max(distances.values()) + 1)]
    for node, depth in distances.items():
        layers[depth].add(node)
    return layers


class TestPrimitivesAgainstNetworkx:
    @_SETTINGS
    @given(cases())
    def test_components(self, case):
        graph, simple, subset, kernel = case
        expected = {frozenset(c) for c in nx.connected_components(simple.subgraph(subset))}
        with kernel_scope(kernel):
            produced = induced_components(graph, subset)
            everything = induced_components(graph, graph.nodes())
        assert {frozenset(c) for c in produced} == expected
        assert {frozenset(c) for c in everything} == {
            frozenset(c) for c in nx.connected_components(simple)
        }

    @_SETTINGS
    @given(cases(), st.integers(min_value=0, max_value=4))
    def test_distances_layers_and_balls(self, case, radius):
        graph, simple, subset, kernel = case
        source = min(subset)
        expected = dict(nx.single_source_shortest_path_length(simple.subgraph(subset), source))
        with kernel_scope(kernel):
            distances = distances_from(graph, source, allowed=subset)
            layers = bfs_layers_within(graph, [source], allowed=subset)
            capped = bfs_layers_within(graph, [source], allowed=subset, max_radius=radius)
            ball = neighborhood_ball(graph, [source], radius, allowed=subset)
            whole = distances_from(graph, source)
        assert distances == expected
        assert layers == _layers(expected)
        assert capped == _layers(expected)[: radius + 1]
        assert ball == {node for node, depth in expected.items() if depth <= radius}
        assert whole == dict(nx.single_source_shortest_path_length(simple, source))

    @_SETTINGS
    @given(cases())
    def test_strong_diameters(self, case):
        graph, simple, subset, kernel = case
        induced = simple.subgraph(subset)
        components = list(nx.connected_components(induced))
        with kernel_scope(kernel):
            for component in components:
                assert subgraph_diameter(graph, component) == (
                    nx.diameter(induced.subgraph(component)) if len(component) > 1 else 0
                )
            if len(components) > 1:
                with pytest.raises(ValueError, match="disconnected"):
                    subgraph_diameter(graph, subset)

    @_SETTINGS
    @given(cases())
    def test_neighbours_and_conductance(self, case):
        graph, simple, subset, kernel = case
        other = set(simple.nodes()) - subset
        denominator = min(nx.volume(simple, subset), nx.volume(simple, other)) if other else 0
        expected = nx.cut_size(simple, subset) / denominator if denominator else float("inf")
        with kernel_scope(kernel):
            neighbours_of = neighbors_resolver(graph)
            for node in simple.nodes():
                assert sorted(neighbours_of(node)) == sorted(simple.neighbors(node))
            assert conductance_of_cut(graph, subset) == pytest.approx(expected)
