"""Property-based tests (hypothesis) for the core invariants.

Random graphs and parameters are generated by hypothesis; every property here
is an invariant the paper states for *all* inputs, so any counterexample is a
genuine bug (not an unlucky sample).
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.clustering.validation import (
    check_ball_carving,
    clusters_are_disjoint,
    clusters_nonadjacent,
    same_color_clusters_nonadjacent,
    strong_diameter,
    weak_diameter,
)
from repro.congest.messages import message_bits
from repro.core.sparse_cut import LargeComponent, SparseCut, sparse_cut_or_component
from repro.graphs.generators import assign_unique_identifiers
from repro.graphs.properties import induced_components, is_partition
from repro.pipeline import SuiteSpec, run_suite
from repro.weak.carving import weak_diameter_carving

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=28):
    """A random connected graph with unique identifiers.

    Built as a random spanning tree plus a few random extra edges, which
    covers the spectrum from trees to moderately dense graphs.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_node(0)
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node))
    extra_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return assign_unique_identifiers(graph, seed=seed)


@st.composite
def graphs_with_eps(draw):
    graph = draw(connected_graphs())
    eps = draw(st.sampled_from([0.5, 0.4, 0.3, 0.25]))
    return graph, eps


class TestWeakCarvingProperties:
    @_SETTINGS
    @given(graphs_with_eps())
    def test_partition_nonadjacency_and_budget(self, case):
        graph, eps = case
        carving = weak_diameter_carving(graph, eps)
        parts = [cluster.nodes for cluster in carving.clusters] + [carving.dead]
        assert is_partition(graph.nodes(), [part for part in parts if part])
        assert clusters_nonadjacent(graph, carving.clusters)
        assert len(carving.dead) <= eps * graph.number_of_nodes() + 1

    @_SETTINGS
    @given(graphs_with_eps())
    def test_steiner_trees_cover_terminals(self, case):
        graph, eps = case
        carving = weak_diameter_carving(graph, eps)
        for cluster in carving.clusters:
            assert cluster.nodes <= cluster.tree.nodes
            cluster.tree.validate_against(graph)


class TestStrongCarvingProperties:
    @_SETTINGS
    @given(graphs_with_eps())
    def test_theorem21_invariants(self, case):
        graph, eps = case
        carving = repro.carve(graph, eps, method="strong-log3")
        check_ball_carving(carving)
        for cluster in carving.clusters:
            # Strong clusters induce connected subgraphs.
            strong_diameter(graph, cluster.nodes)

    @_SETTINGS
    @given(connected_graphs(max_nodes=22))
    def test_theorem32_invariants(self, graph):
        carving = repro.carve(graph, 0.5, method="strong-log2")
        check_ball_carving(carving)

    @_SETTINGS
    @given(graphs_with_eps())
    def test_weak_diameter_never_exceeds_strong(self, case):
        graph, eps = case
        carving = repro.carve(graph, eps, method="strong-log3")
        for cluster in carving.clusters:
            assert weak_diameter(graph, cluster.nodes) <= strong_diameter(graph, cluster.nodes)


class TestDecompositionProperties:
    @_SETTINGS
    @given(connected_graphs())
    def test_strong_log3_decomposition_invariants(self, graph):
        decomposition = repro.decompose(graph, method="strong-log3")
        assert decomposition.covered_nodes() == set(graph.nodes())
        assert clusters_are_disjoint(decomposition.clusters)
        assert same_color_clusters_nonadjacent(graph, decomposition.clusters)
        n = graph.number_of_nodes()
        assert decomposition.num_colors <= 2 * math.ceil(math.log2(max(2, n))) + 2

    @_SETTINGS
    @given(connected_graphs(), st.integers(min_value=0, max_value=1000))
    def test_randomized_decompositions_cover_everything(self, graph, seed):
        decomposition = repro.decompose(graph, method="mpx", seed=seed)
        assert decomposition.covered_nodes() == set(graph.nodes())
        assert same_color_clusters_nonadjacent(graph, decomposition.clusters)


class TestSparseCutProperties:
    @_SETTINGS
    @given(connected_graphs(min_nodes=6, max_nodes=40))
    def test_lemma31_outcome_invariants(self, graph):
        result = sparse_cut_or_component(graph, graph.nodes(), 0.5)
        n = graph.number_of_nodes()
        if isinstance(result, SparseCut):
            assert len(result.side_a) >= n / 3 - 1
            assert len(result.side_b) >= n / 3 - 1
            side_b = set(result.side_b)
            for node in result.side_a:
                assert not any(neigh in side_b for neigh in graph.neighbors(node))
        else:
            assert isinstance(result, LargeComponent)
            assert len(result.component) >= min(n, max(1, n / 3 - 1))
            # The component is connected.
            assert len(induced_components(graph, result.component)) <= 1


class TestMessageEncodingProperties:
    @_SETTINGS
    @given(st.integers(min_value=-(10 ** 9), max_value=10 ** 9))
    def test_integer_encoding_monotone_in_magnitude(self, value):
        assert message_bits(value) >= 2
        assert message_bits(value * 2) >= message_bits(value) - 1

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=0, max_size=8))
    def test_tuple_encoding_additive(self, values):
        total = message_bits(tuple(values))
        assert total >= sum(message_bits(v) for v in values)


def _differential_spec(scenarios, n, master_seed, partition_nodes=None):
    """A full-axes decomposition spec: all six methods x all three tasks."""
    return SuiteSpec(
        name="memmap-differential",
        scenarios=tuple(scenarios),
        sizes=(n,),
        methods=repro.DECOMPOSITION_METHODS,
        mode="decomposition",
        tasks=repro.TASK_NAMES,
        seeds=(0,),
        partition_nodes=partition_nodes,
        master_seed=master_seed,
        validate=True,
    )


def _suite_records(spec, graph_backend, transport=None, **kwargs):
    import contextlib

    from tests.conftest import force_transport, strip_volatile

    with force_transport(transport) if transport else contextlib.nullcontext():
        result = run_suite(spec, graph_backend=graph_backend, **kwargs)
    if transport:
        assert result.arena["mode"] == transport
    for record in result.records:
        assert record["timings"]["graph_backend"] == graph_backend
    return [strip_volatile(record) for record in result.records]


class TestMemmapDifferentialProperties:
    """The memmap graph backend is a pure *storage* change.

    For any scenario, method, task and seed, running the suite on
    ``graph_backend="memmap"`` (on-disk CSR facades, no networkx host) must
    produce records identical to ``graph_backend="memory"`` — the same
    cluster counts, colors, ledger round/message charges and task metrics —
    in every execution mode (serial column batching, process pool, and the
    column arena).  Only wall-times may differ.
    """

    _MEMMAP_SETTINGS = settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )

    @_MEMMAP_SETTINGS
    @given(
        scenario=st.sampled_from(("torus", "power-law", "small-world", "tree", "regular")),
        n=st.integers(min_value=24, max_value=48),
        master_seed=st.integers(min_value=0, max_value=10_000),
        partition_nodes=st.sampled_from((None, 16)),
    )
    # ls93 clusters nothing in one chunk here, so the reduction's singleton
    # fallback runs on adjacent leftovers.
    @example(scenario="small-world", n=32, master_seed=3078, partition_nodes=16)
    def test_serial_records_identical(self, scenario, n, master_seed, partition_nodes):
        spec = _differential_spec((scenario,), n, master_seed, partition_nodes)
        memory = _suite_records(spec, "memory")
        memmap = _suite_records(spec, "memmap")
        assert len(memory) == len(repro.DECOMPOSITION_METHODS) * len(repro.TASK_NAMES)
        assert memmap == memory

    def test_pool_and_arena_records_identical(self, tmp_path):
        """One fixed grid through every scheduling mode, both backends."""
        spec = _differential_spec(("torus", "power-law"), 48, master_seed=7)
        baseline = _suite_records(spec, "memory")
        modes = {
            "pool": {"workers": 2, "transport": "off"},
            "arena": {"workers": 2, "transport": "arena"},
        }
        for mode, kwargs in modes.items():
            assert _suite_records(spec, "memory", **kwargs) == baseline, mode
            assert _suite_records(spec, "memmap", **kwargs) == baseline, mode

    def test_arena_spill_records_identical(self, tmp_path):
        """Memmap scratch and the pool's column files share one spill
        directory; the records must not notice."""
        spec = _differential_spec(("torus",), 48, master_seed=3)
        baseline = _suite_records(spec, "memory")
        pooled = _suite_records(
            spec,
            "memmap",
            transport="arena",
            workers=2,
            spill_dir=str(tmp_path),
        )
        assert pooled == baseline
