"""ClusterGeometry: every clustering's diameters, measured once and exactly.

The geometry is a measurement the metrics and tasks trust, so it is held
against the validators' scalar path (which never reads it) under both
kernel tiers: ``numpy`` (bit-parallel sweeps) and ``pure`` (one BFS per
member, the oracle).
"""

from __future__ import annotations

import networkx as nx
import pytest

import repro
from repro.clustering.cluster import Cluster
from repro.clustering.geometry import ClusterGeometry
from repro.clustering.validation import (
    ValidationError,
    max_cluster_diameter,
    strong_diameter,
    weak_diameter,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import grid_graph, torus_graph
from repro.kernels import KERNELS, kernel_instance, use_kernel
from repro.kernels.numpy_kernel import NumpyKernel
from repro.pipeline import SuiteSpec, build_workload, run_suite

TIERS = ("pure", "numpy")
KINDS = ("strong", "weak")
# The scenarios of the repository benchmark's suite sweep.
SWEEP_SCENARIOS = ("torus", "regular", "small-world", "expander-mix", "power-law")


def _outcome(measure):
    """A measurement's value, or ``"disconnected"`` when it raises."""
    try:
        return measure()
    except ValidationError:
        return "disconnected"


def _scalar(graph, clusters, kind):
    measure = strong_diameter if kind == "strong" else weak_diameter
    return tuple(measure(graph, cluster.nodes) for cluster in clusters)


def _assert_tiers_match_validators(graph, clusters, kinds=KINDS):
    for kind in kinds:
        expected = _outcome(lambda: _scalar(graph, clusters, kind))
        for tier in TIERS:
            with use_kernel(tier):
                measured = _outcome(
                    lambda: ClusterGeometry.measure(graph, clusters, kind).diameters
                )
            assert measured == expected, (kind, tier)


class TestRegistryGrid:
    @pytest.mark.parametrize("scenario", SWEEP_SCENARIOS)
    @pytest.mark.parametrize("method", repro.DECOMPOSITION_METHODS)
    def test_decomposition_geometry_matches_validators(self, scenario, method):
        graph = build_workload(scenario, 64, seed=3)
        decomposition = repro.decompose(graph, method=method, seed=1)
        # Both kinds on every clustering: a strong decomposition's weak
        # diameters and a weak one's strong diameters (possibly undefined).
        _assert_tiers_match_validators(graph, decomposition.clusters)
        geometry = decomposition.geometry
        assert geometry.max_diameter == max_cluster_diameter(
            graph, decomposition.clusters, kind=decomposition.kind
        )
        by_color = {}
        for cluster, diameter in zip(decomposition.clusters, geometry.diameters):
            by_color[cluster.color] = max(by_color.get(cluster.color, 0), diameter)
        assert geometry.color_diameters == by_color

    @pytest.mark.parametrize("method", ("ls93", "mpx", "sequential", "weak-rg20"))
    def test_view_carvings_measure_inside_the_view(self, method):
        # The baselines store G[nodes] as a node-induced view; distances
        # (weak ones included) are measured inside it.
        graph = torus_graph(9, 9, seed=2)
        nodes = [node for node in graph if node % 5]
        carving = repro.carve(graph, 0.4, method=method, nodes=nodes, seed=4)
        assert hasattr(carving.graph, "_graph")
        _assert_tiers_match_validators(carving.graph, carving.clusters, (carving.kind,))
        assert carving.geometry.max_diameter == max_cluster_diameter(
            carving.graph, carving.clusters, kind=carving.kind
        )

    def test_string_labels(self):
        graph = nx.relabel_nodes(torus_graph(8, 8, seed=5), lambda node: "v{}".format(node))
        for method in ("strong-log3", "weak-rg20"):
            decomposition = repro.decompose(graph, method=method)
            _assert_tiers_match_validators(graph, decomposition.clusters)

    @pytest.mark.parametrize("kernel", sorted(KERNELS.names()))
    def test_matches_networkx(self, kernel):
        graph = torus_graph(8, 8, seed=5)
        distance = dict(nx.all_pairs_shortest_path_length(graph))
        weak = repro.decompose(graph, method="weak-rg20").clusters
        strong = repro.decompose(graph, method="strong-log2").clusters
        with use_kernel(kernel):
            assert ClusterGeometry.measure(graph, weak, "weak").diameters == tuple(
                max(distance[u][v] for u in cluster.nodes for v in cluster.nodes)
                for cluster in weak
            )
            assert ClusterGeometry.measure(graph, strong, "strong").diameters == tuple(
                nx.diameter(graph.subgraph(cluster.nodes)) for cluster in strong
            )


class TestSweepEdges:
    def _comb(self):
        """A 40x26 grid cut into a comb of 533 members plus 13 strips.

        The comb (row 0 and every even column) needs two 512-source sweeps,
        and its induced paths detour through row 0, so its strong diameter
        exceeds its weak one.
        """
        graph = grid_graph(40, 26, seed=1)
        comb = {r * 26 + c for r in range(40) for c in range(26) if r == 0 or c % 2 == 0}
        clusters = [Cluster(nodes=comb, label="comb")]
        for c in range(1, 26, 2):
            clusters.append(Cluster(nodes={r * 26 + c for r in range(1, 40)}, label=c))
        return graph, clusters

    def test_clusters_over_512_members(self):
        graph, clusters = self._comb()
        assert len(clusters[0]) > 512
        _assert_tiers_match_validators(graph, clusters)
        strong = ClusterGeometry.measure(graph, clusters, "strong")
        weak = ClusterGeometry.measure(graph, clusters, "weak")
        assert strong.diameters[0] > weak.diameters[0]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_cluster_over_several_sweeps(self, kind):
        graph = torus_graph(32, 32, seed=1)
        clusters = [Cluster(nodes=set(graph), label=0)]
        with use_kernel("numpy"):
            assert ClusterGeometry.measure(graph, clusters, kind).diameters == (32,)

    def test_small_clusters_on_a_large_graph(self):
        # Nine 5x5 blocks spread over a 60x60 grid: a weak sweep's frontier
        # stays far below a quarter of the grid's edges, so its rounds pull
        # next to the frontier only, and paths may leave the blocks.
        graph = grid_graph(60, 60, seed=4)
        clusters = [
            Cluster(
                nodes={(r0 + r) * 60 + c0 + c for r in range(5) for c in range(5)},
                label=(r0, c0),
            )
            for r0 in (0, 20, 55)
            for c0 in (3, 30, 50)
        ]
        _assert_tiers_match_validators(graph, clusters)

    def test_disconnected_clusters_raise(self):
        graph = nx.disjoint_union(nx.path_graph(4), nx.path_graph(3))
        induced_gap = [Cluster(nodes={0, 2}, label="gap"), Cluster(nodes={4, 5}, label=1)]
        across = [Cluster(nodes={0, 5}, label="across")]
        for clusters, kinds in ((induced_gap, ("strong",)), (across, KINDS)):
            for kind in kinds:
                for tier in TIERS:
                    with use_kernel(tier), pytest.raises(ValidationError):
                        ClusterGeometry.measure(graph, clusters, kind)
        # The gap cluster is connected through node 1 in the host graph.
        assert ClusterGeometry.measure(graph, induced_gap, "weak").diameters == (2, 1)

    @pytest.mark.parametrize("tier", TIERS)
    def test_kernel_raises_value_error(self, tier):
        csr = CSRGraph.from_networkx(nx.path_graph(4), cache=False)
        kernel = kernel_instance(tier)
        with pytest.raises(ValueError):
            kernel.cluster_diameters(csr, [[0, 2]], True)
        blocked = bytearray([0, 1, 0, 0])
        with pytest.raises(ValueError):
            kernel.cluster_diameters(csr, [[0, 2]], False, blocked)
        assert kernel.cluster_diameters(csr, [[0, 2], [3]], False) == [2, 0]
        assert blocked == bytearray([0, 1, 0, 0])


def test_a_suite_group_measures_once(monkeypatch):
    calls = []
    measure = NumpyKernel.cluster_diameters

    def counting(self, *args, **kwargs):
        calls.append(1)
        return measure(self, *args, **kwargs)

    monkeypatch.setattr(NumpyKernel, "cluster_diameters", counting)
    spec = SuiteSpec(
        name="geometry-once",
        scenarios=("torus",),
        sizes=(36,),
        methods=("strong-log3", "ls93"),
        tasks=("decompose", "mis", "coloring"),
        seeds=(0, 1),
    )
    result = run_suite(spec, workers=1, kernel="numpy")
    assert len(result.records) == 12
    # Four groups (2 methods x 2 seeds), each measured by its metrics and
    # reused by both tasks.
    assert len(calls) == 4
