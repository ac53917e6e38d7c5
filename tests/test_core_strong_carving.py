"""Unit tests for the Theorem 2.1 transformation and Theorem 2.2 carving."""

import math
from unittest import mock

import networkx as nx
import pytest

import repro
import repro.core.improved_carving as improved_carving
import repro.core.strong_carving as strong_carving
from repro.clustering.validation import (
    check_ball_carving,
    clusters_nonadjacent,
    strong_diameter,
)
from repro.congest.rounds import RoundLedger
from repro.core.improved_carving import ImprovementTrace
from repro.core.strong_carving import (
    TransformationTrace,
    _find_boundary_radius,
    _materialise_clusters,
    strong_carving_from_weak,
    theorem22_carving,
)
from repro.baselines.mpx import mpx_carving
from repro.graphs.csr import csr_index
from repro.graphs.generators import (
    cycle_graph,
    expander_mix_graph,
    grid_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.kernels import active_kernel
from tests.kernel_oracle import kernel_scope
from repro.weak.carving import WeakCarvingParameters, carve_indices, weak_diameter_carving


def _find_boundary_by_label(graph, root, allowed, start_radius, eps):
    """``_find_boundary_radius`` on the labels of ``graph``."""
    csr = csr_index(graph)
    ball, boundary, radius = _find_boundary_radius(
        csr, csr.index[root], csr.indices_of(allowed), start_radius, eps
    )
    return {csr.nodes[i] for i in ball}, {csr.nodes[i] for i in boundary}, radius


class TestFindBoundaryRadius:
    def test_ball_covers_start_radius(self):
        graph = path_graph(30)
        ball, boundary, radius = _find_boundary_by_label(
            graph, 0, allowed=set(graph.nodes()), start_radius=5, eps=0.5
        )
        assert radius >= 5
        assert {node for node in range(6)} <= ball

    def test_boundary_is_next_layer(self):
        graph = path_graph(30)
        ball, boundary, radius = _find_boundary_by_label(
            graph, 0, allowed=set(graph.nodes()), start_radius=3, eps=0.5
        )
        assert boundary == {radius + 1} or boundary == set()

    def test_light_boundary_condition(self):
        graph = grid_graph(8, 8)
        allowed = set(graph.nodes())
        ball, boundary, radius = _find_boundary_by_label(graph, 0, allowed, 2, eps=0.5)
        assert len(boundary) <= 0.5 * (len(ball) + len(boundary)) or len(ball | boundary) == len(allowed)

    def test_exhausted_component_has_empty_boundary(self):
        graph = path_graph(5)
        ball, boundary, radius = _find_boundary_by_label(
            graph, 0, allowed=set(graph.nodes()), start_radius=10, eps=0.5
        )
        assert ball == set(graph.nodes())
        assert boundary == set()

    def test_isolated_root(self):
        graph = nx.Graph()
        graph.add_node(0)
        graph.add_node(1)
        ball, boundary, radius = _find_boundary_by_label(graph, 0, {0, 1}, 0, eps=0.5)
        assert ball == {0}
        assert boundary == set()


class TestTheorem21Transformation:
    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_structural_invariants(self, graph_zoo, eps):
        for name, graph in graph_zoo.items():
            carving = strong_carving_from_weak(graph, eps)
            check_ball_carving(carving)

    def test_produces_strong_kind_with_connected_clusters(self, small_torus):
        carving = strong_carving_from_weak(small_torus, 0.5)
        assert carving.kind == "strong"
        for cluster in carving.clusters:
            strong_diameter(carving.graph, cluster.nodes)  # raises if disconnected

    def test_dead_fraction_within_eps(self, graph_zoo):
        for name, graph in graph_zoo.items():
            carving = strong_carving_from_weak(graph, 0.5)
            assert carving.dead_fraction <= 0.5 + 1.0 / graph.number_of_nodes(), name

    def test_diameter_within_theorem_bound(self, small_torus):
        eps = 0.5
        trace = TransformationTrace()
        carving = strong_carving_from_weak(small_torus, eps, trace=trace)
        # Theorem 2.1: strong diameter <= 2 * R(n, eps / 2 log n) + O(log n / eps),
        # where R is the *measured* Steiner depth of the inner weak carving.
        n = small_torus.number_of_nodes()
        slack = 4 * math.log2(n) / eps + 4
        bound = 2 * max(trace.max_weak_tree_depth, trace.max_ball_radius) + slack
        for cluster in carving.clusters:
            assert strong_diameter(carving.graph, cluster.nodes) <= bound

    def test_deterministic(self, small_regular):
        first = strong_carving_from_weak(small_regular, 0.5)
        second = strong_carving_from_weak(small_regular, 0.5)
        assert first.cluster_of() == second.cluster_of()
        assert first.dead == second.dead

    def test_trace_records_iterations(self, small_torus):
        trace = TransformationTrace()
        strong_carving_from_weak(small_torus, 0.5, trace=trace)
        assert trace.iterations >= 1
        assert trace.eps_inner < 0.5

    def test_works_with_randomized_weak_algorithm(self, small_torus):
        import random

        rng = random.Random(0)

        def weak(graph, eps, nodes=None, ledger=None):
            return mpx_carving(graph, eps, nodes=nodes, ledger=ledger, rng=rng)

        carving = strong_carving_from_weak(small_torus, 0.5, weak_algorithm=weak)
        assert clusters_nonadjacent(carving.graph, carving.clusters)

    def test_subset_restriction(self, small_torus):
        nodes = set(list(small_torus.nodes())[:40])
        carving = strong_carving_from_weak(small_torus, 0.5, nodes=nodes)
        assert carving.clustered_nodes | carving.dead == nodes

    def test_disconnected_input(self, disconnected_graph):
        carving = strong_carving_from_weak(disconnected_graph, 0.5)
        check_ball_carving(carving)

    def test_empty_input(self, small_grid):
        carving = strong_carving_from_weak(small_grid, 0.5, nodes=[])
        assert carving.clusters == []

    def test_rejects_labels_outside_the_graph(self):
        """The run is sized from its labels: a label no walk reaches would
        still count in n, and so shrink eps_inner and grow the ledger."""
        graph = cycle_graph(64, seed=0)
        with pytest.raises(KeyError, match="ghost"):
            strong_carving_from_weak(graph, 0.5, nodes=list(range(40)) + ["ghost"])
        # A node of the root graph outside a view is outside the view.
        with pytest.raises(KeyError, match="50"):
            strong_carving_from_weak(graph.subgraph(range(40)), 0.5, nodes=[0, 1, 50])

    def test_rejects_bad_eps(self, small_grid):
        with pytest.raises(ValueError):
            strong_carving_from_weak(small_grid, 0.0)

    def test_rounds_charged_per_iteration(self, small_grid):
        ledger = RoundLedger()
        strong_carving_from_weak(small_grid, 0.5, ledger=ledger)
        assert ledger.total_rounds > 0
        assert "theorem21_iteration" in ledger.breakdown()


@pytest.mark.parametrize(
    "build",
    [
        lambda: torus_graph(12, 12, seed=3),
        lambda: cycle_graph(512, seed=2),
        lambda: expander_mix_graph(600, degree=4, seed=5),
    ],
    ids=["torus", "cycle", "expander-mix"],
)
def test_a_label_weak_algorithm_carves_like_the_index_path(build):
    """The default carving runs on index arrays; the same carving handed in
    as a label ``weak_algorithm`` goes through the adapter, which reads tree
    depths and congestion by walking the label trees.  Both give the same
    clusters, trees, dead set, ledger and trace."""
    graph = build()
    runs = []
    for weak in (None, weak_diameter_carving):
        ledger, trace = RoundLedger(), TransformationTrace()
        carving = strong_carving_from_weak(graph, 0.3, weak_algorithm=weak, ledger=ledger, trace=trace)
        clusters = [
            (cluster.label, cluster.nodes, cluster.tree.root, cluster.tree.parent)
            for cluster in carving.clusters
        ]
        runs.append((clusters, carving.dead, ledger.breakdown(), trace))
    assert runs[0] == runs[1]
    assert runs[0][3].giant_cluster_events > 0


def _lockstep(csr, pieces, eps):
    """One ``strong_carving_indices`` call on ``pieces``, carving with the
    ggr21 preset, whose thresholds (eps/2) bind on these pieces: each
    piece's clusters, dead set, ledger and trace."""
    ledgers = [RoundLedger() for _ in pieces]
    traces = [TransformationTrace() for _ in pieces]

    def carve(components, component_eps, component_ledgers):
        parameters = WeakCarvingParameters(mode="ggr21")
        return carve_indices(csr, components, component_eps, component_ledgers, parameters)

    carved = strong_carving.strong_carving_indices(csr, pieces, eps, ledgers, traces, carve)
    return [
        ([cluster.tolist() for cluster in clusters], sorted(dead.tolist()), ledger.breakdown(), trace)
        for (clusters, dead), ledger, trace in zip(carved, ledgers, traces)
    ]


@pytest.mark.parametrize("eps", [0.3, 0.9])
def test_lockstep_pieces_carve_as_if_alone(eps):
    """Theorem 2.1 runs several pieces in lockstep, one weak carving call
    per lockstep iteration.  Pieces of different sizes have different inner
    boundary parameters, size thresholds and iteration caps; each must get
    what a run of it alone gives, on the kernel and on the oracle."""
    host = nx.disjoint_union_all(
        [
            expander_mix_graph(2000, degree=4, seed=1),
            expander_mix_graph(600, degree=4, seed=2),
            cycle_graph(300, seed=0),
            torus_graph(12, 12, seed=0),
        ]
    )
    for node in host:
        host.nodes[node]["uid"] = node
    csr = csr_index(host)
    pieces = csr.components()
    for kernel in ("numpy", "oracle"):
        with kernel_scope(kernel):
            together = _lockstep(csr, pieces, eps)
            assert together == [_lockstep(csr, [piece], eps)[0] for piece in pieces], kernel
    # The pieces run different numbers of iterations and kill nodes.
    assert len({trace.iterations for *_, trace in together}) > 1
    assert all(dead for _, dead, _, _ in together[:3])


def test_one_weak_carving_engine_per_theorem21_iteration():
    """Each lockstep Theorem 2.1 iteration carves the components of all of
    its pieces in one engine, and Theorem 3.2 runs all pieces of a level in
    one lockstep call.  strong-log2 on a 4,096-node cycle has levels of
    several pieces and iterations of dozens of components: one engine per
    component would build more engines than there are lockstep iterations,
    and one Theorem 2.1 run per piece more runs than there are levels."""
    kernel_type = type(active_kernel())
    proposal_engine = kernel_type.proposal_engine
    lockstep = strong_carving.strong_carving_indices
    improve = improved_carving.improved_strong_carving
    engines, calls, levels = [], [], []

    def counting(kernel, csr, groups):
        engines.append(len(groups))
        return proposal_engine(kernel, csr, groups)

    def counted(csr, pieces, eps, ledgers, traces, carve):
        built = len(engines)
        result = lockstep(csr, pieces, eps, ledgers, traces, carve)
        # A call's lockstep iterations are its longest-running piece's.
        iterations = max(trace.iterations for trace in traces)
        calls.append((len(pieces), iterations, len(engines) - built))
        return result

    def traced(*args, **kwargs):
        trace = ImprovementTrace()
        carving = improve(*args, **dict(kwargs, trace=trace))
        levels.append(trace.recursion_levels)
        return carving

    with mock.patch.object(kernel_type, "proposal_engine", counting), mock.patch.object(
        strong_carving, "strong_carving_indices", counted
    ), mock.patch.object(improved_carving, "strong_carving_indices", counted), mock.patch.object(
        improved_carving, "improved_strong_carving", traced
    ):
        repro.decompose(cycle_graph(4096, seed=0), method="strong-log2", seed=0)
    assert max(engines) > 1
    assert max(pieces for pieces, _, _ in calls) > 1
    for pieces, iterations, built in calls:
        assert built <= iterations, (pieces, iterations, built)
    assert len(engines) <= sum(iterations for _, iterations, _ in calls)
    assert len(calls) <= sum(levels), (len(calls), sum(levels))


class TestTheorem22:
    def test_valid_carving_on_zoo(self, graph_zoo):
        for name, graph in graph_zoo.items():
            carving = theorem22_carving(graph, 0.5)
            check_ball_carving(carving)

    def test_diameter_within_asymptotic_bound(self, small_torus):
        eps = 0.5
        carving = theorem22_carving(small_torus, eps)
        n = small_torus.number_of_nodes()
        bound = 8 * (math.log2(n) ** 3) / eps + 8
        for cluster in carving.clusters:
            assert strong_diameter(carving.graph, cluster.nodes) <= bound

    def test_star_graph_single_cluster(self, small_star):
        carving = theorem22_carving(small_star, 0.5)
        check_ball_carving(carving)
        assert carving.max_cluster_size() >= small_star.number_of_nodes() // 2

    def test_congestion_is_one(self, small_torus):
        carving = theorem22_carving(small_torus, 0.5)
        assert carving.congestion() <= 1


def _shuffled_copy(graph, seed):
    """``graph`` with its node and edge insertion orders shuffled."""
    import random

    rng = random.Random(seed)
    nodes = list(graph.nodes(data=True))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    copy = nx.Graph()
    copy.add_nodes_from(nodes)
    copy.add_edges_from(edges)
    return copy


class TestTreeParentsByUid:
    """A strong cluster's BFS tree takes each node's min-uid neighbour one
    layer closer to the root, so insertion order cannot change it."""

    @pytest.mark.parametrize("kernel", ["numpy", "oracle"])
    @pytest.mark.parametrize("method", ["strong-log3", "strong-log2"])
    def test_shuffled_copy_builds_the_same_trees(self, method, kernel):
        import repro
        from repro.graphs.generators import torus_graph

        graph = torus_graph(12, 12, seed=2)
        trees = []
        for host in (graph, _shuffled_copy(graph, 7)):
            with kernel_scope(kernel):
                decomposition = repro.decompose(host, method=method)
            trees.append(
                {
                    frozenset(cluster.nodes): (cluster.tree.root, cluster.tree.parent)
                    for cluster in decomposition.clusters
                }
            )
        assert trees[0] == trees[1]


def _old_root(graph, nodes):
    """The root rule before roots came from the index: least (uid, label string)."""
    return min(nodes, key=lambda node: (graph.nodes[node].get("uid", node), str(node)))


class TestMaterialisedRoots:
    """Strong clusters are rooted at the member with the least uid rank."""

    @pytest.mark.parametrize("kernel", ["numpy", "oracle"])
    def test_carving_roots_and_labels_follow_the_uid_order(self, kernel):
        # Scrambled uids: neither label order nor the uids' string order
        # agrees with the numeric uid order.
        graphs = [torus_graph(12, 12, seed=3), expander_mix_graph(300, degree=4, seed=9)]
        for graph in graphs:
            with kernel_scope(kernel):
                carving = theorem22_carving(graph, 0.3)
            assert carving.clusters
            for cluster in carving.clusters:
                root = _old_root(graph, cluster.nodes)
                assert cluster.tree.root == root
                assert cluster.label[1] == graph.nodes[root]["uid"]

    def test_repeated_uids_tie_break_on_the_label_string(self):
        graph = torus_graph(8, 8, seed=2)
        for node in graph:
            graph.nodes[node]["uid"] //= 5
        node_sets = [
            set(nx.single_source_shortest_path_length(graph, centre, cutoff=radius))
            for centre, radius in ((0, 8), (3, 1), (10, 2), (41, 3))
        ]
        csr = csr_index(graph)
        clusters = _materialise_clusters(graph, [csr.indices_of(nodes) for nodes in node_sets])
        for cluster, nodes in zip(clusters, node_sets):
            root = _old_root(graph, nodes)
            assert cluster.tree.root == root
            assert cluster.label[1] == graph.nodes[root]["uid"]
