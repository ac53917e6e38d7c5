"""Edge-input coverage: disconnected and trivial graphs, all methods/kernels.

The generators module promises that the algorithms cope with possibly
disconnected Erdős–Rényi inputs; these tests pin that promise down for every
method in :data:`repro.CARVING_METHODS`, on the kernel and on the seed
loops' oracle, together with the degenerate 1-node and 2-node graphs.
"""

import networkx as nx
import pytest

import repro
from repro.clustering.validation import (
    check_ball_carving,
    check_network_decomposition,
)
from repro.graphs.generators import erdos_renyi_graph, path_graph
from tests.conftest import RANDOMIZED_DEAD_SLACK
from tests.kernel_oracle import kernel_scope

RANDOMIZED = {"ls93", "mpx"}
KERNELS = ("numpy", "oracle")


def _edge_input_graphs():
    sparse = erdos_renyi_graph(40, 0.035, seed=5)
    assert not nx.is_connected(sparse), "fixture must exercise disconnectedness"
    isolated = erdos_renyi_graph(12, 0.0, seed=1)
    return [
        ("one-node", path_graph(1, seed=0)),
        ("two-node", path_graph(2, seed=0)),
        ("disconnected-er", sparse),
        ("isolated-nodes", isolated),
    ]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("method", repro.CARVING_METHODS)
def test_carve_handles_edge_inputs(method, kernel):
    for name, graph in _edge_input_graphs():
        with kernel_scope(kernel):
            carving = repro.carve(graph, 0.5, method=method, seed=3)
        slack = RANDOMIZED_DEAD_SLACK if method in RANDOMIZED else None
        check_ball_carving(carving, max_dead_fraction=slack)
        covered = carving.clustered_nodes | carving.dead
        assert covered == set(graph.nodes()), (
            "method {!r} on {!r} lost nodes".format(method, name)
        )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("method", repro.DECOMPOSITION_METHODS)
def test_decompose_handles_edge_inputs(method, kernel):
    for name, graph in _edge_input_graphs():
        with kernel_scope(kernel):
            decomposition = repro.decompose(graph, method=method, seed=3)
            check_network_decomposition(decomposition)
        assert decomposition.covered_nodes() == set(graph.nodes()), (
            "method {!r} on {!r} lost nodes".format(method, name)
        )


@pytest.mark.parametrize("method", ("strong-log3", "strong-log2", "weak-rg20"))
def test_trivial_graphs_cluster_everything_deterministically(method):
    """On 1- and 2-node graphs the paper's deterministic carvings kill nobody.

    (The greedy ``sequential`` baseline is excluded: it removes each ball's
    boundary *layer* by construction, which on a 2-node path is one node —
    within its allowed eps*n+1 slack, but not zero.)
    """
    for n in (1, 2):
        graph = path_graph(n, seed=0)
        carving = repro.carve(graph, 0.5, method=method)
        assert carving.dead == set()
        assert carving.clustered_nodes == set(graph.nodes())
