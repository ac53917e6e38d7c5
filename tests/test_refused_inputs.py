"""Inputs the root's CSR index cannot express are metamorphic.

An edge-filtered view, a graph with self-loops and a multigraph each run on
an index of their own simple adjacency, and an in-place rewire refreshes
the cached index.  Every method, in carving and decomposition mode, on
the kernel and on the seed loops' oracle, must then answer exactly as it
does on a plain ``nx.Graph`` copy of the same simple graph.  Directed graphs are refused at
the API boundary.
"""

from unittest import mock

import networkx as nx
import pytest

import repro
import repro.weak.carving as weak_carving
from repro.clustering.validation import check_network_decomposition
from repro.graphs.generators import (
    assign_unique_identifiers,
    random_regular_graph,
    torus_graph,
)
from tests.kernel_oracle import kernel_scope

KERNELS = ("numpy", "oracle")


def _carving_signature(carving):
    return (
        sorted(sorted(cluster.nodes) for cluster in carving.clusters),
        sorted(carving.dead),
    )


def _decomposition_signature(decomposition):
    return sorted((cluster.color, sorted(cluster.nodes)) for cluster in decomposition.clusters)


def _edge_view():
    host = torus_graph(8, 8, seed=4)
    view = nx.edge_subgraph(host, list(host.edges())[::3] + list(host.edges())[1::3])
    return view, nx.Graph(view)


def _self_loops():
    plain = random_regular_graph(60, 4, seed=4)
    looped = plain.copy()
    looped.add_edges_from((node, node) for node in list(plain)[::5])
    return looped, plain


def _multigraph():
    plain = torus_graph(8, 8, seed=4)
    multigraph = nx.MultiGraph(plain)
    multigraph.add_edges_from(list(plain.edges())[::2])
    return multigraph, nx.Graph(multigraph)


def _rewired():
    graph = torus_graph(8, 8, seed=4)
    repro.decompose(graph, method="strong-log3")  # warms the cached index
    graph.remove_edge(0, 1)
    graph.add_edge(0, 27)  # same node count, same edge count
    return graph, graph.copy()


CASES = {
    "edge-view": _edge_view,
    "self-loops": _self_loops,
    "multigraph": _multigraph,
    "rewired": _rewired,
}


class TestRefusedInputsAreMetamorphic:
    @pytest.mark.parametrize("method", repro.CARVING_METHODS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_answers(self, case, method):
        for kernel in KERNELS:
            graph, reference = CASES[case]()
            with kernel_scope(kernel):
                carving = repro.carve(graph, 0.3, method=method, seed=5)
                decomposition = repro.decompose(graph, method=method, seed=5)
                expected_carving = repro.carve(reference, 0.3, method=method, seed=5)
                expected = repro.decompose(reference, method=method, seed=5)
            assert _carving_signature(carving) == _carving_signature(expected_carving), kernel
            assert _decomposition_signature(decomposition) == _decomposition_signature(
                expected
            ), kernel


@pytest.mark.parametrize("entry", ["carve", "decompose", "run_task"])
def test_directed_graphs_are_refused_at_the_api(entry):
    graph = nx.DiGraph(torus_graph(4, 4, seed=1))
    call = {
        "carve": lambda: repro.carve(graph, 0.5),
        "decompose": lambda: repro.decompose(graph),
        "run_task": lambda: repro.run_task(graph, task="mis"),
    }[entry]
    with pytest.raises(ValueError, match="undirected"):
        call()


WEAK_CARVING_METHODS = ("strong-log3", "strong-log2", "weak-rg20")


def _uidless(labels):
    """A 6x6 torus relabelled by ``labels`` with its ``"uid"`` attributes dropped."""
    graph = nx.relabel_nodes(torus_graph(6, 6, seed=1), labels)
    for node in graph:
        del graph.nodes[node]["uid"]
    return graph


@pytest.mark.parametrize("labels", [lambda i: "v{}".format(i), str], ids=["names", "int-like"])
@pytest.mark.parametrize("method", WEAK_CARVING_METHODS)
def test_non_integer_uids_are_refused_before_the_weak_carving(labels, method):
    """Labels stand in for missing uids; the weak carving's bit phases need
    ints, so a string uid is refused up front with the remedy named."""
    graph = _uidless(labels)
    refused = r"integer node uids, but node '\w+' has uid '\w+'.*assign_unique_identifiers"
    for kernel in KERNELS:
        with kernel_scope(kernel):
            with pytest.raises(ValueError, match=refused):
                repro.carve(graph, 0.3, method=method)
            with pytest.raises(ValueError, match=refused):
                repro.decompose(graph, method=method)
    assign_unique_identifiers(graph)
    for kernel in KERNELS:
        with kernel_scope(kernel):
            check_network_decomposition(repro.decompose(graph, method=method))


def _torus_with_uids(uid_of_position):
    """A 6x6 torus whose node in label position ``i`` has uid ``uid_of_position(i)``."""
    graph = torus_graph(6, 6, seed=1)
    for position, node in enumerate(sorted(graph)):
        graph.nodes[node]["uid"] = uid_of_position(position)
    return graph


@pytest.mark.parametrize("method", WEAK_CARVING_METHODS)
def test_negative_uids_give_valid_decompositions(method):
    """Negative uids take a sign bit on top of their width, so the bit
    phases still tell every label apart: the decompositions are valid and
    equal on the kernel and the oracle."""
    graph = _torus_with_uids(lambda position: -position - 1)
    signatures = []
    for kernel in KERNELS:
        with kernel_scope(kernel):
            decomposition = repro.decompose(graph, method=method)
        check_network_decomposition(decomposition)
        signatures.append(_decomposition_signature(decomposition))
    assert signatures[0] == signatures[1]


@pytest.mark.parametrize("method", WEAK_CARVING_METHODS)
def test_repeated_uids_are_refused_before_any_phase(method):
    """Two clusters with one label would share a Steiner tree, so repeated
    uids are refused up front, naming the nodes and the remedy."""
    graph = _torus_with_uids(lambda position: position // 2)
    refused = r"distinct node uids, but nodes 0 and 1 share uid 0.*assign_unique_identifiers"
    for kernel in KERNELS:
        with kernel_scope(kernel), mock.patch.object(weak_carving, "run_phase") as run_phase:
            with pytest.raises(ValueError, match=refused):
                repro.carve(graph, 0.3, method=method)
            with pytest.raises(ValueError, match=refused):
                repro.decompose(graph, method=method)
        assert not run_phase.called, kernel


@pytest.mark.parametrize("method", ("strong-log3", "weak-rg20"))
def test_repeated_runs_deterministic(method, small_torus):
    first = repro.decompose(small_torus, method=method)
    second = repro.decompose(small_torus, method=method)
    assert _decomposition_signature(first) == _decomposition_signature(second)
