"""The LS93 and MPX array waves against their networkx oracles.

:mod:`tests.baseline_oracles` keeps the per-centre BFS and the heap that
the waves replaced (with min-uid tree parents); every carving, every
decomposition and every suite record must come out the same — clusters,
labels, order, dead sets, rounds, tree parents and congestion.
"""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.linial_saks import linial_saks_carving, linial_saks_decomposition
from repro.baselines.mpx import mpx_carving, mpx_decomposition
from repro.core.edge_carving import mpx_edge_carving
from repro.graphs.csr import CSRGraph, resolve_root
from repro.graphs.generators import erdos_renyi_graph, path_graph, random_regular_graph, torus_graph
from repro.pipeline import SuiteSpec
from repro.pipeline.scenarios import build_workload
from tests import baseline_oracles as oracle
from tests.conftest import force_transport, strip_volatile
from tests.kernel_oracle import use_oracle

FAMILIES = ("torus", "regular", "small-world", "expander-mix", "power-law")
EPSILONS = (0.1, 0.3, 0.5, 0.9, 0.99)
WAVES = (
    ("ls93", linial_saks_carving, oracle.ls93_carving),
    ("mpx", mpx_carving, oracle.mpx_carving),
)


def _graph(family, n, seed):
    if family == "disconnected-er":
        return erdos_renyi_graph(n, 1.5 / n, seed=seed)
    if family == "single":
        return path_graph(1, seed=seed)
    if family == "pair":
        return path_graph(2, seed=seed)
    return build_workload(family, n, seed)


def _carving_signature(carving):
    return (
        [(c.nodes, c.label, c.tree.root, c.tree.parent) for c in carving.clusters],
        carving.dead,
        carving.rounds,
        carving.congestion(),
    )


def _decomposition_signature(decomposition):
    return (
        [(c.nodes, c.label, c.color, c.tree and c.tree.parent) for c in decomposition.clusters],
        decomposition.rounds,
    )


def _edge_signature(carving):
    return ([(c.nodes, c.label) for c in carving.clusters], carving.removed_edges, carving.rounds)


def _assert_carvings_match(graph, eps, nodes, seed):
    for name, wave, reference in WAVES:
        produced = wave(graph, eps, nodes=nodes, rng=random.Random(seed))
        expected = reference(graph, eps, nodes=nodes, rng=random.Random(seed))
        assert _carving_signature(produced) == _carving_signature(expected), name


@st.composite
def carving_inputs(draw):
    family = draw(st.sampled_from(FAMILIES + ("disconnected-er", "single", "pair")))
    graph = _graph(family, draw(st.integers(min_value=16, max_value=48)), draw(st.integers(0, 999)))
    nodes = list(graph.nodes())
    subset = draw(st.sampled_from(("all", "random", "tiny")))
    pick = random.Random(draw(st.integers(0, 999)))
    if subset == "random":
        nodes = set(pick.sample(nodes, pick.randint(1, len(nodes))))
    elif subset == "tiny":
        nodes = set(pick.sample(nodes, min(len(nodes), pick.randint(1, 3))))
    else:
        nodes = None
    return graph, nodes, draw(st.sampled_from(EPSILONS)), draw(st.integers(0, 2 ** 16))


class TestWavesMatchOracles:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(carving_inputs())
    def test_carvings_match(self, case):
        graph, nodes, eps, seed = case
        _assert_carvings_match(graph, eps, nodes, seed)
        if nodes is None:
            produced = mpx_edge_carving(graph, eps, rng=random.Random(seed))
            expected = oracle.mpx_edge_carving(graph, eps, rng=random.Random(seed))
            assert _edge_signature(produced) == _edge_signature(expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_decompositions_match(self, family):
        graph = build_workload(family, 64, 5)
        pairs = (
            (linial_saks_decomposition, oracle.ls93_decomposition),
            (mpx_decomposition, oracle.mpx_decomposition),
        )
        for wave, reference in pairs:
            produced = wave(graph, rng=random.Random(2))
            expected = reference(graph, random.Random(2))
            assert _decomposition_signature(produced) == _decomposition_signature(expected)

    def test_power_law_cell_keeps_its_colours(self):
        """A wave that skips ``B_1`` when the largest radius is 0 or 1 loses
        a colour on this cell (3 colours, 58 rounds)."""
        spec = SuiteSpec(
            name="ls93-regression",
            scenarios=("power-law",),
            sizes=(128,),
            methods=("ls93",),
            seeds=(4,),
            master_seed=3,
        )
        (record,) = repro.run_suite(spec).records
        assert record["cell"] == "power-law/n128/ls93/s4"
        assert record["metrics"]["colors"] == 3
        assert record["metrics"]["rounds"] == 58


def _self_loop_graph():
    graph = torus_graph(5, 5, seed=3)
    graph.add_edge(0, 0)
    graph.add_edge(7, 7)
    return graph


def _edge_subgraph_view():
    graph = random_regular_graph(40, 4, seed=3)
    return graph.edge_subgraph(list(graph.edges())[::2])


def _string_labelled():
    graph = torus_graph(6, 6, seed=3)
    graph = nx.relabel_nodes(graph, {node: "v{}".format(node) for node in graph})
    for node in graph:
        graph.nodes[node]["uid"] = "u{}".format(graph.nodes[node]["uid"])
    return graph


REFUSED = {
    "self-loop": _self_loop_graph,
    "edge-subgraph": _edge_subgraph_view,
    "string-uids": _string_labelled,
}


class TestRefusedAndRelabelledInputs:
    def test_each_gets_an_index_of_its_own(self):
        """A self-loop graph and an edge-filtered view get an index of their
        simple adjacency, built once: the views the carving recursion
        spawns from them reuse it."""
        for graph in (_self_loop_graph(), _edge_subgraph_view()):
            assert resolve_root(graph) is graph
            csr = CSRGraph.from_networkx(graph)
            piece = graph.subgraph(list(graph)[:5])
            assert CSRGraph.from_networkx(piece) is csr
            assert CSRGraph.from_networkx(piece.subgraph(list(piece)[:3])) is csr
            simple = nx.Graph(graph)
            simple.remove_edges_from(nx.selfloop_edges(simple))
            assert csr.m == simple.number_of_edges()

    @pytest.mark.parametrize("kind", sorted(REFUSED))
    @pytest.mark.parametrize("eps", (0.3, 0.9))
    def test_carvings_match(self, kind, eps):
        graph = REFUSED[kind]()
        for seed in range(3):
            _assert_carvings_match(graph, eps, None, seed)
            nodes = set(random.Random(seed).sample(list(graph), 12))
            _assert_carvings_match(graph, eps, nodes, seed)

    @pytest.mark.parametrize("kind", sorted(REFUSED))
    def test_decompositions_match(self, kind):
        graph = REFUSED[kind]()
        for wave, reference in (
            (linial_saks_decomposition, oracle.ls93_decomposition),
            (mpx_decomposition, oracle.mpx_decomposition),
        ):
            produced = wave(graph, rng=random.Random(1))
            expected = reference(graph, random.Random(1))
            assert _decomposition_signature(produced) == _decomposition_signature(expected)


def _grid(mode):
    return SuiteSpec(
        name="baseline-modes",
        scenarios=FAMILIES,
        sizes=(128,),
        methods=("ls93", "mpx"),
        mode=mode,
        seeds=(0, 1, 2),
    )


@pytest.mark.parametrize("mode", ("decomposition", "carving"))
def test_records_identical_across_execution_modes(mode, tmp_path):
    """Serial, pool rebuild, arena (two workers whatever the host), memmap
    and the seed loops' oracle store the same ls93 and mpx records."""
    spec = _grid(mode)
    serial = [strip_volatile(record) for record in repro.run_suite(spec).records]
    assert len(serial) == 30
    runs = {
        "pool": ("off", {"workers": 2}),
        "arena": ("arena", {"workers": 2}),
        "memmap": (None, {"graph_backend": "memmap", "spill_dir": str(tmp_path)}),
        "oracle": ("oracle", {}),
    }
    for name, (transport, options) in runs.items():
        if transport is None:
            result = repro.run_suite(spec, **options)
        elif transport == "oracle":
            with use_oracle():
                result = repro.run_suite(spec, **options)
        else:
            with force_transport(transport):
                result = repro.run_suite(spec, **options)
            assert result.arena["mode"] == transport
        assert [strip_volatile(record) for record in result.records] == serial, name
