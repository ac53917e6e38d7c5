"""The numpy tier's weak-carving engine against the ``pure`` tier's engine.

The numpy engine runs a whole weak carving in array space: a step reads
only the blue neighbours of the last step's joiners, and joins go to an
append-only log with one entry per (cluster, node) pair, from which the
clusters and their Steiner trees are built at the end.  The ``pure``
engine is the seed's dict driver.  Both run through the one
:func:`run_phase`.  These properties pin down what the numpy engine relies
on and what it must reproduce:

* the dict driver's rejoin guard never fires — no join ever finds its
  node already in the target cluster's tree — which is what lets the log
  write each pair once;
* both tiers give equal Steiner-tree parent maps, ``PhaseReport``
  sequences and ledger breakdowns, not only equal clusters and dead sets,
  for every kind of uid the carving accepts;
* the nodes handed to the proposal step are bounded by the phases' blue
  sets plus the joiners' neighbourhoods, not by steps times blue nodes.
"""

import collections
import dataclasses
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.weak.carving as weak_carving
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index
from repro.graphs.generators import expander_mix_graph, star_graph, torus_graph
from repro.kernels import kernel_instance, use_kernel
from repro.kernels.pure import _DictCarvingEngine
from repro.pipeline.scenarios import build_workload
from repro.weak.carving import WeakCarvingParameters, weak_diameter_carving
from repro.weak.phases import run_phase
from tests.test_methods_edge_inputs import _edge_input_graphs

SUITE_SWEEP_FAMILIES = ("torus", "regular", "small-world", "expander-mix", "power-law")
EDGE_INPUTS = dict(_edge_input_graphs())
MODES = ("rg20", "ggr21")
# Uid kinds the carving accepts, as maps of (position in label order, uid):
# the generators' scrambled 0..n-1, ordered 0..n-1, wide, past int64,
# negative and numpy integers.
UID_KINDS = {
    "scrambled": None,
    "ordered": lambda position, uid: position,
    "wide": lambda position, uid: uid + 2**40,
    "huge": lambda position, uid: uid + 2**70,
    "negative": lambda position, uid: -uid - 1,
    "numpy": lambda position, uid: np.int64(uid),
}

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _inner_eps(n):
    """Theorem 2.1's boundary parameter for the inner weak carving at eps 0.5."""
    return 0.5 / (2 * max(1, math.ceil(math.log2(max(2, n)))))


def _with_uids(graph, kind):
    """``graph``, or a copy of it with its uids mapped to the given kind."""
    remap = UID_KINDS[kind]
    if remap is None:
        return graph
    graph = graph.copy()
    for position, node in enumerate(sorted(graph)):
        graph.nodes[node]["uid"] = remap(position, graph.nodes[node]["uid"])
    return graph


@st.composite
def carvings(draw):
    """A host graph with some kind of uids, a participating subset, eps
    and a mode."""
    family = draw(st.sampled_from(SUITE_SWEEP_FAMILIES + tuple(EDGE_INPUTS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if family in EDGE_INPUTS:
        graph = EDGE_INPUTS[family]
    else:
        graph = build_workload(family, draw(st.integers(min_value=8, max_value=300)), seed=seed)
    graph = _with_uids(graph, draw(st.sampled_from(sorted(UID_KINDS))))
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    share = draw(st.sampled_from((1.0, 0.7, 0.3)))
    subset = set(rng.sample(nodes, max(1, int(share * len(nodes)))))
    low = _inner_eps(len(subset))
    eps = low + draw(st.floats(min_value=0.0, max_value=1.0)) * (0.5 - low)
    return graph, subset, eps, draw(st.sampled_from(MODES))


def _observed(graph, subset, eps, mode, kernel):
    """Everything a weak carving exposes: clusters with their trees, the
    dead set, the phase reports and the ledger."""
    reports = []

    def recording(*args, **kwargs):
        report = run_phase(*args, **kwargs)
        reports.append(dataclasses.astuple(report))
        return report

    ledger = RoundLedger()
    with use_kernel(kernel), mock.patch.object(weak_carving, "run_phase", recording):
        carving = weak_diameter_carving(
            graph,
            eps,
            nodes=subset,
            ledger=ledger,
            parameters=WeakCarvingParameters(mode=mode),
        )
    clusters = [
        (cluster.label, cluster.nodes, cluster.tree.root, cluster.tree.parent)
        for cluster in carving.clusters
    ]
    return clusters, carving.dead, reports, ledger.breakdown(), ledger.total_rounds


class TestRejoinGuardIsDead:
    @_SETTINGS
    @given(carvings())
    def test_no_join_finds_its_node_in_the_target_tree(self, case):
        graph, subset, eps, mode = case
        rejoins = []
        record_join = _DictCarvingEngine.record_join

        def checking(engine, node, via, new_label):
            if node in engine.tree_parent.get(new_label, {}):
                rejoins.append((node, new_label))
            record_join(engine, node, via, new_label)

        with use_kernel("pure"), mock.patch.object(_DictCarvingEngine, "record_join", checking):
            weak_diameter_carving(
                graph, eps, nodes=subset, parameters=WeakCarvingParameters(mode=mode)
            )
        assert rejoins == []


class TestEngineMatchesPure:
    @_SETTINGS
    @given(carvings())
    def test_trees_phase_reports_and_ledger(self, case):
        graph, subset, eps, mode = case
        assert _observed(graph, subset, eps, mode, "numpy") == _observed(
            graph, subset, eps, mode, "pure"
        )

    @pytest.mark.parametrize(
        "name, graph",
        [
            # Constant degree.
            ("torus", torus_graph(12, 12, seed=3)),
            # Degrees 4-5.
            ("expander-mix", expander_mix_graph(400, degree=4, seed=2)),
            # One huge row.
            ("star", star_graph(60, seed=1)),
            ("power-law", build_workload("power-law", 300, seed=4)),
        ],
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_degree_shapes(self, name, graph, mode):
        for eps in (0.5, _inner_eps(graph.number_of_nodes())):
            nodes = set(graph)
            assert _observed(graph, nodes, eps, mode, "numpy") == _observed(
                graph, nodes, eps, mode, "pure"
            ), name


def test_proposal_steps_read_only_the_frontier():
    """Over one carving the proposal step is handed at most the blue nodes
    of every phase start plus the joiners' neighbourhoods."""
    graph = expander_mix_graph(4000, degree=4, seed=7)
    engine_type = type(
        kernel_instance("numpy").proposal_engine(csr_index(graph), set(graph))
    )
    counts = collections.Counter()
    start_phase, propose_step = engine_type.start_phase, engine_type.propose_step

    def counting_start(engine, bit):
        start_phase(engine, bit)
        counts["blue"] += engine._frontier.size

    def counting_propose(engine):
        counts["handed"] += engine._frontier.size
        proposers = propose_step(engine)
        counts["proposals"] += proposers
        return proposers

    with use_kernel("numpy"), mock.patch.object(
        engine_type, "start_phase", counting_start
    ), mock.patch.object(engine_type, "propose_step", counting_propose):
        weak_diameter_carving(graph, _inner_eps(graph.number_of_nodes()))
    max_degree = max(degree for _, degree in graph.degree())
    assert counts["proposals"] > 0
    assert counts["handed"] <= counts["blue"] + max_degree * counts["proposals"], counts
