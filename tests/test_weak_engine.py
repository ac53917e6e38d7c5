"""The kernel's weak-carving engine against the seed's dict driver.

The kernel's engine runs a whole weak carving in array space: a step reads
only the blue neighbours of the last step's joiners, and joins go to an
append-only log with one entry per (cluster, node) pair, from which the
clusters and their Steiner trees are built at the end.  The oracle's
engine (``tests/kernel_oracle.py``) is the seed's dict driver.  Both run
through the one :func:`run_phase`.  These properties pin down what the
kernel's engine relies on and what it must reproduce:

* the dict driver's rejoin guard never fires — no join ever finds its
  node already in the target cluster's tree — which is what lets the log
  write each pair once;
* both engines give equal Steiner-tree parent maps, ``PhaseReport``
  sequences and ledger breakdowns, not only equal clusters and dead sets,
  for every kind of uid the carving accepts;
* the nodes handed to the proposal step are bounded by the phases' blue
  sets plus the joiners' neighbourhoods, not by steps times blue nodes;
* one engine over several disjoint, non-adjacent groups (Theorem 2.1's
  components of one iteration) gives each group what an engine of its
  own gives, on both row layouts and for groups of different uid widths.
"""

import collections
import contextlib
import dataclasses
import math
import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.weak.carving as weak_carving
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index
from repro.graphs.generators import cycle_graph, expander_mix_graph, star_graph, torus_graph
from repro.kernels import active_kernel
from repro.pipeline.scenarios import build_workload
from repro.weak.carving import WeakCarvingParameters, weak_diameter_carving
from repro.weak.phases import run_phase
from tests.kernel_oracle import DictCarvingEngine, kernel_scope, use_oracle
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
    with kernel_scope(kernel), mock.patch.object(weak_carving, "run_phase", recording):
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
        record_join = DictCarvingEngine.record_join

        def checking(engine, node, via, new_label):
            if node in engine.tree_parent.get(new_label, {}):
                rejoins.append((node, new_label))
            record_join(engine, node, via, new_label)

        with use_oracle(), mock.patch.object(DictCarvingEngine, "record_join", checking):
            weak_diameter_carving(
                graph, eps, nodes=subset, parameters=WeakCarvingParameters(mode=mode)
            )
        assert rejoins == []


class TestEngineMatchesOracle:
    @_SETTINGS
    @given(carvings())
    def test_trees_phase_reports_and_ledger(self, case):
        graph, subset, eps, mode = case
        assert _observed(graph, subset, eps, mode, "numpy") == _observed(
            graph, subset, eps, mode, "oracle"
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
                graph, nodes, eps, mode, "oracle"
            ), name


class TestEngineReportsDepthsAndCongestion:
    """Theorem 2.1 reads a weak cluster's tree depth and the carving's
    congestion from the engine's arrays (the deepest member's join depth,
    the most kept join-log entries on one edge) instead of walking the
    label trees; both engines must give what the walks give."""

    @_SETTINGS
    @given(carvings())
    def test_arrays_equal_the_tree_walks(self, case):
        graph, subset, eps, mode = case
        parameters = WeakCarvingParameters(mode=mode)
        csr = csr_index(graph)
        for kernel in ("numpy", "oracle"):
            with kernel_scope(kernel):
                [(carved, _)] = weak_carving.carve_indices(
                    csr, [csr.indices_of(subset)], [eps], [RoundLedger()], parameters
                )
                carving = weak_diameter_carving(graph, eps, nodes=subset, parameters=parameters)
            assert carved.depths == [cluster.tree.depth() for cluster in carving.clusters]
            assert carved.congestion == carving.congestion()


# Pieces of a grouped carving's host graph.  The engine pads the rows of a
# torus, a cycle or an expander (every closed row about as wide as the
# widest); a star's or a power-law graph's hub keeps the CSR gather.
PIECES = {
    "torus": lambda n, seed: torus_graph(3, max(3, n // 3), seed=seed),
    "cycle": lambda n, seed: cycle_graph(max(3, n), seed=seed),
    "expander-mix": lambda n, seed: expander_mix_graph(max(8, n), degree=4, seed=seed),
    "star": lambda n, seed: star_graph(max(2, n), seed=seed),
    "power-law": lambda n, seed: build_workload("power-law", max(8, n), seed=seed),
}
# A piece's uids, by bit width: small and non-negative, negative, of both
# signs (both count a sign bit), past int64.  ``offset`` keeps every
# piece's uids apart.
UID_WIDTHS = {
    "small": lambda offset, i: offset + i,
    "negative": lambda offset, i: -(offset + i) - 1,
    "mixed": lambda offset, i: offset + i if i % 2 else -(offset + i) - 1,
    "huge": lambda offset, i: 2**70 + offset + i,
}


@st.composite
def grouped_carvings(draw):
    """A host graph of disjoint pieces with different uid widths, groups
    that are the components of a subset of it (so no edge joins two), in
    shuffled order, one eps per group, a mode and an optional tiny step
    cap."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    host = nx.Graph()
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        family = draw(st.sampled_from(sorted(PIECES)))
        piece = PIECES[family](draw(st.integers(min_value=4, max_value=64)), seed)
        uid = UID_WIDTHS[draw(st.sampled_from(sorted(UID_WIDTHS)))]
        offset = host.number_of_nodes()
        label = {node: offset + k for k, node in enumerate(sorted(piece))}
        scrambled = rng.sample(range(len(label)), len(label))
        host.add_nodes_from((offset + k, {"uid": uid(offset, i)}) for k, i in enumerate(scrambled))
        host.add_edges_from((label[u], label[v]) for u, v in piece.edges())
    nodes = sorted(host)
    subset = rng.sample(nodes, max(1, int(draw(st.sampled_from((1.0, 0.8))) * len(nodes))))
    csr = csr_index(host)
    groups = csr.components(csr.indices_of(subset))
    rng.shuffle(groups)
    # Up to eps 0.9, so rg20's per-group thresholds (eps over twice the
    # bits) reject on these small pieces too.  Each group draws its own, as
    # the pieces of one lockstep Theorem 2.1 run do: thresholds and step
    # caps then differ between groups by eps as well as by bits.
    low = _inner_eps(len(subset))
    eps = [low + draw(st.floats(min_value=0.0, max_value=1.0)) * (0.9 - low) for _ in groups]
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
    return host, groups, eps, draw(st.sampled_from(MODES)), cap


def _carve_together(csr, groups, eps, parameters):
    """One ``carve_indices`` call over ``groups``: each group's clusters
    (trees, depths and congestion included), dead array and ledger; or the
    step-cap error."""
    ledgers = [RoundLedger() for _ in groups]
    try:
        carved = weak_carving.carve_indices(csr, groups, eps, ledgers, parameters)
    except RuntimeError as error:
        return str(error)
    return [
        (
            [field.tolist() if isinstance(field, np.ndarray) else field for field in clusters],
            dead.tolist(),
            list(ledger.breakdown().items()),
            ledger.total_rounds,
        )
        for (clusters, dead), ledger in zip(carved, ledgers)
    ]


def _carve_one_by_one(csr, groups, eps, parameters):
    """One ``carve_indices`` call per group, stopping at the first error."""
    observed = []
    for group, group_eps in zip(groups, eps):
        alone = _carve_together(csr, [group], [group_eps], parameters)
        if isinstance(alone, str):
            return alone
        observed.extend(alone)
    return observed


class TestGroupedCarvingEqualsOneCarvingPerGroup:
    """Theorem 2.1 carves all components of an iteration in one engine,
    stepping their phases in lockstep.  Each group must get what a carving
    of it alone gives: its clusters, trees, depths, congestion and dead
    array, its ledger from its own steps, bits and tree depth, and, past
    its own step cap, the error the one-by-one loop raises first."""

    @_SETTINGS
    @given(grouped_carvings())
    def test_one_call_equals_one_call_per_group(self, case):
        graph, groups, eps, mode, cap = case
        csr = csr_index(graph)
        parameters = WeakCarvingParameters(mode=mode)
        for kernel in ("numpy", "oracle"):
            # A cap that differs between groups names the group that raised.
            capped = (
                contextlib.nullcontext()
                if cap is None
                else mock.patch.object(
                    WeakCarvingParameters, "step_bound", lambda self, eps, bits, n: cap + n % 3
                )
            )
            with kernel_scope(kernel), capped:
                together = _carve_together(csr, groups, eps, parameters)
                assert together == _carve_one_by_one(csr, groups, eps, parameters), kernel

    @staticmethod
    def _two_paths(a=10, b=10):
        """Two path groups, ``a`` and ``b`` nodes long.  In each, one end's
        uid alone has a phase's bit set (``a``'s bit 1, ``b``'s bit 0), so
        its cluster takes one step per node along the path."""
        graph = nx.disjoint_union(nx.path_graph(a), nx.path_graph(b))
        uids = [2] + [4 * k for k in range(1, a)] + [1] + [4 * k + 2 for k in range(1, b)]
        for node, uid in zip(sorted(graph), uids):
            graph.nodes[node]["uid"] = uid
        return csr_index(graph), [np.arange(a), np.arange(a, a + b)]

    def test_the_first_group_in_order_names_the_step_cap_error(self):
        """Group ``a`` runs past its cap in phase 1, group ``b`` already in
        phase 0: a carving of ``a`` then ``b`` raises for ``a``'s phase 1,
        and so must the lockstep run, which sees ``b``'s overrun first."""
        csr, groups = self._two_paths()
        eps = [0.5, 0.5]
        for kernel in ("numpy", "oracle"):
            with kernel_scope(kernel), mock.patch.object(
                WeakCarvingParameters, "step_bound", lambda self, eps, bits, n: 3
            ):
                together = _carve_together(csr, groups, eps, WeakCarvingParameters())
                assert together == _carve_one_by_one(csr, groups, eps, WeakCarvingParameters())
            assert together.startswith("weak carving phase for bit 1 exceeded 3 steps"), kernel

    def test_the_step_bound_spares_a_group_within_its_own_cap(self):
        """With caps of ``n - 1``, ``a``'s 9-step phase 1 is within its cap
        of 9, past ``b``'s cap of 3: the lockstep run carves it whole."""
        csr, groups = self._two_paths(10, 4)
        eps = [0.5, 0.5]
        for kernel in ("numpy", "oracle"):
            with kernel_scope(kernel), mock.patch.object(
                WeakCarvingParameters, "step_bound", lambda self, eps, bits, n: n - 1
            ):
                together = _carve_together(csr, groups, eps, WeakCarvingParameters())
                assert together == _carve_one_by_one(csr, groups, eps, WeakCarvingParameters())
            assert not isinstance(together, str), kernel

    def test_a_phase_stops_one_step_past_the_largest_cap(self):
        """With a cap of 3, ``b``'s 9-step phase 0 stops at its fourth
        step, and so does ``a``'s phase 1; ``a``, untouched by the cut,
        still names the error."""
        csr, groups = self._two_paths()
        for kernel in ("numpy", "oracle"):
            reports = []

            def recording(*args, **kwargs):
                reports.append(run_phase(*args, **kwargs))
                return reports[-1]

            with kernel_scope(kernel), mock.patch.object(
                WeakCarvingParameters, "step_bound", lambda self, eps, bits, n: 3
            ), mock.patch.object(weak_carving, "run_phase", recording):
                with pytest.raises(RuntimeError, match="bit 1 exceeded 3 steps"):
                    weak_carving.carve_indices(
                        csr,
                        groups,
                        [0.5, 0.5],
                        [RoundLedger(), RoundLedger()],
                        WeakCarvingParameters(),
                    )
            assert [report.group_steps[0] for report in reports[:2]] == [0, 4], kernel
            assert reports[0].group_steps[1] == 4, kernel
            assert max(report.steps for report in reports) == 4, kernel

    @pytest.mark.parametrize(
        "name, graph, pads",
        [
            ("torus", torus_graph(12, 12, seed=3), True),
            ("expander-mix", expander_mix_graph(400, degree=4, seed=2), True),
            ("star", star_graph(60, seed=1), False),
            ("power-law", build_workload("power-law", 300, seed=4), False),
        ],
    )
    def test_rows_pad_unless_that_more_than_doubles_them(self, name, graph, pads):
        csr = csr_index(graph)
        engine = active_kernel().proposal_engine(csr, [np.arange(csr.n)])
        assert (engine._pad is not None) == pads, name


def test_proposal_steps_read_only_the_frontier():
    """Over one carving the proposal step is handed at most the blue nodes
    of every phase start plus the joiners' neighbourhoods."""
    graph = expander_mix_graph(4000, degree=4, seed=7)
    csr = csr_index(graph)
    engine_type = type(active_kernel().proposal_engine(csr, [np.arange(csr.n)]))
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

    with mock.patch.object(engine_type, "start_phase", counting_start), mock.patch.object(
        engine_type, "propose_step", counting_propose
    ):
        weak_diameter_carving(graph, _inner_eps(graph.number_of_nodes()))
    max_degree = max(degree for _, degree in graph.degree())
    assert counts["proposals"] > 0
    assert counts["handed"] <= counts["blue"] + max_degree * counts["proposals"], counts
