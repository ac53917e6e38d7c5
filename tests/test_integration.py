"""Integration tests: whole pipelines across modules.

These tests exercise the realistic end-to-end flows a user of the library
runs: build a workload graph, compute a decomposition with the paper's
algorithm, validate every paper-stated invariant, and use the decomposition
for a downstream task — including on the adversarial Section-3 barrier graph
and on the CONGEST simulator for the message-level primitives.
"""

import math

import pytest

import repro
from repro.analysis.metrics import evaluate_carving, evaluate_decomposition
from repro.applications.coloring import delta_plus_one_coloring, verify_coloring
from repro.applications.mis import maximal_independent_set, verify_mis
from repro.baselines.abcp import abcp_strong_carving
from repro.clustering.validation import (
    check_ball_carving,
    check_network_decomposition,
    strong_diameter,
)
from repro.congest.messages import default_bandwidth
from repro.congest.rounds import RoundLedger
from repro.core.strong_carving import TransformationTrace, strong_carving_from_weak
from repro.graphs.expanders import barrier_graph
from repro.graphs.generators import torus_graph
from repro.pipeline.scenarios import build_workload


class TestEndToEndDeterministicPipeline:
    def test_full_pipeline_on_workload_suite(self):
        for name in ("torus", "grid", "tree", "regular", "cycle"):
            graph = build_workload(name, 80, seed=7)
            decomposition = repro.decompose(graph, method="strong-log3")
            check_network_decomposition(decomposition)
            metrics = evaluate_decomposition(decomposition, name)
            n = graph.number_of_nodes()
            assert metrics.colors <= 2 * math.ceil(math.log2(n)) + 2
            assert metrics.max_diameter <= 8 * (math.log2(n) ** 3) / 0.5 + 8

    def test_decomposition_drives_mis_and_coloring(self, small_torus):
        decomposition = repro.decompose(small_torus, method="strong-log3")
        mis = maximal_independent_set(decomposition)
        assert verify_mis(small_torus, mis)
        coloring = delta_plus_one_coloring(decomposition)
        assert verify_coloring(small_torus, coloring)

    def test_cd_product_bounds_template_rounds(self, small_torus):
        decomposition = repro.decompose(small_torus, method="strong-log3")
        ledger = RoundLedger()
        maximal_independent_set(decomposition, ledger=ledger)
        worst_diameter = max(
            strong_diameter(decomposition.graph, cluster.nodes)
            for cluster in decomposition.clusters
        )
        assert ledger.total_rounds <= decomposition.num_colors * (2 * worst_diameter + 2)


class TestTransformationAgainstPaperBound:
    def test_theorem21_bound_certificate(self):
        graph = torus_graph(10, 10, seed=3)
        eps = 0.5
        trace = TransformationTrace()
        carving = strong_carving_from_weak(graph, eps, trace=trace)
        check_ball_carving(carving)
        n = graph.number_of_nodes()
        # The certified bound: 2 R + O(log n / eps) with the *measured* R.
        bound = 2 * max(trace.max_weak_tree_depth, trace.max_ball_radius) + 4 * math.log2(n) / eps + 4
        for cluster in carving.clusters:
            assert strong_diameter(carving.graph, cluster.nodes) <= bound

    def test_strong_carving_beats_weak_on_connectivity(self, small_torus):
        weak = repro.carve(small_torus, 0.5, method="weak-rg20")
        strong = repro.carve(small_torus, 0.5, method="strong-log3")
        # Weak clusters may induce disconnected subgraphs; strong clusters
        # never do (this is the whole point of the transformation).
        for cluster in strong.clusters:
            strong_diameter(strong.graph, cluster.nodes)


class TestBarrierGraphPipeline:
    def test_deterministic_decomposition_on_barrier_graph(self):
        graph, meta = barrier_graph(300, 0.5, seed=4)
        decomposition = repro.decompose(graph, method="strong-log3")
        check_network_decomposition(decomposition)
        n = graph.number_of_nodes()
        assert decomposition.num_colors <= 2 * math.ceil(math.log2(n)) + 2


class TestMessageSizeComparison:
    def test_abcp_needs_large_messages_small_message_transformation_does_not(self):
        graph = torus_graph(6, 6, seed=1)
        _, abcp_report = abcp_strong_carving(graph)
        bandwidth = default_bandwidth(graph.number_of_nodes())
        # ABCP96's gathering step exceeds the CONGEST bandwidth ...
        assert abcp_report.max_message_bits > bandwidth
        # ... while the Theorem 2.1 pipeline only uses primitives that the
        # message-level simulator certifies as small-message (see
        # tests/test_congest_primitives.py); here we check the end result is
        # still a valid strong-diameter carving.
        carving = repro.carve(graph, 0.5, method="strong-log3")
        check_ball_carving(carving)


class TestCrossAlgorithmComparison:
    def test_all_methods_agree_on_coverage(self, small_torus):
        for method in repro.DECOMPOSITION_METHODS:
            decomposition = repro.decompose(small_torus, method=method, seed=5)
            assert decomposition.covered_nodes() == set(small_torus.nodes())

    def test_deterministic_methods_cost_more_rounds_than_randomized(self, small_torus):
        deterministic = repro.decompose(small_torus, method="strong-log3")
        randomized = repro.decompose(small_torus, method="mpx", seed=1)
        # The qualitative Table 1 shape: determinism costs more rounds.
        assert deterministic.rounds > randomized.rounds

    def test_improved_variant_has_no_worse_diameter_bound_certificate(self, small_torus):
        log3 = repro.decompose(small_torus, method="strong-log3")
        log2 = repro.decompose(small_torus, method="strong-log2")
        n = small_torus.number_of_nodes()
        bound_log2 = 16 * (math.log2(n) ** 2) / 0.5 + 8
        for cluster in log2.clusters:
            assert strong_diameter(log2.graph, cluster.nodes) <= bound_log2
        check_network_decomposition(log3)
        check_network_decomposition(log2)
