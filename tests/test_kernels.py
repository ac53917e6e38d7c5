"""Kernel tiers: registry semantics and tier-vs-pure differential equality.

The hot-path kernels are pure performance changes: every tier must produce
byte-identical cluster assignments, dead sets, ledger charges and task
solutions.  The ``pure`` tier is the extracted seed loops, so it is the
oracle the ``numpy`` tier is differenced against.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    assign_unique_identifiers,
    erdos_renyi_graph,
    random_regular_graph,
    torus_graph,
)
from repro.kernels import (
    KERNEL_CHOICES,
    KERNELS,
    ProposalEngine,
    active_kernel,
    get_kernel,
    set_kernel,
    use_kernel,
)

METHODS = repro.CARVING_METHODS
TASKS = ("mis", "coloring")

def _shifted_uids(graph, offset):
    """``graph`` with every uid moved up by ``offset`` (order preserved)."""
    for node in graph.nodes:
        graph.nodes[node]["uid"] += offset
    return graph


def _workload_graphs():
    return [
        ("torus", torus_graph(10, 10, seed=3)),
        ("regular", random_regular_graph(80, 4, seed=5)),
        ("gnp", erdos_renyi_graph(90, 0.05, seed=11)),
        # uids 0..n-1 in label order.
        (
            "torus-ordered-uids",
            assign_unique_identifiers(torus_graph(10, 10, seed=3), scramble=False),
        ),
        # uids near 2**40: the numpy engine names clusters by local index
        # (uid order), so wide identifiers need no wide key.
        ("torus-wide-uids", _shifted_uids(torus_graph(10, 10, seed=3), 2**40)),
        # uids past int64: the numpy engine keeps them as Python ints.
        ("torus-huge-uids", _shifted_uids(torus_graph(10, 10, seed=3), 2**70)),
        # uids -100..-1: the bit phases count a sign bit.
        ("torus-negative-uids", _shifted_uids(torus_graph(10, 10, seed=3), -100)),
        # numpy integers: the index orders them by their string form, so
        # the numpy engine renumbers its rows by value.
        ("torus-numpy-uids", _shifted_uids(torus_graph(10, 10, seed=3), np.int64(0))),
    ]


def carving_signature(carving):
    return (
        frozenset(frozenset(cluster.nodes) for cluster in carving.clusters),
        frozenset(carving.dead),
    )


def decomposition_signature(decomposition):
    return frozenset(
        (cluster.color, frozenset(cluster.nodes)) for cluster in decomposition.clusters
    )


# --------------------------------------------------------------------- #
# Registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_registered_tiers_and_choices(self):
        assert KERNELS.names() == ("pure", "numpy")
        assert KERNEL_CHOICES == ("auto", "pure", "numpy")

    def test_unknown_kernel_raises_with_catalogue(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KERNELS.get("simd")
        with pytest.raises(ValueError, match="auto"):
            KERNELS.instantiate("simd")

    def test_auto_is_not_registrable(self):
        from repro.kernels import KernelSpec
        from repro.kernels.pure import PureKernel

        with pytest.raises(ValueError, match="selection rule"):
            KERNELS.register(
                KernelSpec(name="auto", description="x", factory=PureKernel)
            )

    def test_duplicate_registration_rejected(self):
        from repro.kernels import KernelSpec
        from repro.kernels.pure import PureKernel

        with pytest.raises(ValueError, match="already registered"):
            KERNELS.register(
                KernelSpec(name="pure", description="x", factory=PureKernel)
            )

    def test_auto_resolves_to_numpy(self):
        assert KERNELS.resolve("auto").name == "numpy"

    def test_instances_are_cached(self):
        assert KERNELS.instantiate("pure") is KERNELS.instantiate("pure")

    def test_set_kernel_validates(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            set_kernel("simd")
        assert get_kernel() == "auto"  # a failed set leaves the ambient alone

    def test_use_kernel_scopes_and_restores(self):
        before = get_kernel()
        with use_kernel("pure"):
            assert get_kernel() == "pure"
            assert active_kernel().name == "pure"
        assert get_kernel() == before

    def test_use_kernel_none_keeps_ambient(self):
        with use_kernel("pure"):
            with use_kernel(None):
                assert get_kernel() == "pure"

    def test_active_kernel_matches_auto_resolution(self):
        with use_kernel("auto"):
            assert active_kernel().name == KERNELS.resolve("auto").name


# --------------------------------------------------------------------- #
# Frontier-expansion unit behaviour (every tier)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", KERNELS.names())
class TestFrontierExpand:
    def _csr(self, graph):
        return CSRGraph.from_networkx(graph)

    def test_isolated_node_expands_to_nothing(self, tier, disconnected_graph):
        csr = self._csr(disconnected_graph)
        kernel = KERNELS.instantiate(tier)
        isolated = csr.index[20]
        blocked = bytearray(csr.n)
        blocked[isolated] = 1
        assert kernel.frontier_expand(csr, [isolated], blocked) == []

    def test_full_graph_frontier_has_no_new_nodes(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS.instantiate(tier)
        blocked = bytearray(b"\x01") * csr.n
        assert kernel.frontier_expand(csr, list(range(csr.n)), blocked) == []

    def test_fully_blocked_neighbourhood(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS.instantiate(tier)
        # Everything except the source is blocked: an empty allowed set.
        blocked = bytearray(b"\x01") * csr.n
        assert kernel.frontier_expand(csr, [0], blocked) == []

    def test_empty_frontier(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS.instantiate(tier)
        assert kernel.frontier_expand(csr, [], bytearray(csr.n)) == []

    def test_first_discovery_order_matches_pure(self, tier, small_regular):
        csr = self._csr(small_regular)
        kernel = KERNELS.instantiate(tier)
        pure = KERNELS.instantiate("pure")
        for frontier in ([0], [3, 17, 5], list(range(10))):
            blocked_a = bytearray(csr.n)
            blocked_b = bytearray(csr.n)
            for i in frontier:
                blocked_a[i] = blocked_b[i] = 1
            got = kernel.frontier_expand(csr, list(frontier), blocked_a)
            want = pure.frontier_expand(csr, list(frontier), blocked_b)
            # Not just the same set: the exact first-discovery order, which
            # downstream dict insertion orders and tie-breaks depend on.
            assert got == want
            assert blocked_a == blocked_b

    def test_marks_are_visible_to_caller(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS.instantiate(tier)
        blocked = bytearray(csr.n)
        blocked[0] = 1
        reached = kernel.frontier_expand(csr, [0], blocked)
        assert reached  # degree-4 torus: the step finds neighbours
        assert all(blocked[i] == 1 for i in reached)

    def test_bfs_layers_partition_component(self, tier, small_tree):
        csr = self._csr(small_tree)
        kernel = KERNELS.instantiate(tier)
        blocked = bytearray(csr.n)
        blocked[0] = 1
        layers = kernel.bfs_layers(csr, [0], blocked)
        flat = [i for layer in layers for i in layer]
        assert sorted(flat) == list(range(csr.n))
        assert len(flat) == len(set(flat))

    def test_multi_source_bfs_counts_sources(self, tier, small_cycle):
        csr = self._csr(small_cycle)
        kernel = KERNELS.instantiate(tier)
        blocked = bytearray(csr.n)
        blocked[0] = 1
        ecc, reached = kernel.multi_source_bfs(csr, [0], blocked)
        assert reached == csr.n
        assert ecc == csr.n // 2  # a 40-cycle: eccentricity 20


# --------------------------------------------------------------------- #
# Differential: the numpy tier vs the pure oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", ["numpy"])
class TestTierMatchesPure:
    def test_carvings_identical(self, tier):
        for method in METHODS:
            for name, graph in _workload_graphs():
                with use_kernel("pure"):
                    oracle_ledger = RoundLedger()
                    oracle = repro.carve(
                        graph, 0.5, method=method, seed=7, ledger=oracle_ledger
                    )
                with use_kernel(tier):
                    tier_ledger = RoundLedger()
                    got = repro.carve(
                        graph, 0.5, method=method, seed=7, ledger=tier_ledger
                    )
                assert carving_signature(got) == carving_signature(oracle), (
                    "kernel {!r} diverged from pure: method {!r} on {!r}".format(
                        tier, method, name
                    )
                )
                assert tier_ledger.total_rounds == oracle_ledger.total_rounds

    def test_decompositions_identical(self, tier):
        for method in METHODS:
            for name, graph in _workload_graphs():
                with use_kernel("pure"):
                    oracle_ledger = RoundLedger()
                    oracle = repro.decompose(
                        graph, method=method, seed=7, ledger=oracle_ledger
                    )
                with use_kernel(tier):
                    tier_ledger = RoundLedger()
                    got = repro.decompose(graph, method=method, seed=7, ledger=tier_ledger)
                assert decomposition_signature(got) == decomposition_signature(
                    oracle
                ), "kernel {!r} diverged from pure: method {!r} on {!r}".format(
                    tier, method, name
                )
                assert tier_ledger.total_rounds == oracle_ledger.total_rounds

    @pytest.mark.parametrize("task", TASKS)
    def test_task_solutions_identical(self, tier, task):
        for method in ("strong-log3", "weak-rg20", "mpx"):
            for name, graph in _workload_graphs():
                oracle = repro.run_task(
                    graph, method=method, task=task, seed=7, kernel="pure"
                )
                got = repro.run_task(
                    graph, method=method, task=task, seed=7, kernel=tier
                )
                context = "kernel {!r}, method {!r}, task {!r}, workload {!r}".format(
                    tier, method, task, name
                )
                if task == "mis":
                    assert got.solution == oracle.solution, context
                else:
                    assert dict(got.solution) == dict(oracle.solution), context
                assert got.metrics == oracle.metrics, context
                assert got.rounds == oracle.rounds, context

    def test_graph_properties_identical(self, tier):
        from repro.graphs.properties import approximate_diameter, induced_components

        for name, graph in _workload_graphs():
            with use_kernel("pure"):
                oracle = (
                    approximate_diameter(graph),
                    sorted(sorted(c) for c in induced_components(graph, graph.nodes())),
                )
            with use_kernel(tier):
                got = (
                    approximate_diameter(graph),
                    sorted(sorted(c) for c in induced_components(graph, graph.nodes())),
                )
            assert got == oracle, "kernel {!r} diverged on {!r}".format(tier, name)


@pytest.mark.parametrize("tier", ["pure", "numpy"])
def test_every_tier_has_an_engine_and_refuses_unusable_uids(tier):
    """Every tier returns an engine for every uid kind the carving accepts;
    a non-integer or repeated uid is refused, naming the remedy."""
    kernel = KERNELS.instantiate(tier)
    for name, graph in _workload_graphs():
        engine = kernel.proposal_engine(CSRGraph.from_networkx(graph), set(graph))
        assert isinstance(engine, ProposalEngine), name
    for uid in ("x", 2.5, None, "duplicate"):
        graph = torus_graph(4, 4, seed=3)
        first, second = list(graph)[:2]
        graph.nodes[first]["uid"] = graph.nodes[second]["uid"] if uid == "duplicate" else uid
        csr = CSRGraph.from_networkx(graph)
        refused = "distinct" if uid == "duplicate" else "integer"
        with pytest.raises(ValueError, match=refused + ".*assign_unique_identifiers"):
            kernel.proposal_engine(csr, set(graph))


# --------------------------------------------------------------------- #
# Suite integration: the kernel axis of the pipeline
# --------------------------------------------------------------------- #
def _suite_spec(**overrides):
    from repro.pipeline.runner import SuiteSpec

    payload = dict(
        name="kernel-axis",
        scenarios=("torus",),
        sizes=(49,),
        methods=("strong-log3", "weak-rg20"),
        tasks=("decompose", "mis", "coloring"),
        validate=True,
    )
    payload.update(overrides)
    return SuiteSpec(**payload)


class TestSuiteKernelAxis:
    def test_spec_validates_kernel(self, tmp_path):
        store = tmp_path / "never.jsonl"
        with pytest.raises(ValueError, match="kernel must be one of"):
            repro.run_suite(_suite_spec(), store=str(store), kernel="simd")
        assert not store.exists()

    def test_spec_roundtrips_kernel(self):
        """The kernel is a run option: the spec round-trips without it, and
        a spec dictionary that carries one is refused, naming the flag."""
        from repro.pipeline.runner import SuiteSpec

        spec = _suite_spec()
        assert "kernel" not in spec.to_dict()
        assert SuiteSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="--kernel"):
            SuiteSpec.from_dict(dict(spec.to_dict(), kernel="pure"))

    def test_records_carry_resolved_kernel(self):
        result = repro.run_suite(_suite_spec(), kernel="pure")
        assert result.records
        for record in result.records:
            assert record["timings"]["kernel"] == "pure"
        # The rendered rows surface the tier next to the timings.
        assert all(row["kernel"] == "pure" for row in result.rows())

    def test_auto_records_resolved_name_not_alias(self):
        result = repro.run_suite(_suite_spec(), kernel="auto")
        recorded = {record["timings"]["kernel"] for record in result.records}
        assert recorded == {KERNELS.resolve("auto").name}
        assert "auto" not in recorded

    def test_tiers_produce_identical_records(self):
        from tests.conftest import strip_volatile

        via_pure = repro.run_suite(_suite_spec(), kernel="pure")
        via_numpy = repro.run_suite(_suite_spec(), kernel="numpy")
        for a, b in zip(via_pure.records, via_numpy.records):
            assert strip_volatile(a) == strip_volatile(b)

    def test_pool_workers_honour_kernel(self):
        spec = _suite_spec(seeds=(0, 1))
        result = repro.run_suite(spec, workers=2, kernel="numpy")
        assert result.records
        for record in result.records:
            assert record["timings"]["kernel"] == "numpy"

    def test_pre_kernel_records_still_resume(self):
        """A store written before the kernel axis landed resumes cleanly."""
        spec = _suite_spec(tasks=("decompose",))
        first = repro.run_suite(spec, kernel="pure")
        store = first.store
        # Simulate pre-kernel records: drop the timing entry in place.
        for record in store.results():
            record["timings"].pop("kernel")
        again = repro.run_suite(spec, store=store, kernel="pure")
        assert again.executed == 0
        assert again.skipped == len(first.records)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCLI:
    def test_list_kernels(self, capsys):
        from repro.cli import main

        assert main(["--list-kernels"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == list(KERNELS.names())

    def test_kernel_flag_is_validated(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--kernel", "simd"])

    def test_single_run_accepts_kernel(self, capsys):
        from repro.cli import main

        assert main(["--n", "36", "--kernel", "pure", "--skip-validation"]) == 0
        assert "network decomposition" in capsys.readouterr().out

    def test_suite_run_accepts_kernel(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "--mode",
                    "suite",
                    "--family",
                    "torus",
                    "--n",
                    "36",
                    "--kernel",
                    "pure",
                    "--tasks",
                    "mis",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kernel" in out
        assert "pure" in out


# --------------------------------------------------------------------- #
# Warnings
# --------------------------------------------------------------------- #
def test_pure_tier_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with use_kernel("pure"):
            assert active_kernel().name == "pure"
