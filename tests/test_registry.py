"""Unit tests for the registry type and the method/task registries (repro.registry)."""

import pytest

import repro
from repro.registry import (
    CARVING_METHODS,
    DECOMPOSITION_METHODS,
    METHODS,
    TASK_NAMES,
    TASKS,
    MethodSpec,
    Registry,
    TaskSpec,
    randomized,
    table_order,
)


class _Named:
    def __init__(self, name, ok=True):
        self.name = name
        self.ok = ok


def _refuse_not_ok(spec):
    if not spec.ok:
        raise ValueError("refused {!r}".format(spec.name))


class TestRegistry:
    def test_insertion_order_lookup_and_container_protocol(self):
        registry = Registry("widget")
        first, second = _Named("b"), _Named("a")
        assert registry.register(first) is first
        registry.register(second)
        assert registry.names() == ("b", "a")
        assert list(registry) == [first, second]
        assert len(registry) == 2
        assert "a" in registry and "c" not in registry
        assert registry.get("a") is second

    def test_unknown_name_lists_the_catalogue(self):
        registry = Registry("widget")
        registry.register(_Named("a"))
        with pytest.raises(ValueError, match=r"unknown widget 'z'; choose from \('a',\)"):
            registry.get("z")

    def test_duplicates_need_overwrite_which_keeps_the_position(self):
        registry = Registry("widget")
        registry.register(_Named("a"))
        registry.register(_Named("b"))
        with pytest.raises(ValueError, match="widget 'a' is already registered"):
            registry.register(_Named("a"))
        replacement = registry.register(_Named("a"), overwrite=True)
        assert registry.get("a") is replacement
        assert registry.names() == ("a", "b")

    def test_check_runs_before_registration(self):
        registry = Registry("widget", _refuse_not_ok)
        with pytest.raises(ValueError, match="refused 'bad'"):
            registry.register(_Named("bad", ok=False))
        assert "bad" not in registry
        with pytest.raises(ValueError, match="refused"):
            registry.register(_Named("bad", ok=False), overwrite=True)

    def test_one_registry_type_behind_every_catalogue(self):
        from repro.pipeline.scenarios import SCENARIOS

        for registry in (METHODS, TASKS, SCENARIOS):
            assert type(registry) is Registry


class TestMethods:
    def test_six_builtin_methods(self):
        assert METHODS.names() == (
            "strong-log3",
            "strong-log2",
            "weak-rg20",
            "ls93",
            "mpx",
            "sequential",
        )
        assert CARVING_METHODS == METHODS.names()
        assert DECOMPOSITION_METHODS == CARVING_METHODS

    def test_determinism_and_kind_semantics(self):
        assert randomized() == ("ls93", "mpx")
        for name in ("strong-log3", "strong-log2", "weak-rg20", "sequential"):
            assert METHODS.get(name).deterministic
            assert not METHODS.get(name).uses_seed
        assert METHODS.get("ls93").kind == "weak"
        assert METHODS.get("weak-rg20").kind == "weak"
        assert METHODS.get("mpx").kind == "strong"
        assert METHODS.get("strong-log3").kind == "strong"
        assert METHODS.get("sequential").centralized

    def test_table_order_is_the_papers_row_order(self):
        assert table_order() == (
            "ls93",
            "weak-rg20",
            "mpx",
            "strong-log3",
            "strong-log2",
            "sequential",
        )

    def test_unknown_method_rejected_with_catalogue(self):
        with pytest.raises(ValueError) as excinfo:
            METHODS.get("atlantis")
        assert "strong-log3" in str(excinfo.value)

    def test_method_kind_is_checked(self):
        import dataclasses

        with pytest.raises(ValueError, match="method kind"):
            METHODS.register(
                dataclasses.replace(METHODS.get("mpx"), name="mpx-x", kind="medium")
            )
        assert "mpx-x" not in METHODS

    def test_duplicate_registration_rejected(self):
        spec = METHODS.get("mpx")
        with pytest.raises(ValueError):
            METHODS.register(spec)
        # overwrite=True round-trips without changing the catalogue.
        METHODS.register(spec, overwrite=True)
        assert METHODS.get("mpx") is spec

    def test_registry_callables_drive_the_api(self, small_torus):
        # carve/decompose dispatch through the registered callables; the
        # registry's kind matches the produced clustering's kind.
        for spec in METHODS:
            decomposition = repro.decompose(small_torus, method=spec.name, seed=2)
            assert decomposition.kind == spec.kind, spec.name

    def test_no_hardcoded_method_tuples_outside_registry(self):
        # The acceptance criterion of the registry refactor: the six method
        # strings appear as a tuple only in repro/registry.py.
        import os
        import re

        src_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
        )
        tuple_pattern = re.compile(
            r"\(\s*['\"]strong-log3['\"]\s*,\s*['\"]strong-log2['\"]|"
            r"\(\s*['\"]ls93['\"]\s*,\s*['\"]mpx['\"]\s*\)"
        )
        offenders = []
        for dirpath, _, filenames in os.walk(src_root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                if os.path.relpath(path, src_root) == "registry.py":
                    continue
                with open(path, "r", encoding="utf-8") as handle:
                    if tuple_pattern.search(handle.read()):
                        offenders.append(os.path.relpath(path, src_root))
        assert not offenders, "hardcoded method tuples outside registry.py: {}".format(
            offenders
        )


class TestTasks:
    def test_builtin_tasks(self):
        assert TASKS.names() == ("decompose", "mis", "coloring")
        assert TASK_NAMES == TASKS.names()
        assert TASKS.get("decompose").solve is None
        for name in ("mis", "coloring"):
            spec = TASKS.get(name)
            assert spec.solve is not None
            assert spec.verify is not None
            assert spec.measure is not None

    def test_unknown_task_rejected_with_catalogue(self):
        with pytest.raises(ValueError) as excinfo:
            TASKS.get("leader-election")
        assert "coloring" in str(excinfo.value)

    def test_solvable_tasks_must_be_checkable(self):
        with pytest.raises(ValueError):
            TASKS.register(
                TaskSpec(name="unchecked", description="", solve=lambda d, l: None)
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            TASKS.register(TaskSpec(name="mis", description="again"))


class TestRunTask:
    def test_mis_task(self, small_torus):
        result = repro.run_task(small_torus, method="mpx", task="mis", seed=3)
        assert result.task == "mis"
        assert result.metrics["verified"] is True
        assert result.metrics["mis_size"] == len(result.solution)
        assert result.rounds > 0
        # The template cost is bounded by the C*D argument.
        from repro.clustering.validation import max_cluster_diameter

        diameter = max_cluster_diameter(
            small_torus, result.decomposition.clusters, kind=result.decomposition.kind
        )
        assert result.rounds <= result.decomposition.num_colors * (2 * diameter + 2)

    def test_coloring_task(self, small_grid):
        result = repro.run_task(small_grid, method="sequential", task="coloring")
        assert result.metrics["verified"] is True
        assert result.metrics["colors_used"] == max(result.solution.values()) + 1

    def test_decompose_task_is_the_default_noop(self, small_grid):
        result = repro.run_task(small_grid, method="sequential", task="decompose")
        assert result.solution is None
        assert result.rounds == 0
        assert result.metrics == {}
        assert result.decomposition is not None

    def test_decomposition_reuse_matches_fresh_run(self, small_torus):
        base = repro.run_task(small_torus, method="mpx", task="mis", seed=5)
        reused = repro.run_task(
            small_torus, method="mpx", task="mis", decomposition=base.decomposition
        )
        assert reused.solution == base.solution
        assert reused.rounds == base.rounds
        assert reused.metrics == base.metrics

    def test_task_rounds_charge_into_caller_ledger(self, small_grid):
        ledger = repro.RoundLedger()
        result = repro.run_task(
            small_grid, method="sequential", task="coloring", ledger=ledger
        )
        # Decomposition cost + task cost both land in the caller's ledger.
        assert ledger.total_rounds >= result.rounds
        assert ledger.total_rounds >= result.decomposition.rounds

    def test_unknown_task_rejected(self, small_grid):
        with pytest.raises(ValueError):
            repro.run_task(small_grid, task="frobnicate")

    def test_foreign_decomposition_rejected(self, small_grid, small_torus):
        decomposition = repro.decompose(small_grid, method="sequential")
        with pytest.raises(ValueError, match="different graph"):
            repro.run_task(small_torus, task="mis", decomposition=decomposition)

    def test_as_row_renders(self, small_grid):
        row = repro.run_task(small_grid, method="sequential", task="mis").as_row()
        assert row["task"] == "mis"
        assert "mis_size" in row and "task_rounds" in row
