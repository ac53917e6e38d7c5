"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import force_transport


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.family == "torus"
        assert args.method == "strong-log3"
        assert args.mode == "decomposition"
        assert args.n == 256

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--method", "bogus"])

    def test_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--family", "hyperbolic"])


class TestMain:
    def test_decomposition_run(self, capsys):
        exit_code = main(["--family", "grid", "--n", "36", "--method", "sequential"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "network decomposition" in output
        assert "colors" in output

    def test_carving_run(self, capsys):
        exit_code = main(
            ["--family", "cycle", "--n", "30", "--mode", "carving", "--method", "mpx", "--eps", "0.5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ball carving" in output

    def test_deterministic_strong_method(self, capsys):
        exit_code = main(["--family", "grid", "--n", "25", "--method", "strong-log3"])
        assert exit_code == 0
        assert "rounds" in capsys.readouterr().out

    def test_skip_validation_flag(self, capsys):
        exit_code = main(
            ["--family", "tree", "--n", "31", "--method", "sequential", "--skip-validation"]
        )
        assert exit_code == 0


class TestSuiteMode:
    def test_suite_from_flags(self, capsys):
        exit_code = main(
            ["--mode", "suite", "--family", "grid", "--n", "36", "--method", "sequential"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "suite 'cli-grid'" in output
        assert "executed 1 cell(s), 0 store hit(s)" in output

    def test_suite_from_spec_file_with_store_resume(self, tmp_path, capsys):
        import json
        import os

        spec_path = os.path.join(tmp_path, "spec.json")
        store_path = os.path.join(tmp_path, "store.jsonl")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "name": "cli-spec",
                    "scenarios": ["torus", "cycle"],
                    "sizes": [36],
                    "methods": ["sequential", "mpx"],
                    "mode": "carving",
                    "eps": [0.5],
                },
                handle,
            )
        argv = ["--mode", "suite", "--spec", spec_path, "--store", store_path]
        assert main(argv) == 0
        assert "executed 4 cell(s), 0 store hit(s)" in capsys.readouterr().out
        # Second invocation resumes entirely from the store.
        assert main(argv) == 0
        assert "executed 0 cell(s), 4 store hit(s)" in capsys.readouterr().out

    def test_suite_summary_reports_the_transport(self, capsys):
        base = [
            "--mode", "suite", "--family", "torus", "--n", "36",
            "--method", "sequential",
        ]
        assert main(base + ["--arena-mb", "8"]) == 0
        assert "1 column(s) / 1 build(s) [column]" in capsys.readouterr().out
        with force_transport("off"):
            assert main(base) == 0
        assert "column(s)" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shard", "3/2"], "shard index"),
            (["--faults", "hang:0.5"], "cell_timeout"),
            (["--max-retries", "-1"], "max_retries"),
            (["--cell-timeout", "0"], "cell_timeout"),
        ],
        ids=["shard", "hang-no-timeout", "retries", "timeout"],
    )
    def test_invalid_suite_option_is_a_one_line_usage_error(
        self, tmp_path, capsys, flags, message
    ):
        store = tmp_path / "never.jsonl"
        argv = ["--mode", "suite", "--n", "36", "--store", str(store)] + flags
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not store.exists()

    def test_suite_mode_carving_from_flags(self, capsys):
        exit_code = main(
            [
                "--mode", "suite", "--suite-mode", "carving",
                "--family", "torus", "--n", "64",
                "--method", "sequential", "--eps", "0.25",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "carving" in output
        assert "0.25" in output

    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("torus", "small-world", "expander-mix", "power-law", "weighted"):
            assert name in output

    def test_list_tasks(self, capsys):
        assert main(["--list-tasks"]) == 0
        output = capsys.readouterr().out
        for name in ("decompose", "mis", "coloring"):
            assert name in output

    def test_single_run_task(self, capsys):
        exit_code = main(
            ["--family", "torus", "--n", "36", "--method", "sequential", "--task", "mis"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "task mis" in output and "mis_size" in output

    def test_suite_tasks_axis_from_flags(self, capsys):
        exit_code = main(
            [
                "--mode", "suite", "--family", "torus", "--n", "36",
                "--method", "sequential", "--tasks", "mis,coloring",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mis" in output and "coloring" in output
        assert "colors_used" in output and "mis_size" in output
        assert "2 cells" in output

    def test_suite_rejects_unknown_task(self, capsys):
        with pytest.raises(ValueError, match="unknown task"):
            main(
                [
                    "--mode", "suite", "--family", "torus", "--n", "36",
                    "--method", "sequential", "--tasks", "frobnicate",
                ]
            )

    def test_suite_into_sqlite_store_by_extension(self, tmp_path, capsys):
        import os

        store_path = os.path.join(tmp_path, "suite.sqlite")
        argv = [
            "--mode", "suite", "--family", "torus", "--n", "36",
            "--method", "sequential", "--store", store_path,
        ]
        assert main(argv) == 0
        assert "executed 1 cell(s)" in capsys.readouterr().out
        # Resumes from the SQLite store on the second invocation.
        assert main(argv) == 0
        assert "1 store hit(s)" in capsys.readouterr().out

    def test_store_backend_flag_forces_backend(self, tmp_path, capsys):
        import os
        import sqlite3

        store_path = os.path.join(tmp_path, "suite.data")
        assert main(
            [
                "--mode", "suite", "--family", "torus", "--n", "36",
                "--method", "sequential", "--store", store_path,
                "--store-backend", "sqlite",
            ]
        ) == 0
        count = sqlite3.connect(store_path).execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]
        assert count == 1


class TestStoreVerbs:
    def _make_store(self, tmp_path, filename):
        import os

        store_path = os.path.join(tmp_path, filename)
        assert main(
            [
                "--mode", "suite", "--family", "torus", "--n", "36",
                "--method", "sequential", "--store", store_path,
            ]
        ) == 0
        return store_path

    def test_store_migrate_and_export_roundtrip(self, tmp_path, capsys):
        import os

        jsonl_path = self._make_store(tmp_path, "run.jsonl")
        sqlite_path = os.path.join(tmp_path, "run.sqlite")
        export_path = os.path.join(tmp_path, "export.jsonl")
        capsys.readouterr()

        assert main(["store", "migrate", jsonl_path, sqlite_path]) == 0
        assert "migrated 1 record(s)" in capsys.readouterr().out
        assert main(["store", "export", sqlite_path, export_path]) == 0
        assert "exported 1 record(s)" in capsys.readouterr().out
        with open(jsonl_path, "rb") as handle:
            original = handle.read()
        with open(export_path, "rb") as handle:
            assert handle.read() == original

    def test_store_info(self, tmp_path, capsys):
        jsonl_path = self._make_store(tmp_path, "run.jsonl")
        capsys.readouterr()
        assert main(["store", "info", jsonl_path]) == 0
        output = capsys.readouterr().out
        assert "backend=jsonl" in output and "cells=1" in output

    def test_store_requires_a_verb(self, capsys):
        with pytest.raises(SystemExit):
            main(["store"])
