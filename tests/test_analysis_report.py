"""Unit tests for the experiment report generator and the CLI report flag."""

import os

import pytest

from repro.analysis.report import (
    _ARCHIVE_SECTIONS,
    collect_archived_tables,
    generate_report,
    quick_summary,
)
from repro.cli import main


class TestQuickSummary:
    def test_contains_every_method(self):
        import repro

        summary = quick_summary(n=64)
        for method in repro.DECOMPOSITION_METHODS:
            assert method in summary

    def test_is_a_rendered_table(self):
        summary = quick_summary(n=64)
        assert "colors" in summary
        assert "|" in summary


class TestArchivedTables:
    def test_missing_directory_gives_empty_list(self, tmp_path):
        assert collect_archived_tables(str(tmp_path)) == []

    def test_nonexistent_directory_gives_empty_list(self, tmp_path):
        """A checkout that never ran the bench harness has no results dir;
        collection must tolerate that instead of raising."""
        assert collect_archived_tables(os.path.join(tmp_path, "no", "such", "dir")) == []
        assert collect_archived_tables("") == []

    def test_results_dir_that_is_a_file_gives_empty_list(self, tmp_path):
        path = os.path.join(tmp_path, "results")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not a directory\n")
        assert collect_archived_tables(path) == []

    def test_existing_tables_are_collected_in_order(self, tmp_path):
        for stem in ("table1_torus", "barrier_properties"):
            with open(os.path.join(tmp_path, stem + ".txt"), "w", encoding="utf-8") as handle:
                handle.write("header\n----\nrow {}\n".format(stem))
        sections = collect_archived_tables(str(tmp_path))
        assert [section["title"] for section in sections] == [
            "Table 1 (torus workload)",
            "Section 3 barrier graph",
        ]
        assert "row table1_torus" in sections[0]["table"]

    def test_every_section_names_an_archived_table(self):
        """``--report`` skips a section whose file is absent without a word,
        so a stem no benchmark writes would drop its table silently."""
        results = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "results")
        missing = [
            stem
            for stem, _ in _ARCHIVE_SECTIONS
            if not os.path.isfile(os.path.join(results, stem + ".txt"))
        ]
        assert missing == []


class TestGenerateReport:
    def test_report_without_archives(self, tmp_path):
        report = generate_report(results_dir=str(tmp_path), live_summary_n=64)
        assert report.startswith("# Reproduction report")
        assert "No archived benchmark tables" in report

    def test_report_with_missing_results_dir_emits_placeholder(self, tmp_path):
        report = generate_report(
            results_dir=os.path.join(tmp_path, "never", "created"),
            include_live_summary=False,
        )
        assert "No archived benchmark tables" in report

    def test_report_with_archives_and_no_live_summary(self, tmp_path):
        with open(os.path.join(tmp_path, "table1_torus.txt"), "w", encoding="utf-8") as handle:
            handle.write("the table body\n")
        report = generate_report(
            results_dir=str(tmp_path), include_live_summary=False
        )
        assert "Live summary" not in report
        assert "the table body" in report

    def test_report_live_summary_included(self, tmp_path):
        report = generate_report(results_dir=str(tmp_path), live_summary_n=64)
        assert "Live summary" in report
        assert "strong-log3" in report

    def test_report_embeds_suite_run_stores(self, tmp_path):
        import repro
        from repro.pipeline import SuiteSpec

        store_path = os.path.join(tmp_path, "suite.jsonl")
        repro.run_suite(
            SuiteSpec(
                name="report-suite",
                scenarios=("torus",),
                sizes=(36,),
                methods=("sequential",),
            ),
            store=store_path,
        )
        report = generate_report(
            results_dir=str(tmp_path),
            include_live_summary=False,
            store_paths=[store_path],
        )
        assert "Suite runs" in report
        assert "report-suite" in report
        assert "sequential" in report


class TestCliIntegration:
    def test_cli_report_flag(self, tmp_path, capsys):
        target = os.path.join(tmp_path, "report.md")
        exit_code = main(["--report", target, "--n", "64"])
        assert exit_code == 0
        assert os.path.exists(target)
        with open(target, "r", encoding="utf-8") as handle:
            assert "# Reproduction report" in handle.read()

    def test_cli_save_flag(self, tmp_path, capsys):
        target = os.path.join(tmp_path, "clustering.json")
        exit_code = main(
            ["--family", "grid", "--n", "25", "--method", "sequential", "--save", target]
        )
        assert exit_code == 0
        assert os.path.exists(target)
