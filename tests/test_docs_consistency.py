"""Docs ↔ code consistency checks.

The README and the docs/ tree document the public surface (method strings,
CLI flags, file layout).  These tests pin the documentation to the code so
the two cannot drift apart:

* the README "Methods" table must list exactly ``CARVING_METHODS``;
* every ``--flag`` mentioned in README.md / docs/*.md must exist on the CLI
  parser built by ``build_parser()``;
* every relative Markdown link in README.md / docs/*.md must resolve to a
  file in the repository (this doubles as the CI docs link check).
"""

import os
import re

import pytest

from repro.cli import build_parser
from repro.congest.faults import FAULT_KIND_NAMES
from repro.core.api import CARVING_METHODS
from repro.kernels import Kernel
from repro.registry import TASKS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _doc_paths():
    paths = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".md"):
            paths.append(os.path.join(docs_dir, name))
    return paths


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class TestMethodTable:
    def test_readme_method_table_matches_carving_methods(self):
        readme = _read(os.path.join(REPO_ROOT, "README.md"))
        # Rows of the "## Methods" table: "| `method` | description |".
        # Method strings start alphanumeric — rows quoting CLI flags
        # (| `--shared-graphs` | ...) are a different table.
        documented = re.findall(
            r"^\|\s*`([a-z0-9][a-z0-9-]*)`\s*\|", readme, flags=re.MULTILINE
        )
        assert documented, "README has no method table rows"
        assert sorted(documented) == sorted(set(documented)), "duplicate method rows"
        assert set(documented) == set(CARVING_METHODS), (
            "README method table ({}) out of sync with CARVING_METHODS ({})".format(
                sorted(documented), sorted(CARVING_METHODS)
            )
        )


class TestTaskTable:
    def test_applications_doc_task_table_matches_registry(self):
        applications = _read(os.path.join(REPO_ROOT, "docs", "applications.md"))
        documented = re.findall(
            r"^\|\s*`([a-z][a-z0-9-]*)`\s*\|", applications, flags=re.MULTILINE
        )
        assert documented, "docs/applications.md has no task table rows"
        assert set(documented) == set(TASKS.names()), (
            "docs/applications.md task table ({}) out of sync with the task "
            "registry ({})".format(sorted(documented), sorted(TASKS.names()))
        )


class TestKernelTable:
    def test_kernels_doc_primitive_table_matches_the_kernel(self):
        kernels = _read(os.path.join(REPO_ROOT, "docs", "kernels.md"))
        documented = re.findall(
            r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|", kernels, flags=re.MULTILINE
        )
        primitives = [
            name
            for name, value in vars(Kernel).items()
            if callable(value) and not name.startswith("_")
        ]
        assert documented, "docs/kernels.md has no primitive table rows"
        assert documented == primitives, (
            "docs/kernels.md primitive table ({}) out of sync with the "
            "Kernel interface ({})".format(documented, primitives)
        )


class TestFaultKindTable:
    def test_robustness_doc_fault_table_matches_registry(self):
        robustness = _read(os.path.join(REPO_ROOT, "docs", "robustness.md"))
        documented = re.findall(
            r"^\|\s*`([a-z][a-z0-9-]*)`\s*\|", robustness, flags=re.MULTILINE
        )
        assert documented, "docs/robustness.md has no fault-kind table rows"
        assert set(documented) == set(FAULT_KIND_NAMES), (
            "docs/robustness.md fault-kind table ({}) out of sync with the "
            "fault registry ({})".format(sorted(documented), sorted(FAULT_KIND_NAMES))
        )


def _section(text, header):
    """The body of one ``## header`` section (up to the next ``## ``)."""
    marker = "## " + header
    start = text.index(marker) + len(marker)
    end = text.find("\n## ", start)
    return text[start:] if end == -1 else text[start:end]


class TestTelemetryTables:
    def test_span_table_matches_registry(self):
        from repro.telemetry import SPAN_NAMES

        doc = _read(os.path.join(REPO_ROOT, "docs", "telemetry.md"))
        documented = re.findall(
            r"^\|\s*`([a-z][a-z._]*)`\s*\|",
            _section(doc, "Span taxonomy"),
            flags=re.MULTILINE,
        )
        assert documented, "docs/telemetry.md has no span table rows"
        assert sorted(documented) == sorted(set(documented)), "duplicate span rows"
        assert set(documented) == set(SPAN_NAMES), (
            "docs/telemetry.md span table ({}) out of sync with SPAN_NAMES "
            "({})".format(sorted(documented), sorted(SPAN_NAMES))
        )

    def test_metric_table_matches_registry(self):
        from repro.telemetry import METRIC_NAMES

        doc = _read(os.path.join(REPO_ROOT, "docs", "telemetry.md"))
        documented = re.findall(
            r"^\|\s*`([a-z][a-z_]*(?:\[[a-z]+\])?)`\s*\|",
            _section(doc, "Metric registry"),
            flags=re.MULTILINE,
        )
        assert documented, "docs/telemetry.md has no metric table rows"
        assert sorted(documented) == sorted(set(documented)), "duplicate metric rows"
        assert set(documented) == set(METRIC_NAMES), (
            "docs/telemetry.md metric table ({}) out of sync with "
            "METRIC_NAMES ({})".format(sorted(documented), sorted(METRIC_NAMES))
        )

    def test_telemetry_cli_flags_exist(self):
        parser_flags = set()
        for action in build_parser()._actions:
            parser_flags.update(action.option_strings)
        for flag in ("--trace", "--metrics", "--progress"):
            assert flag in parser_flags


class TestCliFlags:
    def test_every_documented_flag_exists_on_the_parser(self):
        # Docs reference the whole CLI surface: the suite parser plus the
        # store / trace / telemetry verb parsers.
        from repro.cli import (
            build_store_parser,
            build_telemetry_parser,
            build_trace_parser,
        )

        parser_flags = set()
        # Walk verb subparsers too (trace slowest --top, store export ...).
        for builder in (
            build_parser,
            build_store_parser,
            build_trace_parser,
            build_telemetry_parser,
        ):
            stack = [builder()]
            while stack:
                parser = stack.pop()
                for action in parser._actions:
                    parser_flags.update(action.option_strings)
                    choices = getattr(action, "choices", None)
                    if isinstance(choices, dict):
                        stack.extend(
                            sub
                            for sub in choices.values()
                            if hasattr(sub, "_actions")
                        )

        flag_pattern = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]+)")
        for path in _doc_paths():
            for flag in flag_pattern.findall(_read(path)):
                assert flag in parser_flags, (
                    "{} documents {!r}, which build_parser() does not define".format(
                        os.path.relpath(path, REPO_ROOT), flag
                    )
                )

    def test_suite_mode_is_documented_and_real(self):
        # The pipeline docs must describe the CLI surface they ship with.
        pipeline_md = _read(os.path.join(REPO_ROOT, "docs", "pipeline.md"))
        for flag in ("--mode suite", "--spec", "--store", "--workers"):
            assert flag in pipeline_md
        args = build_parser().parse_args(["--mode", "suite"])
        assert args.mode == "suite"


class TestLinks:
    def test_relative_markdown_links_resolve(self):
        link_pattern = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
        for path in _doc_paths():
            base = os.path.dirname(path)
            for target in link_pattern.findall(_read(path)):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = os.path.normpath(os.path.join(base, target.split("#")[0]))
                assert os.path.exists(resolved), (
                    "{} links to missing file {}".format(
                        os.path.relpath(path, REPO_ROOT), target
                    )
                )

    def test_docs_tree_exists(self):
        for name in (
            "architecture.md",
            "kernels.md",
            "out_of_core.md",
            "pipeline.md",
            "robustness.md",
        ):
            assert os.path.exists(os.path.join(REPO_ROOT, "docs", name))
