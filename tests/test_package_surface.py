"""Tests for the package surface: exports, node context defaults, examples.

These guard the parts a downstream user touches first: the top-level
re-exports, the ``python -m repro`` entry point, the node-program context
defaults, and the runnable examples (imported and executed on scaled-down
inputs so a broken example fails CI rather than the reader).
"""

import ast
import importlib
import os
import runpy
import subprocess
import sys

import pytest

import repro
from repro.congest.algorithm import NodeContext


class TestPackageSurface:
    def test_top_level_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        for module_name in (
            "repro.core",
            "repro.graphs",
            "repro.congest",
            "repro.clustering",
            "repro.baselines",
            "repro.applications",
            "repro.analysis",
            "repro.pipeline",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), "{}.{}".format(module_name, name)

    def test_version_string(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1

    def test_main_module_runs_help(self):
        process = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == 0
        assert "repro-decompose" in process.stdout


    def test_import_loads_only_declared_dependencies(self):
        """Every third-party package ``import repro`` loads is in setup.py."""
        probe = (
            "import sys; before = set(sys.modules); import repro; "
            "print(*set(sys.modules) - before)"
        )
        process = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        third_party = {
            top
            for top in (name.partition(".")[0] for name in process.stdout.split())
            if top not in sys.stdlib_module_names
            and top != "repro"
            and not top.startswith("_")
        }

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(repo_root, "setup.py")) as handle:
            tree = ast.parse(handle.read())
        (declared,) = [
            ast.literal_eval(keyword.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for keyword in node.keywords
            if keyword.arg == "install_requires"
        ]
        assert third_party <= set(declared), sorted(third_party - set(declared))


class TestNodeContext:
    def test_defaults(self):
        context = NodeContext(node=3, uid=7, neighbors=(1, 2), n=10)
        assert context.extra == {}
        assert context.uid == 7
        assert tuple(context.neighbors) == (1, 2)

    def test_extra_is_per_instance(self):
        first = NodeContext(node=0, uid=0, neighbors=(), n=1)
        second = NodeContext(node=1, uid=1, neighbors=(), n=1)
        first.extra["flag"] = True
        assert "flag" not in second.extra


class TestExamplesRun:
    @pytest.mark.parametrize(
        "example",
        ["quickstart", "compare_algorithms", "congest_simulation"],
    )
    def test_example_scripts_execute(self, example, monkeypatch, capsys):
        # Run the example modules in-process (import machinery, not a shell)
        # so failures surface with proper tracebacks; compare_algorithms takes
        # an optional size argument which we shrink for test speed.
        import os

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = os.path.join(repo_root, "examples", "{}.py".format(example))
        monkeypatch.setattr(sys, "argv", ["example", "64"])
        runpy.run_path(script, run_name="__main__")
        output = capsys.readouterr().out
        assert output.strip()

    def test_download_roadnet_offline_full_runs_memmap(self, monkeypatch, capsys):
        """``--offline --full`` drives the out-of-core memmap pipeline on the
        committed fixture — no network, no networkx host for the workload."""
        import os

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = os.path.join(repo_root, "examples", "download_roadnet.py")
        monkeypatch.setattr(sys, "argv", ["example", "--offline", "--full"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(script, run_name="__main__")
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "fixture road network" in output
        assert "graph backend: memmap" in output
        assert "out-of-core" in output
