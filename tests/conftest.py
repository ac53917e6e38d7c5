"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import multiprocessing
import random

import networkx as nx
import pytest

from repro.graphs.generators import (
    assign_unique_identifiers,
    binary_tree_graph,
    caterpillar_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)

# Dead-fraction slack used when validating the *randomized* baselines (their
# eps guarantee holds in expectation only; on the small graphs the unit tests
# use, individual runs routinely exceed it).
RANDOMIZED_DEAD_SLACK = 0.97

# Per-record keys that legitimately differ between identical suite runs.
# Every record-identity assertion strips exactly this set — extend it here
# (not inline) when a schema bump adds another volatile key.
VOLATILE_RECORD_KEYS = ("seconds", "timings")


def strip_volatile(record):
    """A suite result record without its wall-time fields, for equality."""
    return {k: v for k, v in record.items() if k not in VOLATILE_RECORD_KEYS}


@contextlib.contextmanager
def force_transport(mode):
    """Run the suites inside the block over one transport.

    ``mode`` is what ``result.arena["mode"]`` reports: ``"column"``
    (in-process, serial runs only), ``"arena"`` (column files the workers
    map, pool runs only) or ``"off"`` (every task group rebuilds its
    topology).
    Patches the runner's one transport choice, which the parent makes.
    """
    from repro.pipeline import runner

    chosen = runner._transport
    runner._transport = lambda workers: mode
    try:
        yield
    finally:
        runner._transport = chosen


@pytest.fixture
def start_method():
    """Set the default multiprocessing start method for one test.

    Call the fixture value with a method name (``start_method("spawn")``);
    suite pools use the default, and the previous one is restored after.
    """
    previous = multiprocessing.get_start_method(allow_none=True)
    yield lambda method: multiprocessing.set_start_method(method, force=True)
    multiprocessing.set_start_method(previous, force=True)


@pytest.fixture
def small_torus() -> nx.Graph:
    """An 8x8 torus: 64 nodes, degree 4, diameter 8."""
    return torus_graph(8, 8, seed=1)


@pytest.fixture
def small_grid() -> nx.Graph:
    """A 6x6 grid: 36 nodes with boundary effects."""
    return grid_graph(6, 6, seed=1)


@pytest.fixture
def small_cycle() -> nx.Graph:
    """A 40-node cycle: the high-diameter extreme."""
    return cycle_graph(40, seed=1)


@pytest.fixture
def small_path() -> nx.Graph:
    """A 25-node path."""
    return path_graph(25, seed=1)


@pytest.fixture
def small_tree() -> nx.Graph:
    """A complete binary tree of depth 5 (63 nodes)."""
    return binary_tree_graph(5, seed=1)


@pytest.fixture
def small_star() -> nx.Graph:
    """A 30-node star."""
    return star_graph(30, seed=1)


@pytest.fixture
def small_regular() -> nx.Graph:
    """A 60-node random 4-regular graph (expander-like)."""
    return random_regular_graph(60, 4, seed=3)


@pytest.fixture
def small_caterpillar() -> nx.Graph:
    """A caterpillar with a 12-node spine and 3 legs per spine node."""
    return caterpillar_graph(12, 3, seed=1)


@pytest.fixture
def graph_zoo(small_torus, small_cycle, small_tree, small_regular, small_caterpillar):
    """A small collection of structurally different graphs."""
    return {
        "torus": small_torus,
        "cycle": small_cycle,
        "tree": small_tree,
        "regular": small_regular,
        "caterpillar": small_caterpillar,
    }


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random source for the randomized baselines."""
    return random.Random(12345)


def make_disconnected_graph() -> nx.Graph:
    """Two separate components (a path and a cycle) under one graph object."""
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
    graph.add_edges_from([(10, 11), (11, 12), (12, 13), (13, 10)])
    graph.add_node(20)
    return assign_unique_identifiers(graph, seed=0)


@pytest.fixture
def disconnected_graph() -> nx.Graph:
    """A graph with three components, including an isolated node."""
    return make_disconnected_graph()
