"""Flat-array (CSR) graph core for the hot ball-growing loops.

The paper's algorithms are dominated by repeated BFS/ball growing over the
host graph.  Walking :mod:`networkx`'s dict-of-dicts adjacency (worse: walking
it through layered ``subgraph`` filter views) costs several Python calls per
scanned edge.  :class:`CSRGraph` freezes a graph once into compressed sparse
row form — two int32 arrays ``indptr``/``indices`` plus a ``uids`` array and
node↔index maps — and implements the primitives the algorithms need as flat
loops over those arrays with ``bytearray`` visit masks:

* :meth:`CSRGraph.layers` — restricted BFS layers as index arrays, with an
  optional stop rule (the workhorse of the Theorem 2.1/3.2 carving loops);
* :meth:`CSRGraph.components` — restricted components as index arrays;
* :meth:`CSRGraph.bfs_layers`, :meth:`CSRGraph.ball`,
  :meth:`CSRGraph.connected_components` — the same walks by label;
* :meth:`CSRGraph.induced_degrees` — degrees inside an induced subgraph;
* :meth:`CSRGraph.subset_adjacency` — per-node neighbour lists restricted to
  a participating set (consumed by the CONGEST simulator);
* :func:`node_rank` — :attr:`CSRGraph.uid_rank` by label, the one node order
  behind every centre, root and tie-break chosen by identifier.

The carving algorithms resolve their node subsets to indices once
(:meth:`CSRGraph.indices_of`), walk and cut in index space, and turn the
result back into labels once, on return.

The traversal loops themselves (frontier expansion, BFS layering, the
per-source eccentricity sweeps) dispatch through the **kernel**
(:mod:`repro.kernels`), which vectorises them over zero-copy numpy views of
the :mod:`array` buffers.  The index is the only graph walk in ``src/``:
every input resolves to one (see :func:`csr_index`), and the tests check
its answers against networkx's own algorithms.

Construction is cached per *root* graph object in a
:class:`weakref.WeakKeyDictionary` keyed by the graph itself:
:func:`CSRGraph.from_networkx` transparently resolves node-induced
``G.subgraph(...)`` views to their root so the carving recursion, which
spawns fresh views per component, reuses one frozen index for the whole
run.  An edge-filtered view, whose hidden edges the root's rows cannot
express, gets an index of its own (see :func:`csr_index`).  Cache *hits* are
guarded by the node count only (an O(1) check; recomputing the edge count is
O(n) in networkx and the carving loops hit the cache once per recursion
piece).  The public entry points (:func:`repro.core.api.carve` /
``decompose``, the CONGEST simulator) additionally call
:func:`refresh_csr_cache` once per invocation, which compares the node
count, the edge count *and* an order-insensitive O(n + m) fingerprint of the
node labels, uid attributes and edge set — so in-place mutations between API
calls, including count-preserving rewires, node replacements and uid
reassignments, are picked up automatically.  Only code that drives the
primitives in :mod:`repro.graphs.properties` directly across an in-place
mutation needs to call :func:`invalidate_csr_cache` itself.
"""

from __future__ import annotations

import contextlib
import json
import numbers
import weakref
from array import array
from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import networkx as nx
import numpy as np
from networkx.classes.filters import no_filter

from repro.kernels import active_kernel


class CSRUnsupported(TypeError):
    """Raised for a directed graph, which has no CSR form, and for an index
    that cannot ride the arena (:meth:`CSRGraph.to_buffers`)."""


# Cache: root graph object -> (node_count, CSRGraph).  Weak keys so dropped
# graphs free their index; the O(1) node-count signature guards against the
# common in-place mutations (see the module docstring for the edge-only case).
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

# Edge-filtered subgraph views.  networkx flattens ``view.subgraph(nodes)``
# of such a view into a view of the same parent that keeps the same edge
# filter object, so one index — the parent's nodes with the edges the
# filter keeps — serves every view the carving recursion spawns from it:
# parent -> {edge filter -> (parent node count, CSRGraph)}.
_FILTERED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _node_induced(view: nx.Graph) -> bool:
    """True for a subgraph view that filters nodes only.

    ``G.subgraph(nodes)`` keeps networkx's pass-through ``no_filter`` as its
    edge filter; an edge-filtered view (``nx.edge_subgraph``, or
    ``subgraph_view`` with an edge filter) or any other graph view does not.
    """
    return getattr(getattr(view, "_adj", None), "EDGE_OK", None) is no_filter


def resolve_root(graph: nx.Graph) -> nx.Graph:
    """The graph whose CSR index serves ``graph``.

    Follows node-induced subgraph-view links down to the first graph that is
    not one: the root graph, or a view that hides edges.  The root's rows
    cannot express an edge restriction (an ``allowed`` node set can only
    express a node restriction), so such a view gets an index of its own
    adjacency instead, shared with every view that keeps its edge filter.
    """
    root = graph
    hops = 0
    while hasattr(root, "_graph") and _node_induced(root):
        root = root._graph
        hops += 1
        if hops > 64:  # pragma: no cover - defensive against exotic view cycles
            break
    return root


def _edge_filter(root: nx.Graph) -> Any:
    """The edge filter of an edge-filtered subgraph view, else ``None``."""
    if not hasattr(root, "_graph"):
        return None
    return getattr(getattr(root, "_adj", None), "EDGE_OK", None)


def _index_slot(root: nx.Graph) -> Tuple[Any, Any, nx.Graph]:
    """``(cache, key, base)`` locating the index of a :func:`resolve_root` result.

    ``base`` is the graph whose node count guards a cache hit: ``root``
    itself, or the parent of an edge-filtered view.
    """
    edge_ok = _edge_filter(root)
    if edge_ok is None:
        return _CACHE, root, root
    parent = root._graph
    slots = _FILTERED.get(parent)
    if slots is None:
        slots = weakref.WeakKeyDictionary()
        try:
            _FILTERED[parent] = slots
        except TypeError:  # pragma: no cover - unhashable graph subclass
            pass
    return slots, edge_ok, parent


def _indexed_graph(root: nx.Graph) -> nx.Graph:
    """The graph a :func:`resolve_root` result's index freezes.

    ``root`` itself, or for an edge-filtered view its parent seen through
    the same edge filter (all of the parent's nodes).
    """
    edge_ok = _edge_filter(root)
    if edge_ok is None:
        return root
    return nx.subgraph_view(root._graph, filter_edge=edge_ok)


def invalidate_csr_cache(graph: nx.Graph) -> None:
    """Drop the cached CSR index of ``graph`` (after an in-place mutation)."""
    slots, key, _ = _index_slot(resolve_root(graph))
    slots.pop(key, None)


def uid_order_key(uid: Any) -> Tuple[int, Any]:
    """Total order on identifiers, robust to mixed uid types.

    Integer uids — Python ints and every other non-``bool``
    :class:`numbers.Integral`, numpy integers included — order numerically
    before everything else; any other type orders by its string form.
    It is the first key of :attr:`CSRGraph.uid_rank`, the one node order
    (see :func:`node_rank`).
    """
    if type(uid) is int:  # the common case, kept off the ABC check
        return (0, uid)
    if isinstance(uid, numbers.Integral) and not isinstance(uid, bool):
        return (0, int(uid))
    return (1, str(uid))


def node_rank(graph: nx.Graph) -> Callable[[Any], int]:
    """The node order of every choice by identifier, as ``node -> int``.

    Reads :attr:`CSRGraph.uid_rank` through ``graph``'s index: uid first, by
    :func:`uid_order_key` (total even when uids and labels mix ``int`` and
    ``str``), then the label's string form, so nodes that share a uid order
    the same way under every hash seed.  Centres, roots, tie-breaks and
    processing orders follow it; a node-induced view shares its root's ranks.
    """
    csr = csr_index(graph)
    rank, index = csr.uid_rank, csr.index
    return lambda node: rank[index[node]]


def _graph_fingerprint_scalar(root: nx.Graph) -> int:
    """Reference implementation of the fingerprint: pure-Python XOR walk."""
    fingerprint = 0
    for node, data in root.nodes(data=True):
        fingerprint ^= hash((node, data.get("uid", node)))
    for u, v in root.edges():
        if u == v:
            # hash((u, v)) ^ hash((v, u)) would cancel to 0 for a loop,
            # making loop additions/removals invisible to the guard.
            fingerprint ^= hash(("self-loop", u))
        else:
            fingerprint ^= hash((u, v)) ^ hash((v, u))
    return fingerprint


# CPython's tuple hash (pyhash.c, 64-bit xxHash variant): replicated in
# uint64 numpy arithmetic so million-edge fingerprints don't pay a Python
# tuple allocation + hash call per edge.  Valid only where hash(x) == x,
# i.e. ints in [0, 2**61 - 1) — everything else falls back to the scalar
# walk.
_HASH_IDENTITY_LIMIT = (1 << 61) - 1
_UINT64_MASK = (1 << 64) - 1


def _tuple_hash_pairs(first, second):
    """Vectorized ``hash((a, b))`` for arrays of hash-identity ints."""
    import numpy as np

    one = np.uint64(11400714785074694791)  # _PyHASH_XXPRIME_1
    two = np.uint64(14029467366897019727)  # _PyHASH_XXPRIME_2
    five = np.uint64(2870177450012600261)  # _PyHASH_XXPRIME_5
    with np.errstate(over="ignore"):
        acc = np.full(first.shape, five, dtype=np.uint64)
        for lane in (first, second):
            acc += lane.astype(np.uint64) * two
            acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
            acc *= one
        acc += np.uint64(2) ^ (five ^ np.uint64(3527539))
    acc[acc == np.uint64(_UINT64_MASK)] = np.uint64(1546275796)
    return acc


def _graph_fingerprint_vectorized(root: nx.Graph) -> Optional[int]:
    """Numpy fast path for :func:`_graph_fingerprint`.

    Returns ``None`` (caller falls back to the scalar walk) when any
    label/uid is not a hash-identity int.
    """
    import numpy as np

    # The raw backing dicts: networkx's public views cost a wrapper call per
    # scanned neighbour, which is most of what this fast path removes.  Any
    # graph class without them takes the scalar walk.
    node_dict = getattr(root, "_node", None)
    adj_dict = getattr(root, "_adj", None)
    if node_dict is None or adj_dict is None:
        return None
    labels: List[int] = []
    uids: List[int] = []
    for node, data in node_dict.items():
        uid = data.get("uid", node)
        if type(node) is not int or type(uid) is not int:
            return None
        labels.append(node)
        uids.append(uid)
    total = 0
    if labels:
        try:
            label_arr = np.asarray(labels, dtype=np.int64)
            uid_arr = np.asarray(uids, dtype=np.int64)
        except OverflowError:
            return None
        if (
            int(label_arr.min()) < 0
            or int(label_arr.max()) >= _HASH_IDENTITY_LIMIT
            or int(uid_arr.min()) < 0
            or int(uid_arr.max()) >= _HASH_IDENTITY_LIMIT
        ):
            return None
        total ^= int(np.bitwise_xor.reduce(_tuple_hash_pairs(label_arr, uid_arr)))
    n = len(labels)
    degrees = np.fromiter(
        (len(nbrs) for nbrs in adj_dict.values()), dtype=np.int64, count=n
    )
    pair_count = int(degrees.sum()) if n else 0
    if pair_count:
        from itertools import chain

        # Flatten the adjacency dicts directly (``fromiter`` + ``np.repeat``,
        # no per-edge Python tuple): every non-loop edge appears as both
        # ``(u, v)`` and ``(v, u)``, which is exactly the symmetric XOR
        # term.  Endpoints are node labels, already validated above.
        u = np.repeat(np.fromiter(adj_dict.keys(), dtype=np.int64, count=n), degrees)
        v = np.fromiter(
            chain.from_iterable(adj_dict.values()), dtype=np.int64, count=pair_count
        )
        loops = u == v
        if loops.any():
            # A self-loop appears once per adjacency row; the scalar walk
            # hashes it once per edge.
            for node in u[loops]:
                total ^= hash(("self-loop", int(node))) & _UINT64_MASK
            keep = ~loops
            u, v = u[keep], v[keep]
        if len(u):
            total ^= int(np.bitwise_xor.reduce(_tuple_hash_pairs(u, v)))
    if total >= 1 << 63:  # reinterpret the uint64 accumulator as Py_hash_t
        total -= 1 << 64
    return total


def _graph_fingerprint(root: nx.Graph) -> int:
    """Order-insensitive fingerprint of the node set, uids, and edge set.

    XOR of per-node ``(label, uid)`` hashes and symmetric per-edge hashes:
    O(n + m), insensitive to iteration and endpoint order, and — unlike an
    ``(n, m)`` count — it changes under count-preserving rewires, node
    replacements, and in-place ``"uid"`` reassignments, all of which a
    frozen index must notice.

    Integer-labelled graphs (every generated scenario and every streamed
    ingest) take the vectorized path; the value is bit-identical to the
    scalar walk either way, so fingerprints recorded before this
    optimisation stay valid.
    """
    fast = _graph_fingerprint_vectorized(root)
    if fast is not None:
        return fast
    return _graph_fingerprint_scalar(root)


def csr_index(graph: nx.Graph, refresh: bool = False) -> "CSRGraph":
    """The single gate every CSR consumer goes through: ``graph``'s index.

    A root graph or a node-induced view resolves to the root's cached index
    (pair a view with its nodes as the allowed set; see
    :func:`csr_restriction`).  A graph with self-loops or parallel edges
    freezes as its simple graph — no distance, component or ball changes.
    An edge-filtered view gets an index of its own simple adjacency, built
    once per edge filter, so the views networkx derives from it (the
    carving recursion's pieces) share it.  A directed graph raises
    :class:`CSRUnsupported`.

    ``refresh=True`` first pays the O(n + m) staleness fingerprint — used by
    entry points that must never act on a mutated graph's stale index.
    """
    if refresh:
        refresh_csr_cache(graph)
    return CSRGraph.from_networkx(graph)


def csr_restriction(
    graph: nx.Graph, allowed: Optional[Iterable[Any]] = None, refresh: bool = False
) -> Tuple["CSRGraph", Optional[Iterable[Any]]]:
    """``graph``'s index plus the node set a walk of ``graph`` may visit.

    Returns ``(csr, effective)``.  ``effective`` is ``allowed`` itself for
    a graph that is not a view.  A view shares an index whose nodes may
    reach past it (its root's, or its edge filter's), so ``allowed`` is
    narrowed to the view's nodes (all of them when ``allowed`` is ``None``;
    the filter test is O(1) per node), which keeps a walk of the rows inside
    the view.
    """
    csr = csr_index(graph, refresh=refresh)
    if not hasattr(graph, "_graph"):
        return csr, allowed
    if allowed is None:
        return csr, set(graph.nodes())
    return csr, [node for node in allowed if node in graph]


def csr_members(graph: nx.Graph, nodes: Collection[Any]) -> Tuple["CSRGraph", np.ndarray]:
    """``graph``'s index and the indices of the labels ``nodes``, in their order.

    A label that is not a node of ``graph`` raises ``KeyError`` naming it:
    a carving sized from the indices must not count a label it never walks.
    """
    csr, allowed = csr_restriction(graph, nodes)
    members = csr.indices_of(allowed)
    if members.size != len(nodes):
        missing = next(node for node in nodes if node not in graph)
        raise KeyError("{!r} is not a node of the graph".format(missing))
    return csr, members


class InducedRows:
    """The subgraph induced by a node subset, as closed-neighbourhood rows.

    Local index ``i`` is the ``i``-th node of the subset in uid order (the
    :attr:`CSRGraph.uid_rank` convention), so comparing local indices
    compares uids; the weak-carving engine numbers several groups one
    after another instead, each in uid order.  Row ``i`` (``indices[indptr[i]:indptr[i + 1]]``) holds
    ``i`` itself followed by its induced neighbours; no row is empty, which
    keeps every ``reduceat`` over the rows well defined.

    Attributes:
        n: Number of nodes in the subset.
        glob: int64 array; local index → index of the whole graph.
        position: int64 array; ``position[j]`` is the local index of the
            ``j``-th node in the order the subset was given.
        indptr: int64 array of length ``n + 1``.
        indices: int32 array of local indices.
        nodes: Local index → node label (built on first use).
        uids: Local index → uid (built on first use).
    """

    __slots__ = ("n", "glob", "position", "indptr", "indices", "_csr", "_nodes", "_uids")

    def __init__(self, csr: "CSRGraph", glob, position, indptr, indices) -> None:
        self.n = len(glob)
        self.glob = glob
        self.position = position
        self.indptr = indptr
        self.indices = indices
        self._csr = csr
        self._nodes: Optional[List[Any]] = None
        self._uids: Optional[List[Any]] = None

    @property
    def nodes(self) -> List[Any]:
        if self._nodes is None:
            labels = self._csr.nodes
            self._nodes = [labels[i] for i in self.glob.tolist()]
        return self._nodes

    @property
    def uids(self) -> List[Any]:
        if self._uids is None:
            uids = self._csr.uids
            self._uids = [uids[i] for i in self.glob.tolist()]
        return self._uids


def induced_rows(csr: "CSRGraph", nodes: Collection[Any]) -> InducedRows:
    """The rows of the subgraph of ``csr``'s graph induced by the labels ``nodes``.

    A label that is not a node of the graph raises ``KeyError``.
    """
    index = csr.index
    return induced_index_rows(csr, np.fromiter((index[node] for node in nodes), dtype=np.int64))


def induced_index_rows(
    csr: "CSRGraph", given: np.ndarray, order: Optional[np.ndarray] = None
) -> InducedRows:
    """The rows of the subgraph of ``csr``'s graph induced by the indices ``given``.

    Local index ``i`` is ``given[order[i]]``; ``order`` defaults to uid
    order.  One pass over the subset's CSR rows, through an all ``-1`` int32 map
    from index to local index.  The map is borrowed from the index's spare
    pool and reset after use: a fresh n-sized map per call would cost Θ(n)
    for every small piece of a carving recursion, Θ(n²) over a run.
    """
    from repro.kernels.numpy_kernel import row_entries

    given = np.asarray(given, dtype=np.int64)
    count = given.size
    if order is None:
        order = np.argsort(csr.rank_array[given])
    glob = given[order]
    position = np.empty(count, dtype=np.int64)
    position[order] = np.arange(count)
    try:
        local_of = csr._local_maps.pop()
    except IndexError:  # every map is lent out, or none was made yet
        local_of = np.full(csr.n, -1, dtype=np.int32)
    local_of[glob] = np.arange(count, dtype=np.int32)

    flat, counts = row_entries(np.frombuffer(csr.indptr, dtype=np.int32), glob)
    neighbours = local_of[np.frombuffer(csr.indices, dtype=np.int32)[flat]]
    local_of[glob] = -1
    csr._local_maps.append(local_of)
    keep = neighbours >= 0
    kept = np.bincount(np.repeat(np.arange(count), counts)[keep], minlength=count)
    row_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(kept + 1, out=row_ptr[1:])
    row_indices = np.empty(int(row_ptr[-1]), dtype=np.int32)
    own = np.zeros(row_indices.size, dtype=bool)
    own[row_ptr[:-1]] = True
    row_indices[own] = np.arange(count, dtype=np.int32)
    row_indices[~own] = neighbours[keep]
    return InducedRows(csr, glob, position, row_ptr, row_indices)


def refresh_csr_cache(graph: nx.Graph) -> None:
    """Drop the cached index unless it still matches ``graph``.

    Compares node count, edge count *and* an O(n + m) node/uid/edge-set
    fingerprint, so count-preserving in-place rewires, node replacements and
    uid reassignments are caught too.  The fingerprint walk is not done on
    every cache hit (the carving recursion hits the cache once per piece);
    the public API entry points call this once per invocation, where
    O(n + m) is negligible against the algorithms' own cost.

    Exception: a ``frozen`` index keeps the count guards but skips the
    fingerprint.  Its host is a read-only
    :class:`~repro.graphs.memmap.CSRBackedGraph` facade (arena attach,
    ``.csrbin`` file), which has no mutators, or a graph the suite runner
    built and owns exclusively.
    """
    root = resolve_root(graph)
    slots, key, _ = _index_slot(root)
    entry = slots.get(key)
    if entry is None:
        return
    csr = entry[1]
    host = _indexed_graph(root)
    if csr.n != host.number_of_nodes() or csr.built_edges != host.number_of_edges():
        del slots[key]
        return
    if csr.frozen:
        # Skipping the O(n + m) fingerprint is what makes a shared column's
        # per-cell refresh O(1) instead of a full graph walk.
        return
    if csr.fingerprint != _graph_fingerprint(host):
        del slots[key]


class CSRGraph:
    """A frozen flat-array index of an undirected :class:`networkx.Graph`.

    Attributes:
        n: Number of nodes.
        m: Number of undirected edges.
        indptr: int32 array of length ``n + 1``; row ``i``'s neighbours live
            in ``indices[indptr[i]:indptr[i+1]]``.
        indices: int32 array of length ``2 m`` holding neighbour indices,
            sorted ascending within each row (deterministic iteration order).
        nodes: Node labels by index (index → label).
        index: Mapping label → index.
        uids: Per-index unique identifiers (``"uid"`` node attribute, falling
            back to the node label — mirroring every consumer in the repo).
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "nodes",
        "index",
        "uids",
        "built_edges",
        "fingerprint",
        "frozen",
        "_uid_rank",
        "_rank",
        "_neighbor_rows",
        "_scratch",
        "_scratch_busy",
        "_local_maps",
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Sequence[Any],
        uids: Sequence[Any],
        indptr: "array[int]",
        indices: "array[int]",
    ) -> None:
        self.nodes: List[Any] = list(nodes)
        self.n = len(self.nodes)
        self.index: Dict[Any, int] = {node: i for i, node in enumerate(self.nodes)}
        self.uids: List[Any] = list(uids)
        self.indptr = indptr
        self.indices = indices
        self.m = len(indices) // 2
        # networkx's own edge count and graph fingerprint, recorded at
        # freeze time for the staleness comparison of refresh_csr_cache (the
        # count exceeds self.m when the graph has self-loops or parallel
        # edges, which the simple rows leave out).
        self.built_edges = self.m
        self.fingerprint = 0
        # Indexes whose host cannot change (a read-only facade, or a graph
        # the suite runner owns) skip refresh_csr_cache's fingerprint.
        self.frozen = False
        self._uid_rank: Optional[List[int]] = None
        self._rank: Optional[np.ndarray] = None
        self._neighbor_rows: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._scratch = bytearray(b"\x01") * self.n
        self._scratch_busy = False
        # Spare all -1 int32 index -> local index maps for induced_rows.
        self._local_maps: List[Any] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networkx(cls, graph: nx.Graph, cache: bool = True) -> "CSRGraph":
        """Freeze ``graph``'s root (see :func:`resolve_root`) into CSR form.

        The result is cached on the root graph object (weakly, with an O(1)
        node-count mutation guard), so repeated calls during one algorithm
        run — e.g. once per carving recursion piece — cost a dict lookup.
        Self-loops and parallel edges freeze as the simple graph: each row
        holds every other neighbour once.
        """
        root = resolve_root(graph)
        if root.is_directed():
            raise CSRUnsupported("CSRGraph supports undirected graphs only")
        slots, key, base = _index_slot(root)
        signature = base.number_of_nodes()
        if cache:
            entry = slots.get(key)
            if entry is not None and entry[0] == signature:
                return entry[1]
        host = _indexed_graph(root)
        csr = cls._build(host)
        csr.built_edges = host.number_of_edges()
        csr.fingerprint = _graph_fingerprint(host)
        if cache:
            try:
                slots[key] = (signature, csr)
            except TypeError:  # pragma: no cover - unhashable graph or filter
                pass
        return csr

    @classmethod
    def _build(cls, root: nx.Graph) -> "CSRGraph":
        nodes = list(root.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        node_data = root.nodes
        uids = [node_data[node].get("uid", node) for node in nodes]
        indptr = array("i", [0])
        indices = array("i")
        adjacency = root.adj
        for node in nodes:
            row = sorted(index[neighbour] for neighbour in adjacency[node] if neighbour != node)
            indices.extend(row)
            indptr.append(len(indices))
        return cls(nodes, uids, indptr, indices)

    # ------------------------------------------------------------------ #
    # Flat-buffer (de)serialisation — the .csrbin file format
    # ------------------------------------------------------------------ #
    def to_buffers(self) -> Dict[str, bytes]:
        """Serialise the frozen index into three raw byte buffers.

        Returns ``{"indptr": ..., "indices": ..., "meta": ...}``: the two
        int32 adjacency arrays as native-endian bytes, plus a compact JSON
        label table (node labels, uids, the recorded networkx edge count).
        The buffers are the sections of a ``.csrbin`` file
        (:func:`repro.graphs.memmap.write_csr_file`), the form in which
        :class:`repro.pipeline.arena.CSRArena` hands a column to pool
        workers; they reattach it zero-copy with :meth:`from_buffers`.

        Labels and uids must survive a JSON round trip with their types
        intact, so only ``int`` and ``str`` are accepted (every generator in
        the scenario registry uses integer labels and uids).  The graph must
        also be simple: the facade a worker runs on over the buffers has no
        self-loops or parallel edges.  Anything else raises
        :class:`CSRUnsupported` and the caller falls back to per-worker
        rebuilds.
        """
        if self.built_edges != self.m:
            raise CSRUnsupported(
                "a graph with self-loops or parallel edges is not arena-serialisable"
            )
        for label in self.nodes:
            if not isinstance(label, (int, str)) or isinstance(label, bool):
                raise CSRUnsupported(
                    "node label {!r} is not arena-serialisable (int/str only)".format(label)
                )
        for uid in self.uids:
            if not isinstance(uid, (int, str)) or isinstance(uid, bool):
                raise CSRUnsupported(
                    "uid {!r} is not arena-serialisable (int/str only)".format(uid)
                )
        meta = {"nodes": self.nodes, "uids": self.uids, "built_edges": self.built_edges}
        indptr = self.indptr
        indices = self.indices
        return {
            "indptr": indptr.tobytes(),
            "indices": indices.tobytes(),
            "meta": json.dumps(meta, separators=(",", ":")).encode("utf-8"),
        }

    @classmethod
    def from_buffers(cls, indptr_buf: Any, indices_buf: Any, meta_buf: Any) -> "CSRGraph":
        """Reattach an index serialised by :meth:`to_buffers` — zero-copy.

        ``indptr_buf`` / ``indices_buf`` are wrapped as int32 memoryviews of
        the underlying buffer (no copy: handing in ``np.memmap`` views of a
        ``.csrbin`` file makes the adjacency arrays point straight into the
        page cache);
        only the O(n) label table is materialised as Python objects.  The
        result carries ``frozen=True`` so :func:`refresh_csr_cache` skips the
        O(n + m) staleness fingerprint for it.
        """
        meta = json.loads(bytes(meta_buf).decode("utf-8"))
        indptr = memoryview(indptr_buf).cast("i")
        indices = memoryview(indices_buf).cast("i")
        csr = cls(meta["nodes"], meta["uids"], indptr, indices)
        csr.built_edges = int(meta["built_edges"])
        csr.frozen = True
        return csr

    # ------------------------------------------------------------------ #
    # The restriction mask (index space)
    #
    # Restricted calls reuse one parked all-ones scratch buffer instead of
    # paying an O(n) bytearray memset per call: the carving recursion issues
    # one restricted BFS per component, and fresh masks would make a run
    # over Θ(n) small components cost Θ(n²).  Only the allowed entries are
    # cleared and later restored, each with one numpy scatter — everything
    # a walk marks visited lies inside them.  A busy flag falls back to a
    # fresh mask under reentrancy.
    # ------------------------------------------------------------------ #
    def indices_of(self, nodes: Iterable[Any]) -> np.ndarray:
        """The indices of the labels in ``nodes`` that are nodes of the
        graph, in the given order (int64); other labels are dropped."""
        get = self.index.get
        return np.fromiter((i for i in map(get, nodes) if i is not None), dtype=np.int64)

    def _allowed(self, allowed: Optional[Iterable[Any]]) -> Optional[np.ndarray]:
        return None if allowed is None else self.indices_of(allowed)

    @contextlib.contextmanager
    def _masked(self, allowed: Optional[np.ndarray]) -> Iterator[bytearray]:
        """A mask where 1 marks a *blocked or already visited* index.

        ``allowed`` is an index array: ``not mask[i]`` tests its membership
        until a walk marks ``i``.  ``allowed=None`` allows every node: a
        fresh zero mask.  The scratch is all ones again and free when the
        block exits, also by an exception.
        """
        if allowed is None:
            yield bytearray(self.n)
            return
        owned = not self._scratch_busy
        mask = self._scratch if owned else bytearray(b"\x01") * self.n
        view = np.frombuffer(mask, dtype=np.uint8)
        self._scratch_busy = True
        try:
            view[allowed] = 0
            yield mask
        finally:
            if owned:
                view[allowed] = 1
                self._scratch_busy = False

    # ------------------------------------------------------------------ #
    # Walks (index space)
    # ------------------------------------------------------------------ #
    def layers(
        self,
        sources: Any,
        allowed: Optional[np.ndarray] = None,
        max_radius: Optional[int] = None,
        stop: Optional[Callable[[List[np.ndarray]], bool]] = None,
    ) -> List[np.ndarray]:
        """BFS layers of indices from the indices ``sources`` inside ``allowed``.

        Layer 0 is ``sources ∩ allowed`` in the given order without
        repeats; then every non-empty layer, up to ``max_radius`` of them.
        ``stop``, when given, sees the layers after each new one and ends
        the walk by returning true.  Every layer is an int32 array; the
        traversal itself runs on the kernel (:mod:`repro.kernels`).
        """
        with self._masked(allowed) as blocked:
            view = np.frombuffer(blocked, dtype=np.uint8)
            frontier = np.asarray(sources, dtype=np.int32).ravel()
            frontier = frontier[view[frontier] == 0]
            if frontier.size > 1:
                _, first = np.unique(frontier, return_index=True)
                if first.size < frontier.size:
                    frontier = frontier[np.sort(first)]
            view[frontier] = 1
            return active_kernel().bfs_layers(
                self, frontier, blocked, max_radius=max_radius, stop=stop
            )

    def components(self, allowed: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """Connected components of the subgraph induced by the indices ``allowed``.

        Each component is an index array in BFS order from its least index,
        and components come in ascending order of that index, which makes
        the output deterministic for a given graph.
        """
        kernel = active_kernel()
        with self._masked(allowed) as blocked:
            starts = range(self.n) if allowed is None else np.sort(allowed).tolist()
            found: List[np.ndarray] = []
            for start in starts:
                if blocked[start]:
                    continue
                blocked[start] = 1
                layers = kernel.bfs_layers(self, [start], blocked)
                found.append(layers[0] if len(layers) == 1 else np.concatenate(layers))
            return found

    # ------------------------------------------------------------------ #
    # Primitives (label space in, label space out)
    # ------------------------------------------------------------------ #
    def neighbors(self, node: Any) -> Tuple[Any, ...]:
        """The neighbour labels of ``node``, sorted by index."""
        i = self.index[node]
        nodes = self.nodes
        return tuple(nodes[j] for j in self.indices[self.indptr[i] : self.indptr[i + 1]])

    def degree(self, node: Any) -> int:
        i = self.index[node]
        return self.indptr[i + 1] - self.indptr[i]

    def bfs_layers(
        self,
        sources: Iterable[Any],
        allowed: Optional[Iterable[Any]] = None,
        max_radius: Optional[int] = None,
    ) -> List[Set[Any]]:
        """BFS layers from ``sources`` restricted to ``allowed``.

        Layer 0 is ``sources ∩ allowed``; layer ``r`` holds the nodes at
        distance exactly ``r`` inside the induced subgraph.  Matches the
        contract of :func:`repro.graphs.properties.bfs_layers_within`.
        """
        nodes = self.nodes
        layers = self.layers(self.indices_of(sources), self._allowed(allowed), max_radius)
        return [{nodes[i] for i in layer.tolist()} for layer in layers]

    def ball(
        self,
        sources: Iterable[Any],
        radius: int,
        allowed: Optional[Iterable[Any]] = None,
    ) -> Set[Any]:
        """``B_radius(sources)`` inside the allowed set (sources included)."""
        if radius < 0:
            return set()
        nodes = self.nodes
        layers = self.layers(self.indices_of(sources), self._allowed(allowed), radius)
        return {nodes[i] for layer in layers for i in layer.tolist()}

    def distances(self, source: Any, allowed: Optional[Iterable[Any]] = None) -> Dict[Any, int]:
        """Single-source BFS distances restricted to ``allowed``."""
        nodes = self.nodes
        layers = self.layers(self.indices_of([source]), self._allowed(allowed))
        return {nodes[i]: depth for depth, layer in enumerate(layers) for i in layer.tolist()}

    @property
    def neighbor_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node neighbour-index tuples, lazily materialised.

        The BFS primitives slice ``indices[indptr[i]:indptr[i+1]]`` — fine
        when each row is visited once per traversal, but per-*node* loops
        that revisit rows across calls (the application task loops) pay a
        fresh array allocation per visit.  This caches the rows as plain
        tuples once (O(n + m), roughly doubling the index's memory — which
        is why it is lazy: only row-revisiting consumers pay it).
        """
        if self._neighbor_rows is None:
            indptr, indices = self.indptr, self.indices
            self._neighbor_rows = tuple(
                tuple(indices[indptr[i] : indptr[i + 1]]) for i in range(self.n)
            )
        return self._neighbor_rows

    @property
    def uid_rank(self) -> List[int]:
        """Per-index rank in the one node order, lazily built.

        ``uid_rank[i]`` is node ``i``'s position in the total order
        ``uid_order_key(uid) + (str(label),)``, ties left in index order;
        :func:`node_rank` reads it by label.  Sorting a subset of indices by
        this array is a plain int-key sort.  Computed once per index
        (O(n log n)) and reused for the graph's lifetime; the uid array is
        frozen with the index, so the rank can never go stale ahead of it.
        """
        if self._uid_rank is None:
            self._uid_rank = self.rank_array.tolist()
        return self._uid_rank

    @property
    def rank_array(self) -> np.ndarray:
        """:attr:`uid_rank` as an int64 array.

        Distinct non-``bool`` integer uids that fit in int64 rank by one
        stable ``argsort`` (the label string never breaks a tie there);
        any other uid set takes the tuple sort of :func:`uid_order_key`.
        """
        if self._rank is None:
            order = _integer_uid_order(self.uids)
            if order is None:
                uids, nodes = self.uids, self.nodes
                order = np.array(
                    sorted(range(self.n), key=lambda i: uid_order_key(uids[i]) + (str(nodes[i]),)),
                    dtype=np.int64,
                )
            rank = np.empty(self.n, dtype=np.int64)
            rank[order] = np.arange(self.n, dtype=np.int64)
            self._rank = rank
        return self._rank

    def induced_diameter(
        self, cluster: Iterable[Any], expected: Optional[int] = None
    ) -> int:
        """Diameter of the induced subgraph: one BFS per member.

        The validators' strong-diameter primitive, a per-source loop kept
        apart from the kernel's bit-parallel sweeps that it checks; metrics
        and tasks read :class:`~repro.clustering.geometry.ClusterGeometry`.

        Raises ``ValueError`` when the induced subgraph is disconnected, or
        when fewer than ``expected`` members are present in the graph
        (mirroring :func:`repro.graphs.properties.subgraph_diameter`).
        """
        message = "induced subgraph is disconnected; strong diameter undefined"
        index_get = self.index.get
        members = [i for i in map(index_get, cluster) if i is not None]
        if expected is not None and len(members) != expected:
            raise ValueError(message)
        if len(members) <= 1:
            return 0
        kernel = active_kernel()
        # Non-members stay blocked; members are re-opened before each BFS.
        seen = bytearray(b"\x01") * self.n
        diameter = 0
        for source in members:
            for i in members:
                seen[i] = 0
            seen[source] = 1
            depth, reached = kernel.multi_source_bfs(self, [source], seen)
            if reached != len(members):
                raise ValueError(message)
            diameter = max(diameter, depth)
        return diameter

    def induced_degrees(self, cluster: Iterable[Any]) -> Dict[Any, int]:
        """Degree of every cluster node inside the induced subgraph."""
        indptr, indices, nodes = self.indptr, self.indices, self.nodes
        members = self.indices_of(cluster)
        with self._masked(members) as outside:
            degrees: Dict[Any, int] = {}
            for i in members.tolist():
                count = 0
                for v in indices[indptr[i] : indptr[i + 1]]:
                    if not outside[v]:
                        count += 1
                degrees[nodes[i]] = count
            return degrees

    def connected_components(
        self, allowed: Optional[Iterable[Any]] = None
    ) -> List[Set[Any]]:
        """Connected components of the induced subgraph, as label sets
        (:meth:`components` by label)."""
        nodes = self.nodes
        return [
            {nodes[i] for i in component.tolist()}
            for component in self.components(self._allowed(allowed))
        ]

    def subset_adjacency(self, allowed: Iterable[Any]) -> Dict[Any, List[Any]]:
        """Per-node neighbour lists restricted to ``allowed``.

        This is the flat replacement for iterating
        ``graph.subgraph(allowed).neighbors(v)`` in tight loops (each such
        iteration pays several filter-closure calls per edge): one pass over
        the CSR rows yields plain Python lists of labels.
        """
        indptr, indices, nodes = self.indptr, self.indices, self.nodes
        members = self.indices_of(allowed)
        with self._masked(members) as outside:
            return {
                nodes[i]: [nodes[v] for v in indices[indptr[i] : indptr[i + 1]] if not outside[v]]
                for i in members.tolist()
            }


def _integer_uid_order(uids: Sequence[Any]) -> Optional[np.ndarray]:
    """Indices sorted by uid, when the uids are distinct non-``bool``
    integers that fit in int64; ``None`` otherwise."""
    kinds = set(map(type, uids))
    if not all(issubclass(kind, numbers.Integral) and not issubclass(kind, bool) for kind in kinds):
        return None
    try:
        values = np.array(uids if kinds <= {int} else [int(uid) for uid in uids], dtype=np.int64)
    except OverflowError:
        return None
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    if bool((ranked[1:] == ranked[:-1]).any()):
        return None
    return order
