"""Flat-array (CSR) graph core for the hot ball-growing loops.

The paper's algorithms are dominated by repeated BFS/ball growing over the
host graph.  Walking :mod:`networkx`'s dict-of-dicts adjacency (worse: walking
it through layered ``subgraph`` filter views) costs several Python calls per
scanned edge.  :class:`CSRGraph` freezes a graph once into compressed sparse
row form — two int32 arrays ``indptr``/``indices`` plus a ``uids`` array and
node↔index maps — and implements the primitives the algorithms need as flat
loops over those arrays with ``bytearray`` visit masks:

* :meth:`CSRGraph.bfs_layers` — restricted BFS layers (the workhorse of the
  Theorem 2.1/3.2 carving loops);
* :meth:`CSRGraph.ball` — ``B_r(S)`` inside an allowed set;
* :meth:`CSRGraph.boundary` — the outside neighbourhood of a cluster;
* :meth:`CSRGraph.induced_degrees` — degrees inside an induced subgraph;
* :meth:`CSRGraph.connected_components` — restricted components;
* :meth:`CSRGraph.subset_adjacency` — per-node neighbour lists restricted to
  a participating set (consumed by the weak-carving phase loop and the
  CONGEST simulator).

The traversal loops themselves (frontier expansion, BFS layering, the
per-source eccentricity sweeps) dispatch through the ambient **kernel**
(:mod:`repro.kernels`): the ``pure`` tier runs the seed flat loops over the
:mod:`array` buffers with no dependency beyond the standard library, the
``numpy`` tier vectorises the same steps over zero-copy views of the same
buffers.  Every tier produces identical results; the index stays
value-identical to the networkx walk, so the ``"nx"`` backend (see
:mod:`repro.graphs.backend`) remains a drop-in differential-testing oracle.

Construction is cached per *root* graph object in a
:class:`weakref.WeakKeyDictionary` keyed by the graph itself:
:func:`CSRGraph.from_networkx` transparently resolves ``G.subgraph(...)``
views to their root so the carving recursion, which spawns fresh views per
component, reuses one frozen index for the whole run.  Cache *hits* are
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

import json
import weakref
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.kernels import active_kernel


class CSRUnsupported(TypeError):
    """Raised when a graph cannot be frozen into CSR form (directed/multi)."""


# Cache: root graph object -> (node_count, CSRGraph).  Weak keys so dropped
# graphs free their index; the O(1) node-count signature guards against the
# common in-place mutations (see the module docstring for the edge-only case).
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def resolve_root(graph: nx.Graph) -> nx.Graph:
    """Follow ``subgraph``-view links to the underlying root graph."""
    root = graph
    hops = 0
    while hasattr(root, "_graph"):
        root = root._graph
        hops += 1
        if hops > 64:  # pragma: no cover - defensive against exotic view cycles
            break
    return root


def has_plain_adjacency(graph: nx.Graph) -> bool:
    """True for root graphs and purely node-induced subgraph views.

    Edge-filtered views (``nx.edge_subgraph``, or ``subgraph_view`` with an
    edge filter) hide edges that the root's CSR rows still contain, so the
    flat index must never be used to walk them — an ``allowed`` node set
    cannot express an edge restriction.  Node-induced views are recognised
    by their pass-through edge filter.
    """
    if not hasattr(graph, "_graph"):
        return True
    edge_ok = getattr(getattr(graph, "_adj", None), "EDGE_OK", None)
    if edge_ok is None:
        return False
    try:
        from networkx.classes.filters import no_filter
    except ImportError:  # pragma: no cover - very old networkx layouts
        return False
    return edge_ok is no_filter


def invalidate_csr_cache(graph: nx.Graph) -> None:
    """Drop the cached CSR index of ``graph`` (after an in-place mutation)."""
    _CACHE.pop(resolve_root(graph), None)


def uid_order_key(uid: Any) -> Tuple[int, Any]:
    """Total order on identifiers, robust to mixed uid types.

    Integer uids order numerically before everything else; any other type
    orders by its string form.  Shared by every consumer that sorts by uid
    (CONGEST neighbour lists, cluster-centre selection) so the ordering rule
    cannot drift between layers.
    """
    if isinstance(uid, int) and not isinstance(uid, bool):
        return (0, uid)
    return (1, str(uid))


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


def csr_index_or_none(
    graph: nx.Graph,
    refresh: bool = False,
    views: str = "resolve",
    respect_backend: bool = True,
) -> Optional["CSRGraph"]:
    """The single gate every CSR consumer goes through.

    Returns the (cached) index of ``graph``'s root, or ``None`` when the
    flat arrays must not be used:

    * the ``"nx"`` backend is active (unless ``respect_backend=False`` —
      the CONGEST simulator freezes regardless of the algorithm backend);
    * ``graph`` is an edge-filtered view (its hidden edges cannot be
      expressed as a node restriction), or any view at all when
      ``views="reject"`` (for consumers whose output must cover exactly the
      view's nodes, like the simulator's neighbour tables);
    * the graph cannot be CSR-frozen (directed / multigraph / self-loops).

    ``refresh=True`` first pays the O(n + m) staleness fingerprint — used by
    entry points that must never act on a mutated graph's stale index.
    Centralising this policy keeps every call site's eligibility rule in
    sync; do not re-implement the gate inline.
    """
    if respect_backend:
        from repro.graphs.backend import get_backend

        if get_backend() != "csr":
            return None
    if views == "reject" and hasattr(graph, "_graph"):
        return None
    if not has_plain_adjacency(graph):
        return None
    if refresh:
        refresh_csr_cache(graph)
    try:
        return CSRGraph.from_networkx(graph)
    except CSRUnsupported:
        return None


def refresh_csr_cache(graph: nx.Graph) -> None:
    """Drop the cached index unless it still matches ``graph``.

    Compares node count, edge count *and* an O(n + m) node/uid/edge-set
    fingerprint, so count-preserving in-place rewires, node replacements and
    uid reassignments are caught too.  The fingerprint walk is not done on
    every cache hit (the carving recursion hits the cache once per piece);
    the public API entry points call this once per invocation, where
    O(n + m) is negligible against the algorithms' own cost.

    Exception: a ``frozen`` index (arena reattach via
    :meth:`CSRGraph.from_buffers` → :meth:`CSRGraph.to_networkx`) keeps the
    count guards but skips the fingerprint — its host graph is owned by the
    suite worker and treated as immutable; see the contract on
    :meth:`CSRGraph.to_networkx`.
    """
    root = resolve_root(graph)
    entry = _CACHE.get(root)
    if entry is None:
        return
    csr = entry[1]
    if csr.n != root.number_of_nodes() or csr.built_edges != root.number_of_edges():
        del _CACHE[root]
        return
    if csr.frozen:
        # Arena-reattached indexes (CSRGraph.from_buffers → to_networkx) are
        # treated as immutable: skipping the O(n + m) fingerprint here is
        # what makes a shared column's per-cell refresh O(1) instead of a
        # full graph walk.  The count guards above still apply; a caller
        # that rewires such a host graph count-preservingly must call
        # invalidate_csr_cache first (see CSRGraph.to_networkx).
        return
    if csr.fingerprint != _graph_fingerprint(root):
        del _CACHE[root]


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
        "_neighbor_rows",
        "_ones_scratch",
        "_zeros_scratch",
        "_ones_busy",
        "_zeros_busy",
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
        # count can differ from self.m in the presence of self-loops, which
        # CSR rows store once).
        self.built_edges = self.m
        self.fingerprint = 0
        # Arena graphs (CSRGraph.from_buffers) are immutable by construction:
        # their host graph is rebuilt from the frozen arrays, so the O(n + m)
        # staleness fingerprint of refresh_csr_cache can be skipped for them.
        self.frozen = False
        self._uid_rank: Optional[List[int]] = None
        self._neighbor_rows: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._ones_scratch = bytearray(b"\x01") * self.n
        self._zeros_scratch = bytearray(self.n)
        self._ones_busy = False
        self._zeros_busy = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networkx(cls, graph: nx.Graph, cache: bool = True) -> "CSRGraph":
        """Freeze ``graph`` (or the root of a subgraph view) into CSR form.

        The result is cached on the root graph object (weakly, with an O(1)
        node-count mutation guard), so repeated calls during one algorithm
        run — e.g. once per carving recursion piece — cost a dict lookup.
        """
        root = resolve_root(graph)
        if root.is_directed() or root.is_multigraph():
            raise CSRUnsupported("CSRGraph supports undirected simple graphs only")
        signature = root.number_of_nodes()
        if cache:
            entry = _CACHE.get(root)
            if entry is not None and entry[0] == signature:
                return entry[1]
        if nx.number_of_selfloops(root):
            # A self-loop occupies one CSR row entry but counts 2 towards a
            # networkx degree; rather than maintain two degree conventions,
            # loop-carrying graphs stay on the networkx backend.
            raise CSRUnsupported("CSRGraph does not support graphs with self-loops")
        csr = cls._build(root)
        csr.built_edges = root.number_of_edges()
        csr.fingerprint = _graph_fingerprint(root)
        if cache:
            try:
                _CACHE[root] = (signature, csr)
            except TypeError:  # pragma: no cover - unhashable graph subclass
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
            row = sorted(index[neighbour] for neighbour in adjacency[node])
            indices.extend(row)
            indptr.append(len(indices))
        return cls(nodes, uids, indptr, indices)

    # ------------------------------------------------------------------ #
    # Flat-buffer (de)serialisation — the shared-memory arena transport
    # ------------------------------------------------------------------ #
    def to_buffers(self) -> Dict[str, bytes]:
        """Serialise the frozen index into three raw byte buffers.

        Returns ``{"indptr": ..., "indices": ..., "meta": ...}``: the two
        int32 adjacency arrays as native-endian bytes, plus a compact JSON
        label table (node labels, uids, the recorded networkx edge count).
        The buffers are what :class:`repro.pipeline.arena.CSRArena` copies
        into a ``multiprocessing.shared_memory`` segment; workers reattach
        them zero-copy with :meth:`from_buffers`.

        Labels and uids must survive a JSON round trip with their types
        intact, so only ``int`` and ``str`` are accepted (every generator in
        the scenario registry uses integer labels and uids).  Anything else
        raises :class:`CSRUnsupported` and the caller falls back to
        per-worker rebuilds.
        """
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
        the underlying buffer (no copy: handing in slices of a shared-memory
        segment makes the adjacency arrays point straight into the segment);
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

    def to_networkx(self, register_cache: bool = True) -> nx.Graph:
        """Materialise the host :class:`networkx.Graph` this index describes.

        Rebuilds nodes (with their ``"uid"`` attributes) and edges from the
        flat arrays — no generator run, no row sorting, no fingerprint.  With
        ``register_cache=True`` the new graph is entered into the CSR cache
        pointing at *this* index, so the first ``carve``/``decompose`` on it
        finds a ready-frozen index instead of paying a fresh freeze.

        **Immutability contract:** when this index is ``frozen`` (arena
        reattach) and the cache is seeded, :func:`refresh_csr_cache` skips
        its O(n + m) staleness fingerprint for the returned graph — the
        cheap node/edge-*count* guards remain, but a count-preserving
        in-place rewire would go unnoticed.  The suite workers (the intended
        consumers) never mutate the host; code that does must call
        :func:`invalidate_csr_cache` on the graph first, or pass
        ``register_cache=False`` and pay the ordinary freeze.
        """
        graph = nx.Graph()
        nodes = self.nodes
        graph.add_nodes_from(
            (node, {"uid": uid}) for node, uid in zip(nodes, self.uids)
        )
        indptr, indices = self.indptr, self.indices
        graph.add_edges_from(
            (nodes[i], nodes[j])
            for i in range(self.n)
            for j in indices[indptr[i] : indptr[i + 1]]
            if i < j
        )
        if register_cache:
            try:
                _CACHE[graph] = (self.n, self)
            except TypeError:  # pragma: no cover - unhashable graph subclass
                pass
        return graph

    # ------------------------------------------------------------------ #
    # Masks (index space)
    #
    # Restricted calls reuse two parked scratch buffers instead of paying an
    # O(n) bytearray memset per call: the carving recursion issues one
    # restricted BFS per component, and fresh masks would make a run over
    # Θ(n) small components cost Θ(n²).  The ones-parked buffer serves the
    # "blocked unless allowed" masks (only the allowed entries are cleared
    # and later restored — everything a BFS marks visited lies inside
    # them); the zeros-parked buffer serves membership marking.  A busy flag
    # falls back to a fresh allocation under reentrancy.
    # ------------------------------------------------------------------ #
    def _acquire_blocked(
        self, allowed: Optional[Iterable[Any]]
    ) -> Tuple[bytearray, Optional[List[int]], bool]:
        """A mask where 1 marks *blocked or already visited* indices.

        Returns ``(mask, cleared_indices, owned)``; pass all three to
        :meth:`_release_blocked` when done.  ``allowed=None`` means every
        node is allowed (fresh zero mask, nothing to restore).  Labels in
        ``allowed`` that are not part of the graph are ignored (mirroring
        how the networkx walks simply never reach them).
        """
        if allowed is None:
            return bytearray(self.n), None, False
        if self._ones_busy:
            mask = bytearray(b"\x01") * self.n
            owned = False
        else:
            mask = self._ones_scratch
            self._ones_busy = True
            owned = True
        index_get = self.index.get
        cleared: List[int] = []
        for node in allowed:
            i = index_get(node)
            if i is not None:
                mask[i] = 0
                cleared.append(i)
        return mask, cleared, owned

    def _release_blocked(
        self, mask: bytearray, cleared: Optional[List[int]], owned: bool
    ) -> None:
        if owned and cleared is not None:
            for i in cleared:
                mask[i] = 1
            self._ones_busy = False

    def _acquire_members(self, cluster: Iterable[Any]) -> Tuple[bytearray, List[int], bool]:
        """A zeros-based mask with 1 at every cluster index.

        Returns ``(members, member_indices, owned)``; pass all three to
        :meth:`_release_members` when done.
        """
        if self._zeros_busy:
            members = bytearray(self.n)
            owned = False
        else:
            members = self._zeros_scratch
            self._zeros_busy = True
            owned = True
        index_get = self.index.get
        member_indices: List[int] = []
        for node in cluster:
            i = index_get(node)
            if i is not None:
                members[i] = 1
                member_indices.append(i)
        return members, member_indices, owned

    def _release_members(
        self, members: bytearray, member_indices: List[int], owned: bool
    ) -> None:
        if owned:
            for i in member_indices:
                members[i] = 0
            self._zeros_busy = False

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

    def _bfs_layer_indices(
        self,
        sources: Iterable[Any],
        blocked: bytearray,
        max_radius: Optional[int] = None,
    ) -> List[List[int]]:
        """Flat-array BFS; returns layers of node *indices*.

        ``blocked`` doubles as the visited mask and is consumed (mutated).
        Label resolution stays here; the traversal itself runs on the
        ambient kernel tier (:mod:`repro.kernels`).
        """
        index_get = self.index.get
        frontier: List[int] = []
        for node in sources:
            i = index_get(node)
            if i is not None and not blocked[i]:
                blocked[i] = 1
                frontier.append(i)
        return active_kernel().bfs_layers(self, frontier, blocked, max_radius=max_radius)

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
        blocked, cleared, owned = self._acquire_blocked(allowed)
        try:
            nodes = self.nodes
            return [
                {nodes[i] for i in layer}
                for layer in self._bfs_layer_indices(sources, blocked, max_radius=max_radius)
            ]
        finally:
            self._release_blocked(blocked, cleared, owned)

    def ball(
        self,
        sources: Iterable[Any],
        radius: int,
        allowed: Optional[Iterable[Any]] = None,
    ) -> Set[Any]:
        """``B_radius(sources)`` inside the allowed set (sources included)."""
        if radius < 0:
            return set()
        blocked, cleared, owned = self._acquire_blocked(allowed)
        try:
            nodes = self.nodes
            result: Set[Any] = set()
            for layer in self._bfs_layer_indices(sources, blocked, max_radius=radius):
                result.update(nodes[i] for i in layer)
            return result
        finally:
            self._release_blocked(blocked, cleared, owned)

    def distances(self, source: Any, allowed: Optional[Iterable[Any]] = None) -> Dict[Any, int]:
        """Single-source BFS distances restricted to ``allowed``."""
        blocked, cleared, owned = self._acquire_blocked(allowed)
        try:
            nodes = self.nodes
            distances: Dict[Any, int] = {}
            for depth, layer in enumerate(self._bfs_layer_indices([source], blocked)):
                for i in layer:
                    distances[nodes[i]] = depth
            return distances
        finally:
            self._release_blocked(blocked, cleared, owned)

    def boundary(
        self,
        cluster: Iterable[Any],
        allowed: Optional[Iterable[Any]] = None,
    ) -> Set[Any]:
        """Nodes *outside* ``cluster`` adjacent to it (within ``allowed``)."""
        indptr, indices, nodes = self.indptr, self.indices, self.nodes
        members, member_indices, owned = self._acquire_members(cluster)
        permitted, cleared, permitted_owned = (
            (None, None, False) if allowed is None else self._acquire_blocked(allowed)
        )
        try:
            result: Set[Any] = set()
            for i in member_indices:
                for v in indices[indptr[i] : indptr[i + 1]]:
                    if not members[v] and (permitted is None or not permitted[v]):
                        result.add(nodes[v])
            return result
        finally:
            if permitted is not None:
                self._release_blocked(permitted, cleared, permitted_owned)
            self._release_members(members, member_indices, owned)

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
        """Per-index rank under the shared uid-sort convention, lazily built.

        ``uid_rank[i]`` is node ``i``'s position in the total order
        ``uid_order_key(uid) + (str(label),)`` (the CONGEST simulator's
        ordering rule).  Sorting a subset of indices by this array is a
        plain int-key sort — the flat replacement for computing tuple keys
        per node in every cluster of every task.  Computed once per index
        (O(n log n)) and reused for the graph's lifetime; the uid array is
        frozen with the index, so the rank can never go stale ahead of it.
        """
        if self._uid_rank is None:
            uids, nodes = self.uids, self.nodes
            order = sorted(
                range(self.n), key=lambda i: uid_order_key(uids[i]) + (str(nodes[i]),)
            )
            rank = [0] * self.n
            for position, i in enumerate(order):
                rank[i] = position
            self._uid_rank = rank
        return self._uid_rank

    def induced_diameter(
        self, cluster: Iterable[Any], expected: Optional[int] = None
    ) -> int:
        """Diameter of the induced subgraph: one flat BFS per member.

        All work stays in index space — one member mask, one visited mask,
        int frontiers — so the all-pairs eccentricity costs
        ``O(k * (k + vol))`` array operations for a ``k``-node cluster
        instead of ``k`` label-space BFS calls with per-call mask setup.
        This is the hot primitive of the per-color diameter accounting in
        the ``C * D`` application template (and of the validators' diameter
        checks).

        Raises ``ValueError`` when the induced subgraph is disconnected, or
        when fewer than ``expected`` members are present in the graph
        (mirroring :func:`repro.graphs.properties.subgraph_diameter`).
        """
        members, member_indices, owned = self._acquire_members(cluster)
        try:
            k = len(member_indices)
            if expected is not None and k != expected:
                raise ValueError(
                    "induced subgraph is disconnected; strong diameter undefined"
                )
            if k <= 1:
                return 0
            diameter = 0
            # One all-ones mask doubles as the member restriction and the
            # visited set: non-member entries stay blocked forever, member
            # entries are re-opened before each source's sweep (O(k), same
            # as the former per-source reset).
            seen = bytearray(b"\x01") * self.n
            kernel = active_kernel()
            first = True
            for source in member_indices:
                for i in member_indices:
                    seen[i] = 0
                seen[source] = 1
                depth, reached = kernel.multi_source_bfs(self, [source], seen)
                if first and reached != k:
                    raise ValueError(
                        "induced subgraph is disconnected; strong diameter undefined"
                    )
                first = False
                if depth > diameter:
                    diameter = depth
            return diameter
        finally:
            self._release_members(members, member_indices, owned)

    def induced_degrees(self, cluster: Iterable[Any]) -> Dict[Any, int]:
        """Degree of every cluster node inside the induced subgraph."""
        indptr, indices, nodes = self.indptr, self.indices, self.nodes
        members, member_indices, owned = self._acquire_members(cluster)
        try:
            degrees: Dict[Any, int] = {}
            for i in member_indices:
                count = 0
                for v in indices[indptr[i] : indptr[i + 1]]:
                    if members[v]:
                        count += 1
                degrees[nodes[i]] = count
            return degrees
        finally:
            self._release_members(members, member_indices, owned)

    def connected_components(
        self, allowed: Optional[Iterable[Any]] = None
    ) -> List[Set[Any]]:
        """Connected components of the induced subgraph, as label sets.

        Components are emitted in ascending order of their smallest node
        index, which makes the output deterministic for a given graph.
        """
        nodes = self.nodes
        blocked, cleared, owned = self._acquire_blocked(allowed)
        kernel = active_kernel()
        try:
            starts = range(self.n) if cleared is None else sorted(cleared)
            components: List[Set[Any]] = []
            for start in starts:
                if blocked[start]:
                    continue
                blocked[start] = 1
                frontier = [start]
                component = {nodes[start]}
                while frontier:
                    frontier = kernel.frontier_expand(self, frontier, blocked)
                    component.update(nodes[i] for i in frontier)
                components.append(component)
            return components
        finally:
            self._release_blocked(blocked, cleared, owned)

    def subset_adjacency(self, allowed: Iterable[Any]) -> Dict[Any, List[Any]]:
        """Per-node neighbour lists restricted to ``allowed``.

        This is the flat replacement for iterating
        ``graph.subgraph(allowed).neighbors(v)`` in tight loops (each such
        iteration pays several filter-closure calls per edge): one pass over
        the CSR rows yields plain Python lists of labels.
        """
        indptr, indices, nodes = self.indptr, self.indices, self.nodes
        members, member_indices, owned = self._acquire_members(allowed)
        try:
            adjacency: Dict[Any, List[Any]] = {}
            for i in member_indices:
                adjacency[nodes[i]] = [
                    nodes[v] for v in indices[indptr[i] : indptr[i + 1]] if members[v]
                ]
            return adjacency
        finally:
            self._release_members(members, member_indices, owned)
