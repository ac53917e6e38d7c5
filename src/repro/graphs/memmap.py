"""Out-of-core CSR graphs: on-disk format, streaming ingester, nx-free facade.

Everything in-repo that scales — the carving loops, the kernels, the arena —
already runs on :class:`repro.graphs.csr.CSRGraph`'s two flat int32 arrays.
This module lets those arrays live on *disk* instead of in a networkx
object's dict-of-dicts, which is what bounds the graph sizes the pipeline
can touch:

* **`.csrbin` file format** — a header-prefixed dump of exactly the three
  buffers :meth:`CSRGraph.to_buffers` produces (int32 ``indptr``/``indices``
  plus the JSON label table).  :func:`write_csr_file` writes it atomically
  (``.tmp`` + ``os.replace``), :func:`load_csr_graph` reattaches it through
  :meth:`CSRGraph.from_buffers` over ``np.memmap`` views, so the O(m)
  adjacency is paged in by the OS on demand and never copied into the heap.
  The result carries ``frozen=True``.  It is the one on-disk form of a
  frozen CSR: memmap-backend builds and the columns the arena publishes to
  pool workers (``column-<sha16>.csrbin``) are both such files.

* **streaming edgelist ingester** — :func:`ingest_edge_list` converts a
  text edge list (the :func:`repro.graphs.io.read_edge_list` dialect,
  integer labels) straight into a ``.csrbin`` file without ever building a
  networkx graph: a chunked parse pass spills raw int64 pairs to a scratch
  file, then a vectorised degree-count/fill pass (``np.unique`` label
  compaction, ``bincount`` degrees, one stable ``argsort`` fill) writes the
  CSR sections.  Node order, neighbour order and the recorded edge count
  replicate ``read_edge_list`` + ``CSRGraph._build`` exactly, and uids come
  from the same :func:`repro.graphs.io.complete_uids`, so a memmap-backed
  run is byte-identical to the in-memory one.
  Builds are resumable: a finished file whose recorded source signature
  (size + mtime) still matches is reused, a stale ``.tmp`` from a killed
  build is discarded with a warning, and a truncated final line is skipped
  with a warning instead of poisoning the build.

* **`CSRBackedGraph` facade** — a minimal read-only stand-in for
  ``networkx.Graph`` over any frozen CSR (memmap, arena-attached, or
  in-memory).  It implements exactly the graph surface the algorithms and
  validators consume (node/degree views, ``neighbors``, ``edges``,
  ``subgraph``); one class serves a graph and its node-induced views.  The
  root facade pre-seeds the CSR cache, so ``carve``/``decompose``/``run_task``
  run the flat kernels directly — no networkx materialisation at any
  point.  It hosts every memmap-backend build and every column a pool
  worker attaches from the arena, under both graph backends.
"""

from __future__ import annotations

import glob
import json
import os
import struct
import warnings
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro import telemetry
from repro.graphs.csr import CSRGraph, _CACHE
from repro.graphs.io import complete_uids

MAGIC = b"REPROCSR"
FORMAT_VERSION = 1
# Parse-pass flush granularity (labels, i.e. half-pairs, per chunk).
_CHUNK_LABELS = 1 << 20


class CSRFileError(ValueError):
    """Raised when a ``.csrbin`` file is missing, truncated, or corrupt."""


# --------------------------------------------------------------------- #
# File format
#
# MAGIC (8 bytes) | uint64 header length | JSON header | indptr | indices
# | meta.  The header records the section lengths so the loader can map
# each one without trusting the file size alone; the payload sections are
# byte-for-byte what CSRGraph.to_buffers() returns.
# --------------------------------------------------------------------- #
_HEADER_PREFIX = struct.Struct("<8sQ")


def _source_signature(source_path: str) -> Dict[str, int]:
    stat = os.stat(source_path)
    return {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}


def _write_sections(
    handle, buffers: Dict[str, bytes], source: Optional[Dict[str, int]]
) -> None:
    indptr, indices, meta = buffers["indptr"], buffers["indices"], buffers["meta"]
    header = {
        "version": FORMAT_VERSION,
        # int32 sections: n + 1 row offsets, and each edge in two rows.  The
        # graph is simple (to_buffers refuses self-loops and parallel
        # edges), so that edge count is the recorded one.
        "n": len(indptr) // 4 - 1,
        "built_edges": len(indices) // 8,
        "indptr_len": len(indptr),
        "indices_len": len(indices),
        "meta_len": len(meta),
        "source": source,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    handle.write(_HEADER_PREFIX.pack(MAGIC, len(header_bytes)))
    handle.write(header_bytes)
    handle.write(indptr)
    handle.write(indices)
    handle.write(meta)


def write_csr_file(source: Any, path: str, source_path: Optional[str] = None) -> str:
    """Write a frozen index to ``path`` atomically (``.tmp`` + ``os.replace``).

    ``source`` is a :class:`CSRGraph` or the buffer dict its
    :meth:`~CSRGraph.to_buffers` returns, so the same int/str label
    restriction applies (:class:`repro.graphs.csr.CSRUnsupported`
    otherwise).  ``source_path`` records the originating file's size/mtime
    signature so :func:`ingest_edge_list` can recognise the file as up to
    date later.
    """
    buffers = source.to_buffers() if isinstance(source, CSRGraph) else source
    signature = _source_signature(source_path) if source_path else None
    # pid-suffixed so concurrent writers (pool workers sharing a spill dir)
    # never tear each other's half-written staging file.
    tmp_path = "{}.tmp.{}".format(path, os.getpid())
    with open(tmp_path, "wb") as handle:
        _write_sections(handle, buffers, signature)
    os.replace(tmp_path, path)
    return path


def read_csr_header(path: str) -> Dict[str, Any]:
    """Parse and validate the header of a ``.csrbin`` file.

    Raises :class:`CSRFileError` when the magic, version, or recorded
    section lengths do not match the actual file — the caller treats that
    as "rebuild", never as silent acceptance.
    """
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            prefix = handle.read(_HEADER_PREFIX.size)
            if len(prefix) < _HEADER_PREFIX.size:
                raise CSRFileError("{}: truncated header".format(path))
            magic, header_len = _HEADER_PREFIX.unpack(prefix)
            if magic != MAGIC:
                raise CSRFileError("{}: not a csrbin file".format(path))
            header_bytes = handle.read(header_len)
            if len(header_bytes) < header_len:
                raise CSRFileError("{}: truncated header".format(path))
            try:
                header = json.loads(header_bytes.decode("utf-8"))
            except ValueError as exc:
                raise CSRFileError("{}: corrupt header ({})".format(path, exc))
    except OSError as exc:
        raise CSRFileError("{}: unreadable ({})".format(path, exc))
    if header.get("version") != FORMAT_VERSION:
        raise CSRFileError(
            "{}: unsupported format version {!r}".format(path, header.get("version"))
        )
    expected = (
        _HEADER_PREFIX.size
        + header_len
        + header["indptr_len"]
        + header["indices_len"]
        + header["meta_len"]
    )
    if size != expected:
        raise CSRFileError(
            "{}: payload truncated ({} bytes, header promises {})".format(
                path, size, expected
            )
        )
    if header["indptr_len"] != 4 * (header["n"] + 1):
        raise CSRFileError("{}: indptr section length mismatch".format(path))
    header["_payload_offset"] = _HEADER_PREFIX.size + header_len
    return header


def load_csr_graph(path: str) -> CSRGraph:
    """Reattach a ``.csrbin`` file as a frozen :class:`CSRGraph`.

    The int32 sections are wrapped as read-only ``np.memmap`` views —
    :meth:`CSRGraph.from_buffers` casts them to int32 memoryviews, so the
    kernel reads adjacency straight out of the page cache.  Only the O(n)
    label table is materialised on the heap.
    """
    header = read_csr_header(path)
    offset = header["_payload_offset"]
    # Raw byte maps: CSRGraph.from_buffers casts them to int32 memoryviews.
    indptr = np.memmap(
        path, dtype=np.uint8, mode="r", offset=offset, shape=(header["indptr_len"],)
    )
    indices = np.memmap(
        path,
        dtype=np.uint8,
        mode="r",
        offset=offset + header["indptr_len"],
        shape=(header["indices_len"],),
    )
    with open(path, "rb") as handle:
        handle.seek(offset + header["indptr_len"] + header["indices_len"])
        meta = handle.read(header["meta_len"])
    csr = CSRGraph.from_buffers(indptr, indices, meta)
    if csr.built_edges != header["built_edges"]:
        raise CSRFileError("{}: meta/header edge count mismatch".format(path))
    return csr


def pid_alive(pid: Optional[int]) -> bool:
    """Whether ``pid`` names a live process, for sweeping scratch files
    named after the process that made them.

    ``None`` (a name without a pid) is never live.  Probes with
    ``os.kill(pid, 0)``, which signals nothing; on Windows signal 0 is
    ``CTRL_C_EVENT``, so there every pid counts as live and nothing named
    after one is swept.  A pid reused by an unrelated process reads as
    live: its files wait for a later sweep.
    """
    if pid is None or pid <= 0:
        return False
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: alive, owned by another user
        return True
    return True


def _staging_pid(path: str) -> Optional[int]:
    """The pid suffix of a staging file name (``….tmp.<pid>``), if any."""
    suffix = path.rpartition(".")[2]
    return int(suffix) if suffix.isdigit() else None


# --------------------------------------------------------------------- #
# Streaming ingester
# --------------------------------------------------------------------- #
def _flush_pairs(handle, buffer: List[int]) -> None:
    np.asarray(buffer, dtype=np.int64).tofile(handle)
    del buffer[:]


def _parse_pass(
    source_path: str, pairs_path: str
) -> Tuple[int, Dict[int, int], int]:
    """Stream the text edge list into a raw int64 pair file.

    Each edge line becomes a ``(u, v)`` pair; node-declaration lines (single
    token, or ``# uid`` headers) become ``(u, u)`` so first-appearance order
    is preserved — the fill pass drops diagonal pairs from the edge set.
    Returns ``(pair_count, uid_headers, self_loop_edges)``.

    A final line that fails to parse (torn write / interrupted download) is
    skipped with a warning; a malformed line *followed by* valid data is a
    hard error, matching the truncated-store semantics of the run store.
    """
    uids: Dict[int, int] = {}
    buffer: List[int] = []
    pair_count = 0
    loops = 0
    bad_line: Optional[Tuple[int, str]] = None
    with open(source_path, "r", encoding="utf-8") as source, open(
        pairs_path, "wb"
    ) as pairs:
        for lineno, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "uid":
                    try:
                        node = int(parts[1])
                        uids[node] = int(parts[2])
                    except ValueError:
                        raise CSRFileError(
                            "{}:{}: non-integer uid header {!r} (the streaming "
                            "ingester supports integer labels only)".format(
                                source_path, lineno, line
                            )
                        )
                    buffer.extend((node, node))
                    pair_count += 1
                continue
            if bad_line is not None:
                raise CSRFileError(
                    "{}:{}: malformed line {!r} followed by more data".format(
                        source_path, bad_line[0], bad_line[1]
                    )
                )
            tokens = line.split()
            try:
                if len(tokens) == 1:
                    node = int(tokens[0])
                    buffer.extend((node, node))
                else:
                    u, v = int(tokens[0]), int(tokens[1])
                    if u == v:
                        loops += 1
                    buffer.extend((u, v))
                pair_count += 1
            except ValueError:
                # Possibly a truncated final line — fatal only if more
                # valid lines follow.
                bad_line = (lineno, line)
                continue
            if len(buffer) >= _CHUNK_LABELS:
                _flush_pairs(pairs, buffer)
        if buffer:
            _flush_pairs(pairs, buffer)
    if bad_line is not None:
        _warn_truncated_line(source_path, bad_line)
    return pair_count, uids, loops


#: Absolute source paths whose torn final line was already reported.  The
#: ingester re-parses the same file on cache misses (force rebuilds, stale
#: ``.csrbin``), and warning on every pass makes a single damaged download
#: look like a growing pile of problems.
_TRUNCATION_WARNED: set = set()


def _warn_truncated_line(source_path: str, bad_line: Tuple[int, str]) -> None:
    """Warn about a torn final line once per source file per process."""
    key = os.path.abspath(source_path)
    if key in _TRUNCATION_WARNED:
        return
    _TRUNCATION_WARNED.add(key)
    warnings.warn(
        "{}: ignoring truncated final line {} ({!r})".format(
            source_path, bad_line[0], bad_line[1]
        ),
        stacklevel=4,
    )


def ingest_edge_list(
    source_path: str, dest_path: str, force: bool = False
) -> str:
    """Build (or reuse) a ``.csrbin`` file from a text edge list.

    Two passes, neither of which builds a networkx graph or an O(m) Python
    structure: the parse pass streams lines into a raw int64 pair scratch
    file; the fill pass label-compacts with ``np.unique``, canonicalises and
    deduplicates undirected edges, counts degrees with ``bincount``, and
    fills ``indices`` with one stable ``argsort`` — the vectorised
    equivalent of ``CSRGraph._build``'s per-row sort.

    Resume semantics:

    * ``dest_path`` exists, validates, and records a source signature
      matching ``source_path``'s current size/mtime → reused as-is;
    * ``dest_path`` exists but is stale/corrupt → rebuilt with a warning;
    * leftover ``dest_path + ".tmp*"`` / ``".pairs.tmp*"`` scratch files
      of a build whose process is gone (killed mid-write) → removed with a
      warning, then rebuilt.  The finished file is only ever published via
      ``os.replace``, and staging names are pid-suffixed, so the staging
      files of a build still running elsewhere (:func:`pid_alive`) are left
      alone and concurrent builders never tear each other.
    """
    signature = _source_signature(source_path)
    if os.path.exists(dest_path) and not force:
        try:
            header = read_csr_header(dest_path)
            if header.get("source") == signature:
                return dest_path
            warnings.warn(
                "{}: stale cache (source changed); rebuilding".format(dest_path),
                stacklevel=2,
            )
        except CSRFileError as exc:
            warnings.warn(
                "{}: invalid cache ({}); rebuilding".format(dest_path, exc),
                stacklevel=2,
            )
    stale_files = sorted(
        path
        for path in set(glob.glob(glob.escape(dest_path) + ".tmp*"))
        | set(glob.glob(glob.escape(dest_path) + ".pairs.tmp*"))
        # Another live builder's staging file is its own; leave it be.  One
        # named after this process is a failed earlier build's.
        if _staging_pid(path) == os.getpid() or not pid_alive(_staging_pid(path))
    )
    for stale in stale_files:
        warnings.warn(
            "{}: discarding partial build left by an interrupted run".format(stale),
            stacklevel=2,
        )
        try:
            os.remove(stale)
        except OSError:  # pragma: no cover - lost a race with another cleaner
            pass
    # pid-suffixed scratch/staging names: concurrent ingests of the same
    # source (pool workers without a shared build) each stage privately and
    # publish via os.replace — last writer wins with identical bytes.
    tmp_path = "{}.tmp.{}".format(dest_path, os.getpid())
    pairs_path = "{}.pairs.tmp.{}".format(dest_path, os.getpid())
    with telemetry.span(
        "memmap.ingest", source=os.path.basename(source_path)
    ) as ingest_span:
        try:
            with telemetry.span("memmap.ingest.pass", stage="parse"):
                pair_count, headers, loops = _parse_pass(source_path, pairs_path)
            if loops:
                warnings.warn(
                    "{}: dropped {} self-loop edge(s) (CSR graphs are simple)".format(
                        source_path, loops
                    ),
                    stacklevel=2,
                )
            with telemetry.span("memmap.ingest.pass", stage="fill"):
                if pair_count:
                    pairs = np.memmap(
                        pairs_path, dtype=np.int64, mode="r", shape=(pair_count, 2)
                    )
                    flat = pairs.reshape(-1)
                    # Node order = first appearance in the file, exactly like
                    # nx.Graph insertion order under read_edge_list.
                    labels, first_pos = np.unique(flat, return_index=True)
                    appearance = np.argsort(first_pos, kind="stable")
                    nodes_arr = labels[appearance]
                    n = len(labels)
                    if n >= 2**31:
                        raise CSRFileError("graph exceeds int32 node capacity")
                    position = np.empty(n, dtype=np.int64)
                    position[appearance] = np.arange(n, dtype=np.int64)
                    u_idx = position[np.searchsorted(labels, pairs[:, 0])]
                    v_idx = position[np.searchsorted(labels, pairs[:, 1])]
                    edge_mask = u_idx != v_idx
                    lo = np.minimum(u_idx, v_idx)[edge_mask]
                    hi = np.maximum(u_idx, v_idx)[edge_mask]
                    keys = np.unique((lo << 32) | hi)
                    lo = (keys >> 32).astype(np.int32)
                    hi = (keys & 0xFFFFFFFF).astype(np.int32)
                    m = len(keys)
                    del keys, u_idx, v_idx, edge_mask, pairs, flat
                    degrees = np.bincount(lo, minlength=n) + np.bincount(
                        hi, minlength=n
                    )
                    indptr64 = np.concatenate(
                        ([0], np.cumsum(degrees, dtype=np.int64))
                    )
                    if indptr64[-1] >= 2**31:
                        raise CSRFileError("graph exceeds int32 edge capacity")
                    srcs = np.concatenate((lo, hi))
                    dsts = np.concatenate((hi, lo))
                    order = np.argsort(
                        (srcs.astype(np.int64) << 32) | dsts, kind="stable"
                    )
                    indices = np.ascontiguousarray(dsts[order])
                    indptr = indptr64.astype(np.int32)
                    nodes_list = [int(x) for x in nodes_arr]
                else:
                    n = m = 0
                    indptr = np.zeros(1, dtype=np.int32)
                    indices = np.empty(0, dtype=np.int32)
                    nodes_list = []
                uids_list = complete_uids(nodes_list, headers)
                meta = json.dumps(
                    {"nodes": nodes_list, "uids": uids_list, "built_edges": m},
                    separators=(",", ":"),
                ).encode("utf-8")
                buffers = {
                    "indptr": indptr.tobytes(),
                    "indices": indices.tobytes(),
                    "meta": meta,
                }
                with open(tmp_path, "wb") as handle:
                    _write_sections(handle, buffers, signature)
                os.replace(tmp_path, dest_path)
        finally:
            for leftover in (pairs_path,):
                if os.path.exists(leftover):
                    os.remove(leftover)
        ingest_span.set("nodes", n)
        ingest_span.set("edges", m)
    telemetry.inc("memmap_ingests")
    return dest_path


# --------------------------------------------------------------------- #
# networkx-free facade
# --------------------------------------------------------------------- #
class _NodeView:
    """Read-only stand-in for ``networkx``'s NodeView over a frozen CSR."""

    __slots__ = ("_csr", "_members")

    def __init__(self, csr: CSRGraph, members: Optional[Set[Any]] = None) -> None:
        self._csr = csr
        self._members = members

    def _iter_nodes(self) -> Iterator[Any]:
        if self._members is None:
            return iter(self._csr.nodes)
        return iter(self._members)

    def __iter__(self) -> Iterator[Any]:
        return self._iter_nodes()

    def __len__(self) -> int:
        return self._csr.n if self._members is None else len(self._members)

    def __contains__(self, node: Any) -> bool:
        if self._members is not None:
            return node in self._members
        try:
            return node in self._csr.index
        except TypeError:
            return False

    def __call__(self, data: Any = False):
        if data is False:
            return self
        csr = self._csr
        if data is True:
            return [
                (node, {"uid": csr.uids[csr.index[node]]})
                for node in self._iter_nodes()
            ]
        default = None
        return [
            (node, {"uid": csr.uids[csr.index[node]]}.get(data, default))
            for node in self._iter_nodes()
        ]

    def __getitem__(self, node: Any) -> Dict[str, Any]:
        if self._members is not None and node not in self._members:
            raise KeyError(node)
        return {"uid": self._csr.uids[self._csr.index[node]]}


class _DegreeView:
    """Read-only stand-in for ``networkx``'s DegreeView."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "CSRBackedGraph") -> None:
        self._graph = graph

    def __iter__(self) -> Iterator[Tuple[Any, int]]:
        graph = self._graph
        return ((node, graph._degree_of(node)) for node in graph)

    def __call__(self, node: Any = None):
        if node is None:
            return self
        return self._graph._degree_of(node)

    def __getitem__(self, node: Any) -> int:
        return self._graph._degree_of(node)


class _PassthroughAdjacency:
    """Marker matching the CSR gate's node-induced-view test.

    ``EDGE_OK`` is a ``staticmethod`` so that reading it through an instance
    yields networkx's ``no_filter`` itself (a plain function attribute would
    come back as a bound method and fail the gate's identity test).
    """

    __slots__ = ()

    try:
        from networkx.classes.filters import no_filter

        EDGE_OK = staticmethod(no_filter)  # noqa: N815
        del no_filter
    except ImportError:  # pragma: no cover - very old networkx layouts
        EDGE_OK = None


class CSRBackedGraph:
    """A read-only ``networkx.Graph`` facade over a frozen :class:`CSRGraph`.

    Implements exactly the surface the algorithms, validators, and
    application tasks consume (see the module docstring); anything beyond
    that raises ``AttributeError`` rather than silently diverging from
    networkx semantics.  Constructing a root facade seeds the CSR cache, so
    ``csr_index`` resolves it (and its subgraph views) to the frozen index
    without ever walking an adjacency structure.

    :meth:`subgraph` returns a node-induced view: the same class with a
    member set.  Like ``networkx``'s subgraph views, a view's ``_graph`` is
    the root facade and its ``_adj.EDGE_OK`` networkx's ``no_filter``, so
    ``resolve_root`` recognises it as node-induced and finds the root's
    cached CSR.  The root sets neither slot.
    """

    __slots__ = ("csr", "graph", "_members", "_node_view", "_graph", "_adj", "__weakref__")

    def __init__(
        self,
        csr: CSRGraph,
        _root: Optional["CSRBackedGraph"] = None,
        _members: Optional[Set[Any]] = None,
    ) -> None:
        self.csr = csr
        self._members = _members
        self._node_view = _NodeView(csr, _members)
        if _root is not None:
            self._graph = _root
            self._adj = _PassthroughAdjacency()
            return
        if not csr.frozen:
            # The facade bypasses refresh_csr_cache's fingerprint walk, so
            # it must only ever wrap immutable (frozen) indexes.
            csr.frozen = True
        self.graph: Dict[str, Any] = {}
        try:
            _CACHE[self] = (csr.n, csr)
        except TypeError:  # pragma: no cover - defensive
            pass

    # -- basic protocol ------------------------------------------------ #
    def __len__(self) -> int:
        return self.csr.n if self._members is None else len(self._members)

    number_of_nodes = order = __len__

    def __iter__(self) -> Iterator[Any]:
        return iter(self.csr.nodes if self._members is None else self._members)

    def __contains__(self, node: Any) -> bool:
        members = self._members
        if members is not None:
            return node in members
        try:
            return node in self.csr.index
        except TypeError:
            return False

    def is_directed(self) -> bool:
        return False

    def is_multigraph(self) -> bool:
        return False

    def number_of_edges(self) -> int:
        if self._members is None:
            return self.csr.built_edges
        return sum(1 for _ in self.edges())

    def has_node(self, node: Any) -> bool:
        return node in self

    # -- views --------------------------------------------------------- #
    @property
    def nodes(self) -> _NodeView:
        return self._node_view

    @property
    def degree(self) -> _DegreeView:
        # Built per access: a cached view would put the facade in a
        # reference cycle, pinning its index (and the file maps under it)
        # until the cyclic collector runs.
        return _DegreeView(self)

    def _degree_of(self, node: Any) -> int:
        if self._members is None:
            return self.csr.degree(node)
        return sum(1 for _ in self.neighbors(node))

    def neighbors(self, node: Any) -> Iterator[Any]:
        members = self._members
        if members is None:
            return iter(self.csr.neighbors(node))
        if node not in members:
            raise KeyError(node)
        return (nbr for nbr in self.csr.neighbors(node) if nbr in members)

    def has_edge(self, u: Any, v: Any) -> bool:
        members = self._members
        if members is not None and (u not in members or v not in members):
            return False
        csr = self.csr
        i = csr.index.get(u)
        j = csr.index.get(v)
        if i is None or j is None:
            return False
        return j in csr.indices[csr.indptr[i] : csr.indptr[i + 1]]

    def edges(self) -> Iterator[Tuple[Any, Any]]:
        csr = self.csr
        members = self._members
        nodes, indptr, indices = csr.nodes, csr.indptr, csr.indices
        if members is None:
            return (
                (nodes[i], nodes[j])
                for i in range(csr.n)
                for j in indices[indptr[i] : indptr[i + 1]]
                if i < j
            )
        index = csr.index
        return (
            (u, nodes[j])
            for u in members
            for i in (index[u],)
            for j in indices[indptr[i] : indptr[i + 1]]
            if i < j and nodes[j] in members
        )

    def subgraph(self, nodes: Iterable[Any]) -> "CSRBackedGraph":
        members = {node for node in nodes if node in self}
        return CSRBackedGraph(self.csr, getattr(self, "_graph", self), members)


def graph_from_csr(csr: CSRGraph) -> CSRBackedGraph:
    """Wrap a frozen index in the networkx-free facade (cache pre-seeded)."""
    return CSRBackedGraph(csr)


def load_graph(path: str) -> CSRBackedGraph:
    """``load_csr_graph`` + facade: an out-of-core graph ready for the API."""
    return graph_from_csr(load_csr_graph(path))
