"""Pluggable run-store backends: selection, registry and lossless conversion.

The pipeline persists suite results through the abstract
:class:`~repro.pipeline.backends.base.RunStoreBase` interface; two backends
implement it:

* ``jsonl`` (:class:`~repro.pipeline.backends.jsonl.JsonlRunStore`) — the
  canonical append-only JSON-lines interchange format: human-readable,
  diffable, fsync-per-record durable;
* ``sqlite`` (:class:`~repro.pipeline.backends.sqlite.SqliteRunStore`) — a
  WAL-mode SQLite database with the grid parameters as indexed columns, for
  sweeps too large to re-parse end-to-end.

:func:`open_store` picks the backend from the store path's extension
(``.sqlite`` / ``.sqlite3`` / ``.db`` → SQLite, everything else → JSON
lines) unless an explicit backend name overrides it — that is what the CLI
``--store-backend`` flag feeds.  :func:`convert_store` migrates a store
between backends **losslessly**: records travel as their exact JSON texts,
so a JSONL → SQLite → JSONL round trip is byte-identical.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Type

from repro.pipeline.backends.base import (
    COMPATIBLE_SCHEMAS,
    QUERY_FIELDS,
    SCHEMA_VERSION,
    RunStoreBase,
    StoreCorruptError,
    StoreMergeError,
    StoreSchemaError,
    shard_provenance,
)
from repro.pipeline.backends.jsonl import JsonlRunStore
from repro.pipeline.backends.sqlite import SqliteRunStore

#: Backend registry: name → store class.
BACKENDS: Dict[str, Type[RunStoreBase]] = {
    JsonlRunStore.backend: JsonlRunStore,
    SqliteRunStore.backend: SqliteRunStore,
}

#: Store-path extensions that select the SQLite backend under ``"auto"``.
SQLITE_EXTENSIONS = (".sqlite", ".sqlite3", ".db")


def backend_for_path(path: Optional[str], backend: Optional[str] = None) -> str:
    """Resolve the backend name for a store path.

    ``backend=None`` / ``"auto"`` selects by extension (SQLite for
    :data:`SQLITE_EXTENSIONS`, JSON lines otherwise — including ``None``
    paths, whose in-memory store only the jsonl backend offers); any other
    value must be a registered backend name and wins outright.
    """
    if backend not in (None, "auto"):
        if backend not in BACKENDS:
            raise ValueError(
                "unknown store backend {!r}; choose from {}".format(
                    backend, sorted(BACKENDS) + ["auto"]
                )
            )
        return backend
    if path is not None and os.path.splitext(path)[1].lower() in SQLITE_EXTENSIONS:
        return SqliteRunStore.backend
    return JsonlRunStore.backend


def open_store(
    path: Optional[str],
    suite: str = "",
    metadata: Optional[Dict[str, Any]] = None,
    backend: Optional[str] = None,
    schema: Optional[int] = None,
) -> RunStoreBase:
    """Open (or create) a run store, selecting the backend.

    Args:
        path: Store file, or ``None`` for an in-memory (jsonl-backend)
            store.
        suite: Suite name for a newly created store's header.
        metadata: Header metadata for a newly created store.
        backend: Explicit backend name (``"jsonl"`` / ``"sqlite"``), or
            ``None`` / ``"auto"`` to select by the path's extension.
        schema: Record-schema version for a newly created store's header
            (default: the current ``SCHEMA_VERSION``; conversion passes the
            source's version through).  An existing store keeps — and
            validates — its own.

    Returns:
        A ready :class:`~repro.pipeline.backends.base.RunStoreBase`.
    """
    name = backend_for_path(path, backend)
    return BACKENDS[name](path, suite=suite, metadata=metadata, schema=schema)


def read_records(path: str, backend: Optional[str] = None) -> List[Dict[str, Any]]:
    """Load all result records from a store file (validating the schema).

    Works for every backend: the store format is selected by the path's
    extension unless ``backend`` names one explicitly.
    """
    store = open_store(path, backend=backend)
    try:
        return store.results()
    finally:
        store.close()


def convert_store(
    source: str,
    destination: str,
    source_backend: Optional[str] = None,
    destination_backend: Optional[str] = None,
) -> RunStoreBase:
    """Convert a run store between backends, losslessly.

    Opens ``source`` (validating its schema), creates ``destination`` with
    the same suite name and header metadata, and bulk-appends every result
    record in order.  Records cross as plain dictionaries and are
    re-serialised by ``json.dumps`` on both sides, so a round trip
    reproduces the original JSON-lines bytes exactly — this is the
    ``repro store migrate`` / ``repro store export`` implementation.

    Refuses to overwrite an existing non-empty destination (a half-typed
    path must not silently merge two sweeps).

    Returns:
        The populated destination store.
    """
    source_store = open_store(source, backend=source_backend)
    if os.path.exists(destination) and os.path.getsize(destination) > 0:
        raise ValueError(
            "destination store {!r} already exists; convert into a fresh "
            "path (or delete it first)".format(destination)
        )
    destination_store = open_store(
        destination,
        suite=source_store.suite,
        metadata=source_store.metadata,
        backend=destination_backend,
        schema=source_store.schema,
    )
    # add_many re-applies the "kind" tag in place (dict update preserves the
    # original key position), so the re-serialised JSON matches byte-for-byte.
    destination_store.add_many(source_store.results())
    for summary in source_store.summaries():
        destination_store.add_summary(summary)
    source_store.close()
    return destination_store


def _grid_order(spec_dict: Optional[Dict[str, Any]]) -> Optional[Dict[str, int]]:
    """Map cell id → store position from a stored suite spec, if expandable.

    The runner executes **column-batched**: topology columns in first-
    appearance order over the expanded grid, and each column's cells
    together in grid order.  Replaying that order here makes a merged
    store's record sequence identical to an unsharded run's.
    """
    if not spec_dict:
        return None
    from repro.pipeline.spec import SuiteSpec, group_in_order

    try:
        cells = SuiteSpec.from_dict(spec_dict).expand()
    except (KeyError, ValueError, TypeError):
        return None
    columns = group_in_order(cells, lambda cell: cell.column_key)
    flat = [cell.cell_id for _, column in columns for cell in column]
    return {cell_id: position for position, cell_id in enumerate(flat)}


def merge_stores(
    sources: Sequence[str],
    destination: str,
    source_backend: Optional[str] = None,
    destination_backend: Optional[str] = None,
) -> RunStoreBase:
    """Merge shard run stores into one store, losslessly.

    The companion of :func:`convert_store` for sharded suites
    (``run_suite(shard=(i, k))`` — see docs/pipeline.md): each shard
    invocation wrote its own store; this unions them into a single store
    that ``--mode diff``, tables/report and resume treat exactly like an
    unsharded run's.  Records travel as plain dictionaries re-serialised by
    ``json.dumps`` — byte-lossless, like ``store migrate``.

    Validation (all failures raise :class:`StoreMergeError`):

    * every source must carry the same suite name and — when recorded — the
      same suite spec in its header metadata.  Keys that older headers
      still carry (:data:`~repro.pipeline.spec.RETIRED_SPEC_KEYS`: the
      run options, the retired ``kernel`` and the retired graph
      ``backend``) are dropped first: shards run with different graph
      backends or spill directories merge, and the merged header records
      the spec without them;
    * sources stamped with shard provenance must agree on the shard count;
    * a cell id appearing in two sources must carry **byte-identical**
      records (re-merging overlapping shards is then a no-op — merge is
      idempotent); conflicting records are refused, never clobbered.

    Result records are written in grid order when the header spec is
    expandable (so a merged store lays out like an unsharded run), with any
    off-grid records appended in source order.  Telemetry summaries are
    carried over from every source; the merged store is stamped with a
    ``kind="shard"`` provenance summary listing each source, its shard
    stamp and its cell count — ``store info`` prints it and resume accepts
    it.

    Refuses an existing non-empty destination, like :func:`convert_store`.

    Returns:
        The populated merged destination store.
    """
    if not sources:
        raise StoreMergeError("store merge needs at least one source store")
    if os.path.exists(destination) and os.path.getsize(destination) > 0:
        raise ValueError(
            "destination store {!r} already exists; merge into a fresh "
            "path (or delete it first)".format(destination)
        )
    opened: List[RunStoreBase] = []
    try:
        for path in sources:
            if not os.path.exists(path):
                raise StoreMergeError("source store {!r} does not exist".format(path))
            opened.append(open_store(path, backend=source_backend))

        # -- header compatibility ------------------------------------------
        suites = {store.suite for store in opened}
        if len(suites) > 1:
            raise StoreMergeError(
                "cannot merge stores from different suites: {}".format(
                    ", ".join(sorted(repr(name) for name in suites))
                )
            )
        from repro.pipeline.spec import RETIRED_SPEC_KEYS

        spec_dict: Optional[Dict[str, Any]] = None
        spec_source: Optional[str] = None
        for store in opened:
            spec = store.metadata.get("spec")
            if spec is None:
                continue
            spec = {
                key: value for key, value in spec.items() if key not in RETIRED_SPEC_KEYS
            }
            if spec_dict is None:
                spec_dict, spec_source = spec, store.path
            elif spec != spec_dict:
                raise StoreMergeError(
                    "suite specs differ between {!r} and {!r}; shards of the "
                    "same suite share one spec".format(spec_source, store.path)
                )

        # -- shard-provenance compatibility --------------------------------
        provenances = [shard_provenance(store) for store in opened]
        counts = set()
        for provenance in provenances:
            if provenance and isinstance(provenance.get("shard"), dict):
                counts.add(provenance["shard"].get("count"))
        if len(counts) > 1:
            raise StoreMergeError(
                "sources carry incompatible shard provenance (shard counts "
                "{}); merge shards of one k-way split at a time".format(
                    sorted(counts)
                )
            )

        # -- record union with conflict detection --------------------------
        merged: List[Dict[str, Any]] = []
        seen: Dict[str, str] = {}
        origin: Dict[str, Optional[str]] = {}
        for store in opened:
            for record in store.results():
                cell = str(record.get("cell"))
                text = json.dumps(record)
                previous = seen.get(cell)
                if previous is None:
                    seen[cell] = text
                    origin[cell] = store.path
                    merged.append(record)
                elif previous != text:
                    raise StoreMergeError(
                        "cell {!r} conflicts between {!r} and {!r}: the "
                        "stored records differ".format(
                            cell, origin[cell], store.path
                        )
                    )
        order = _grid_order(spec_dict)
        if order is not None:
            off_grid = len(order)
            merged.sort(
                key=lambda record: order.get(str(record.get("cell")), off_grid)
            )

        metadata = dict(opened[0].metadata)
        if spec_dict is not None:
            metadata["spec"] = spec_dict
        destination_store = open_store(
            destination,
            suite=opened[0].suite,
            metadata=metadata,
            backend=destination_backend,
            schema=max([SCHEMA_VERSION] + [store.schema for store in opened]),
        )
        destination_store.add_many(merged)
        for store in opened:
            for summary in store.summaries():
                if summary.get("kind") != "shard":
                    destination_store.add_summary(summary)
        destination_store.add_summary(
            {
                "kind": "shard",
                "merged_from": [
                    {
                        "source": store.path,
                        "shard": (provenance or {}).get("shard"),
                        "cells": len(store),
                    }
                    for store, provenance in zip(opened, provenances)
                ],
            }
        )
        return destination_store
    finally:
        for store in opened:
            store.close()


__all__ = [
    "BACKENDS",
    "COMPATIBLE_SCHEMAS",
    "JsonlRunStore",
    "QUERY_FIELDS",
    "RunStoreBase",
    "SCHEMA_VERSION",
    "SQLITE_EXTENSIONS",
    "SqliteRunStore",
    "StoreCorruptError",
    "StoreMergeError",
    "StoreSchemaError",
    "backend_for_path",
    "convert_store",
    "merge_stores",
    "open_store",
    "read_records",
    "shard_provenance",
]
