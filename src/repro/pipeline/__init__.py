"""Batched experiment pipeline: scenario registry, suite runner, run store.

This subpackage turns the reproduction's experiments into data:

* :mod:`repro.pipeline.scenarios` — named workload families
  (:func:`register_scenario`, :func:`get_scenario`, :func:`list_scenarios`);
* :mod:`repro.pipeline.runner` — :class:`SuiteSpec` grids expanded into
  cells, scheduled **column-batched** (one topology build per grid column)
  and fanned out over a ``multiprocessing`` pool (:func:`run_suite`), with
  deterministic per-cell seed derivation;
* :mod:`repro.pipeline.arena` — the zero-copy shared-memory
  :class:`CSRArena` that publishes each column's frozen CSR graph once and
  lets pool workers reattach it without rebuilds or pickled adjacency;
* :mod:`repro.pipeline.backends` — the pluggable run-store backends behind
  the :class:`RunStoreBase` interface: the canonical JSON-lines
  :class:`RunStore` (schema versioning, fsynced appends,
  resume-after-partial-run) and the indexed WAL-mode
  :class:`SqliteRunStore`, selected by :func:`open_store` and converted
  losslessly by :func:`convert_store`.

See ``docs/pipeline.md`` for the suite spec format, the store-backend
selection rules and a worked example.
"""

from repro.pipeline.arena import CSRArena, SegmentDescriptor, shared_memory_available
from repro.pipeline.runner import (
    Cell,
    SuiteResult,
    SuiteSpec,
    derive_cell_seed,
    load_spec,
    parse_shard,
    run_suite,
    shard_cells,
    shard_of,
)
from repro.pipeline.scenarios import (
    Scenario,
    build_workload,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.pipeline.backends import (
    BACKENDS,
    COMPATIBLE_SCHEMAS,
    SCHEMA_VERSION,
    JsonlRunStore as RunStore,
    RunStoreBase,
    SqliteRunStore,
    StoreCorruptError,
    StoreMergeError,
    StoreSchemaError,
    backend_for_path,
    convert_store,
    merge_stores,
    open_store,
    read_records,
    shard_provenance,
)

__all__ = [
    "Cell",
    "CSRArena",
    "SegmentDescriptor",
    "shared_memory_available",
    "SuiteResult",
    "SuiteSpec",
    "derive_cell_seed",
    "load_spec",
    "parse_shard",
    "run_suite",
    "shard_cells",
    "shard_of",
    "Scenario",
    "build_workload",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "BACKENDS",
    "COMPATIBLE_SCHEMAS",
    "SCHEMA_VERSION",
    "RunStore",
    "RunStoreBase",
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
