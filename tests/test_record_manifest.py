"""The committed record manifest holds: every pinned cell reruns to its digest.

``tests/record_manifest.py`` defines the grids and writes the manifest;
here the n=128 grids run serially, with two pool workers (forced, whatever
the host's CPU count) and on the seed's scalar loops
(``tests/kernel_oracle.py``), and the n=2,048 cells run serially.  A
failure names each moved cell and its first differing top-level key.  The
memmap, spill, supervised and sharded modes run in CI through the
helper's ``check`` verb.
"""

import functools

import pytest

from tests import record_manifest
from tests.kernel_oracle import use_oracle

MANIFEST = record_manifest.load_manifest()


@functools.lru_cache(maxsize=None)
def serial_records(grid):
    return tuple(record_manifest.run_grid(grid))


def assert_matches(grid, records):
    moved = record_manifest.moved_cells(grid, records, MANIFEST)
    assert not moved, "{} cell(s) moved:\n{}".format(len(moved), "\n".join(moved))


@pytest.mark.parametrize("mode", ["oracle", "serial", "workers2"])
@pytest.mark.parametrize("grid", record_manifest.SMALL_GRIDS)
def test_small_grids_match_the_manifest(grid, mode):
    if mode == "serial":
        records = serial_records(grid)
    elif mode == "oracle":
        with use_oracle():
            records = record_manifest.run_grid(grid)
    else:
        records = record_manifest.run_grid(grid, **record_manifest.RUN_MODES[mode])
    assert_matches(grid, records)


def test_large_cells_match_the_manifest():
    assert_matches("large", serial_records("large"))


def test_manifest_header_holds_every_grid_spec():
    assert MANIFEST["grids"].keys() == record_manifest.GRIDS.keys()
    for grid, spec in record_manifest.GRIDS.items():
        assert MANIFEST["grids"][grid]["spec"] == spec
    assert {"python", "numpy", "networkx"} <= MANIFEST.keys()


def test_a_moved_cell_names_its_first_differing_key():
    records = [dict(record) for record in serial_records("carving")[:3]]
    records[1]["metrics"] = dict(records[1]["metrics"], clusters=-1)
    del records[2]["rounds"]
    moved = record_manifest.moved_cells("carving", records, MANIFEST)
    cells = [record["cell"] for record in records]
    assert moved[0] == "carving: {}: moved; first differing key 'metrics'".format(cells[1])
    assert moved[1].startswith("carving: {}: moved; first differing key ".format(cells[2]))
    # Every cell the three records leave out is named as missing.
    assert len(moved) == 2 + len(MANIFEST["grids"]["carving"]["cells"]) - 3
