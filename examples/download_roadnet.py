"""Real-world workload: run the pipeline on a public road-network edge list.

Road networks are the classic "almost planar, locally sparse, huge
diameter" workload — the opposite end of the spectrum from the expander
scenarios, and exactly the regime where strong-diameter guarantees are
interesting.  This example

1. fetches a slice of a public road-network edge list (SNAP's
   ``roadNet-TX``), **streaming** the gzip download and stopping after
   ``--max-edges`` lines so only a few hundred kilobytes ever cross the
   network;
2. falls back to the committed fixture ``examples/data/roadnet_tiny.edges``
   whenever the download is unavailable (offline CI, firewalled boxes,
   ``--offline``) — the example always runs;
3. extracts the largest connected component, caps it at ``--max-nodes``
   nodes (breadth-first from the smallest node id, so the slice is a
   connected road patch, not confetti), and writes it in the repository's
   edge-list format;
4. drives the standard suite pipeline over it through the ``edgelist:``
   scenario — every method of the paper on the same real topology — and
   prints the resulting table.

With ``--full`` the example switches to the **out-of-core** path: the whole
SNAP file (roadNet-TX: ~1.4M nodes, ~1.9M edges) is streamed to disk, the
streaming ingester converts it into a memory-mapped ``.csrbin`` CSR, and
the suite runs with the run option ``graph_backend="memmap"`` and the
partitioned decomposition — no networkx object is ever built for the full
graph, so the resident set stays bounded.  ``--offline --full`` exercises the same
memmap pipeline on the committed fixture, so the path is testable without
a network.

Run it::

    PYTHONPATH=src python examples/download_roadnet.py             # tries the download
    PYTHONPATH=src python examples/download_roadnet.py --offline   # fixture only
    PYTHONPATH=src python examples/download_roadnet.py --full      # whole graph, memmap
"""

import argparse
import gzip
import os
import sys

import networkx as nx

import repro
from repro.analysis.tables import format_table, rows_from_records
from repro.graphs.generators import assign_unique_identifiers
from repro.graphs.io import read_edge_list, write_edge_list

DEFAULT_URL = "https://snap.stanford.edu/data/roadNet-TX.txt.gz"
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIXTURE = os.path.join(DATA_DIR, "roadnet_tiny.edges")


def stream_edges(url, max_edges, timeout):
    """Yield up to ``max_edges`` edges from a gzipped edge-list URL.

    gzip decompresses strictly in stream order, so reading the first
    ``max_edges`` data lines downloads only the prefix of the file — the
    connection is closed long before the multi-megabyte tail.
    """
    from urllib.request import urlopen

    edges = []
    with urlopen(url, timeout=timeout) as response:
        with gzip.GzipFile(fileobj=response) as stream:
            for raw in stream:
                line = raw.decode("utf-8", "replace").strip()
                if not line or line.startswith("#"):
                    continue
                tokens = line.split()
                if len(tokens) >= 2:
                    edges.append((int(tokens[0]), int(tokens[1])))
                    if len(edges) >= max_edges:
                        break
    return edges


def stream_full_edgelist(url, dest, timeout):
    """Stream the *entire* gzipped edge list to ``dest`` — no graph object.

    Lines pass through as ``u v`` text; the streaming ingester downstream
    handles comment filtering, dedup and CSR construction, so this function
    needs O(1) memory however large the file is.
    """
    from urllib.request import urlopen

    lines = 0
    with urlopen(url, timeout=timeout) as response:
        with gzip.GzipFile(fileobj=response) as stream:
            with open(dest, "w", encoding="utf-8") as out:
                for raw in stream:
                    line = raw.decode("utf-8", "replace").strip()
                    if not line or line.startswith("#"):
                        continue
                    tokens = line.split()
                    if len(tokens) >= 2:
                        out.write("{} {}\n".format(int(tokens[0]), int(tokens[1])))
                        lines += 1
    return lines


def road_patch(edges, max_nodes):
    """The largest component of ``edges``, trimmed to a connected patch."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    component = max(nx.connected_components(graph), key=len)
    graph = graph.subgraph(component)
    if graph.number_of_nodes() > max_nodes:
        root = min(graph.nodes())
        keep = [root]
        for _, node in nx.bfs_edges(graph, root):
            keep.append(node)
            if len(keep) >= max_nodes:
                break
        graph = graph.subgraph(keep)
        component = max(nx.connected_components(graph), key=len)
        graph = graph.subgraph(component)
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    return assign_unique_identifiers(graph, seed=0)


def obtain_workload(args):
    """The road-network edge-list path: downloaded slice, or the fixture."""
    if args.full and not args.offline:
        try:
            print("downloading the full {} ...".format(args.url))
            path = os.path.join(DATA_DIR, "roadnet_full.edges")
            lines = stream_full_edgelist(args.url, path, args.timeout)
            print("streamed {} edge lines -> {}".format(lines, path))
            return path
        except Exception as error:  # offline CI, DNS failure, moved dataset...
            print("download unavailable ({}); using the committed fixture".format(error))
    elif not args.offline:
        try:
            print("downloading {} (first {} edges)...".format(args.url, args.max_edges))
            edges = stream_edges(args.url, args.max_edges, args.timeout)
            graph = road_patch(edges, args.max_nodes)
            path = os.path.join(DATA_DIR, "roadnet_sample.edges")
            write_edge_list(graph, path)
            print(
                "downloaded road patch: {} nodes, {} edges -> {}".format(
                    graph.number_of_nodes(), graph.number_of_edges(), path
                )
            )
            return path
        except Exception as error:  # offline CI, DNS failure, moved dataset...
            print("download unavailable ({}); using the committed fixture".format(error))
    graph = read_edge_list(FIXTURE)
    print(
        "fixture road network: {} nodes, {} edges ({})".format(
            graph.number_of_nodes(), graph.number_of_edges(), FIXTURE
        )
    )
    return FIXTURE


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=DEFAULT_URL, help="gzipped edge-list URL")
    parser.add_argument(
        "--max-edges", type=int, default=4000, help="edges to read from the stream"
    )
    parser.add_argument(
        "--max-nodes", type=int, default=600, help="node cap of the extracted patch"
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="download timeout in seconds"
    )
    parser.add_argument(
        "--offline",
        action="store_true",
        help="skip the download and use the committed fixture",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="stream the whole SNAP graph and run it out-of-core on the "
        "memmap graph backend (with --offline: the fixture, same pipeline)",
    )
    parser.add_argument(
        "--partition-nodes",
        type=int,
        default=250_000,
        help="chunk budget for the partitioned decomposition in --full mode",
    )
    args = parser.parse_args(argv)

    path = obtain_workload(args)
    spec = {
        "name": "roadnet",
        "scenarios": ["edgelist:" + path],
        "sizes": [0],  # the file fixes the size
        "methods": ["strong-log3", "strong-log2", "mpx", "sequential"],
        "mode": "decomposition",
    }
    title = "road network — every strong method on one real topology"
    options = {}
    if args.full:
        # Million-node regime: one randomized strong method, BFS-partitioned,
        # with the topology living in a memory-mapped CSR file instead of
        # the heap.  The conversion cache and scratch land in a temp dir so
        # the repository tree stays clean.  Where the graph lives is a run
        # option; the partition budget changes the decomposition, so it is
        # part of the spec.
        import tempfile

        options = {
            "graph_backend": "memmap",
            "spill_dir": tempfile.mkdtemp(prefix="roadnet-ooc-"),
        }
        spec.update(
            {
                "methods": ["mpx"],
                "partition_nodes": args.partition_nodes,
                "validate": False,  # validation walks the whole graph
            }
        )
        title = "road network — out-of-core (memmap CSR, partitioned mpx)"
        print("graph backend: memmap (partition budget {} nodes)".format(
            args.partition_nodes
        ))
    try:
        result = repro.run_suite(spec, **options)
    finally:
        if "spill_dir" in options:
            import shutil

            shutil.rmtree(options["spill_dir"], ignore_errors=True)
    print()
    print(format_table(rows_from_records(result.records), title=title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
