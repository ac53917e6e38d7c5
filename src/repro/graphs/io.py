"""Graph and clustering I/O.

A downstream user of the library needs to get their own networks in and the
computed clusterings out.  This module provides a small, dependency-free
interchange format:

* **edge lists with identifiers** — plain text, one ``u v`` pair per line,
  preceded by optional ``# uid u id`` lines assigning identifiers (graphs
  without such lines get identifiers assigned on load).  Integer labels are
  written bare; string labels that would otherwise be misread as integers
  (``"5"``) are JSON-quoted so the round trip preserves the label *type*;
* **clustering JSON** — a decomposition or carving serialised as JSON with
  the cluster node lists, colors, dead nodes and summary metadata, so results
  can be archived and compared across runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.decomposition import NetworkDecomposition
from repro.graphs.generators import assign_unique_identifiers


def _render_label(node: Any) -> str:
    """Render a node label as a whitespace-free edge-list token.

    Integers are written bare.  String labels are written bare too unless
    they would be misparsed on load — all-digit strings (``"5"`` vs ``5``),
    strings opening with a double quote or ``#`` (which would read back as a
    comment line), or empty strings — in which case they are JSON-quoted so
    :func:`_parse_label` can restore the exact value and type.  Labels
    containing whitespace cannot be represented in the line-oriented format
    and are rejected rather than silently corrupting the file.
    """
    if isinstance(node, str):
        if any(ch.isspace() for ch in node):
            raise ValueError(
                "edge-list labels may not contain whitespace: {!r}".format(node)
            )
        needs_quoting = node == "" or node.startswith(('"', "#"))
        if not needs_quoting:
            try:
                int(node)
                needs_quoting = True
            except ValueError:
                pass
        return json.dumps(node) if needs_quoting else node
    return str(node)


def _parse_label(token: str) -> Any:
    """Invert :func:`_render_label`: JSON-quoted → str, digits → int, else str."""
    if token.startswith('"'):
        return json.loads(token)
    try:
        return int(token)
    except ValueError:
        return token


def write_edge_list(graph: nx.Graph, path: str) -> None:
    """Write ``graph`` as a text edge list with ``# uid`` header lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for node in sorted(graph.nodes(), key=str):
            uid = graph.nodes[node].get("uid")
            if uid is not None:
                handle.write("# uid {} {}\n".format(_render_label(node), uid))
        for u, v in sorted(graph.edges(), key=lambda edge: (str(edge[0]), str(edge[1]))):
            handle.write("{} {}\n".format(_render_label(u), _render_label(v)))


def read_edge_list(path: str) -> nx.Graph:
    """Read a graph written by :func:`write_edge_list`.

    Bare tokens are parsed as integers when possible (falling back to
    strings) and JSON-quoted tokens always as strings, so label types
    survive the round trip; nodes that did not receive a ``# uid`` line get
    identifiers assigned deterministically after loading.
    """
    parse = _parse_label

    graph = nx.Graph()
    uids: Dict[Any, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "uid":
                    node = parse(parts[1])
                    uids[node] = int(parts[2])
                    # A uid line also declares the node, so isolated nodes
                    # survive the round trip.
                    graph.add_node(node)
                continue
            tokens = line.split()
            if len(tokens) == 1:
                graph.add_node(parse(tokens[0]))
            elif len(tokens) >= 2:
                graph.add_edge(parse(tokens[0]), parse(tokens[1]))
    nodes = list(graph.nodes())
    nx.set_node_attributes(graph, dict(zip(nodes, complete_uids(nodes, uids))), "uid")
    return graph


def complete_uids(nodes: Sequence[Any], headers: Dict[Any, int]) -> List[int]:
    """Every node's uid: its ``# uid`` header, else the next unused integer.

    Nodes without a header take the smallest uids no header holds, in the
    string order of their labels, whatever order the file lists them in.
    :func:`read_edge_list` and the streaming ingester
    (:func:`repro.graphs.memmap.ingest_edge_list`) both apply this rule, so
    they build the same graph.
    """
    used = set(headers.values())
    assigned: Dict[Any, int] = {}
    next_uid = 0
    for node in sorted((node for node in nodes if node not in headers), key=str):
        while next_uid in used:
            next_uid += 1
        assigned[node] = next_uid
        used.add(next_uid)
    return [headers[node] if node in headers else assigned[node] for node in nodes]


def _cluster_payload(cluster) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "label": list(cluster.label) if isinstance(cluster.label, tuple) else cluster.label,
        "nodes": sorted(cluster.nodes, key=str),
    }
    if cluster.color is not None:
        payload["color"] = cluster.color
    return payload


def clustering_to_dict(result: Union[BallCarving, NetworkDecomposition]) -> Dict[str, Any]:
    """Serialise a carving or decomposition into a JSON-compatible dictionary."""
    if isinstance(result, BallCarving):
        return {
            "type": "ball_carving",
            "kind": result.kind,
            "eps": result.eps,
            "n": result.graph.number_of_nodes(),
            "rounds": result.rounds,
            "dead": sorted(result.dead, key=str),
            "clusters": [_cluster_payload(cluster) for cluster in result.clusters],
        }
    if isinstance(result, NetworkDecomposition):
        return {
            "type": "network_decomposition",
            "kind": result.kind,
            "n": result.graph.number_of_nodes(),
            "colors": result.num_colors,
            "rounds": result.rounds,
            "clusters": [_cluster_payload(cluster) for cluster in result.clusters],
        }
    raise TypeError("unsupported result type {!r}".format(type(result)))


def write_clustering(result: Union[BallCarving, NetworkDecomposition], path: str) -> None:
    """Write a carving or decomposition to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(clustering_to_dict(result), handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def read_clustering(path: str) -> Dict[str, Any]:
    """Read a clustering JSON file back into a plain dictionary.

    The result is returned as data (not reconstructed into the library's
    types) because the host graph is not stored in the file; callers that
    need full objects should keep the graph alongside the JSON.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("type") not in ("ball_carving", "network_decomposition"):
        raise ValueError("file {!r} does not contain a clustering payload".format(path))
    return payload
