"""Every cluster's exact diameter, measured once per clustering.

A clustering's geometry is fixed, so the metrics (the ``diameter`` column
of Tables 1 and 2) and the application tasks (the per-color ``D`` of the
``C * D`` template) all read one :class:`ClusterGeometry`, built by the
``geometry`` property of
:class:`~repro.clustering.decomposition.NetworkDecomposition` and
:class:`~repro.clustering.carving.BallCarving`.  The measurement runs
on the root's CSR index through the kernel's
:meth:`~repro.kernels.base.Kernel.cluster_diameters` — bit-parallel sweeps
over a whole clustering.  A clustering the measurement refuses (a member
outside the graph, a disconnected cluster, two clusters sharing a member)
goes to the validators' scalar
:func:`~repro.clustering.validation.strong_diameter` /
:func:`~repro.clustering.validation.weak_diameter`, which raise the
validators' own error for it.  The validators keep their own scalar path: a
checker must not trust a measurement.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.clustering.cluster import Cluster


@dataclasses.dataclass(frozen=True)
class ClusterGeometry:
    """Exact per-cluster diameters of one clustering.

    Attributes:
        diameters: Each cluster's diameter, aligned with the clustering's
            ``clusters`` list.
        max_diameter: The largest diameter (0 without clusters) — the
            parameter ``D``.
        color_diameters: Largest diameter per cluster color (carvings,
            whose clusters carry no color, have the single key ``None``);
            read-only by contract.
    """

    diameters: Tuple[int, ...]
    max_diameter: int
    color_diameters: Dict[Optional[int], int]

    @classmethod
    def measure(
        cls, graph: nx.Graph, clusters: Sequence[Cluster], kind: str
    ) -> "ClusterGeometry":
        """Measure every cluster's ``kind`` (``"strong"`` or ``"weak"``)
        diameter on ``graph``.

        Raises :class:`~repro.clustering.validation.ValidationError` on a
        disconnected cluster, exactly as the scalar validators do.
        """
        diameters = _indexed_diameters(graph, clusters, kind)
        if diameters is None:
            from repro.clustering.validation import strong_diameter, weak_diameter

            measure = strong_diameter if kind == "strong" else weak_diameter
            diameters = [measure(graph, cluster.nodes) for cluster in clusters]
        color_diameters: Dict[Optional[int], int] = {}
        for cluster, diameter in zip(clusters, diameters):
            if diameter >= color_diameters.get(cluster.color, 0):
                color_diameters[cluster.color] = diameter
        return cls(
            diameters=tuple(diameters),
            max_diameter=max(diameters, default=0),
            color_diameters=color_diameters,
        )


def _indexed_diameters(
    graph: nx.Graph, clusters: Sequence[Cluster], kind: str
) -> Optional[List[int]]:
    """The kernel measurement on the CSR index, or ``None``.

    ``None`` sends the caller to the scalar path: a member lies outside
    ``graph``, some cluster is disconnected, or two clusters share a
    member — the scalar path then measures each cluster alone, or raises
    the validators' own error for it.  A node-induced view measures
    on its root's index with the view's nodes as the allowed set, which
    :func:`repro.graphs.csr.csr_restriction` resolves.
    """
    # Imported here: repro.graphs imports the clustering types (graphs.io).
    from repro.graphs.csr import csr_restriction
    from repro.kernels import active_kernel

    csr, allowed = csr_restriction(graph)
    index = csr.index
    blocked = None
    if allowed is not None:
        blocked = bytearray(b"\x01") * csr.n
        for node in allowed:
            blocked[index[node]] = 0
    members: List[List[int]] = []
    for cluster in clusters:
        indices = [index.get(node) for node in cluster.nodes]
        if None in indices or (
            blocked is not None and any(blocked[i] for i in indices)
        ):
            return None
        members.append(indices)
    try:
        return active_kernel().cluster_diameters(
            csr, members, kind == "strong", blocked
        )
    except ValueError:
        return None
