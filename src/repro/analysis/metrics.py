"""Metric extraction from carvings and decompositions.

Everything Tables 1 and 2 report — number of colors, cluster diameter (in the
appropriate strong/weak sense), round complexity — plus the quantities the
guarantees are stated over (dead fraction, Steiner congestion, cluster
counts).  All values are *measured* on the produced objects; nothing is read
off the theory.  Diameters come from the clustering's ``geometry``
(:class:`~repro.clustering.geometry.ClusterGeometry`), measured once and
shared with the application tasks.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.clustering.carving import BallCarving
from repro.clustering.decomposition import NetworkDecomposition


@dataclasses.dataclass(frozen=True)
class CarvingMetrics:
    """Measured parameters of one ball carving."""

    algorithm: str
    n: int
    eps: float
    kind: str
    clusters: int
    max_diameter: int
    dead_fraction: float
    congestion: int
    rounds: int

    def as_row(self) -> Dict[str, Any]:
        """Row dictionary for the table renderer."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "eps": round(self.eps, 4),
            "kind": self.kind,
            "clusters": self.clusters,
            "diameter": self.max_diameter,
            "dead%": round(100.0 * self.dead_fraction, 2),
            "congestion": self.congestion,
            "rounds": self.rounds,
        }


@dataclasses.dataclass(frozen=True)
class DecompositionMetrics:
    """Measured parameters of one network decomposition."""

    algorithm: str
    n: int
    kind: str
    colors: int
    clusters: int
    max_diameter: int
    rounds: int

    def as_row(self) -> Dict[str, Any]:
        """Row dictionary for the table renderer."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "kind": self.kind,
            "colors": self.colors,
            "clusters": self.clusters,
            "diameter": self.max_diameter,
            "rounds": self.rounds,
        }


def evaluate_carving(carving: BallCarving, algorithm: str) -> CarvingMetrics:
    """Measure the Table 2 quantities of a ball carving."""
    return CarvingMetrics(
        algorithm=algorithm,
        n=carving.graph.number_of_nodes(),
        eps=carving.eps,
        kind=carving.kind,
        clusters=len(carving.clusters),
        max_diameter=carving.geometry.max_diameter,
        dead_fraction=carving.dead_fraction,
        congestion=carving.congestion(),
        rounds=carving.rounds,
    )


def evaluate_decomposition(
    decomposition: NetworkDecomposition, algorithm: str
) -> DecompositionMetrics:
    """Measure the Table 1 quantities of a network decomposition."""
    return DecompositionMetrics(
        algorithm=algorithm,
        n=decomposition.graph.number_of_nodes(),
        kind=decomposition.kind,
        colors=decomposition.num_colors,
        clusters=len(decomposition.clusters),
        max_diameter=decomposition.geometry.max_diameter,
        rounds=decomposition.rounds,
    )
