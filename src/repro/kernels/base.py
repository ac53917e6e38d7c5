"""Kernel interface and tier spec for the hot flat-array loops.

A **kernel** is one implementation of the small set of index-space
primitives that dominate the reproduction's wall-clock time: frontier
expansion (the inner loop of every BFS), restricted BFS layering,
multi-source BFS to exhaustion (eccentricities / reachability), every
cluster's exact diameter, and the weak carving's proposal steps.  The
:class:`repro.graphs.csr.CSRGraph` primitives and the weak-carving phase
loop dispatch through the ambient kernel (see :mod:`repro.kernels`) instead
of hardcoding one loop shape, which is what lets the ``numpy`` tier
vectorise the hot paths without forking the algorithms.

Contracts shared by every kernel (asserted by the differential tests):

* all primitives work in **index space** over a frozen
  :class:`~repro.graphs.csr.CSRGraph` (int32 ``indptr``/``indices``), with
  ``bytearray`` masks whose mutations are visible to the caller;
* :meth:`Kernel.frontier_expand` must return the newly reached indices in
  **first-discovery order** — the order produced by scanning the frontier
  list in order and each CSR row ascending — so every tier yields not just
  equal sets but byte-identical layer lists, dict insertion orders and
  tie-breaks;
* :meth:`Kernel.proposal_engine` returns a :class:`ProposalEngine` for
  every input the weak carving accepts; the ``pure`` tier's engine is the
  seed's dict driver, the oracle every other engine is differenced
  against.  :func:`carving_bits` is the one identifier policy both
  engines apply before any phase.
"""

from __future__ import annotations

import dataclasses
import numbers
import weakref
from typing import Any, Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple


class CarvedCluster(NamedTuple):
    """One surviving cluster of an engine-run weak carving.

    ``tree_nodes[i]`` joined the cluster through ``tree_parents[i]``; with
    ``root`` (whose parent is ``None``) they form the cluster's Steiner
    tree, already pruned to the paths from the members to the root.
    """

    label: int
    root: Any
    members: List[Any]
    tree_nodes: List[Any]
    tree_parents: List[Any]


class ProposalEngine:
    """A whole weak carving, run by the kernel in its own index space.

    The engine owns the carving state: every node's cluster, Steiner-tree
    parent and depth, and the red-cluster sizes of the current phase.  The
    phase driver (:func:`repro.weak.phases.run_phase`) only counts steps:

    * :meth:`start_phase` splits the alive nodes into blue and red by the
      phase's label bit;
    * :meth:`propose_step` lets every alive blue node with an alive red
      neighbour pick the red neighbour minimising ``(cluster label,
      uid)``.  An engine may scan only the step's *frontier*: every blue
      node on a phase's first step and, after it, the blue neighbours of
      the previous step's joiners.  A blue node that did not propose had
      no red neighbour, red nodes stay red within a phase and every
      proposer is resolved in its step, so only a joiner can give a blue
      node its first red neighbour.  Returns the number of proposers; 0
      ends the phase;
    * :meth:`resolve_step` settles every target cluster at once: it
      accepts its proposers when their number is at least ``threshold``
      times its size, and otherwise kills them.

    A node never re-enters a cluster it left (it leaves in the phase of a
    bit where the old label has 0 and the new one 1, and later phases
    keep lower bits), so a cluster's tree gains each node at most once.
    :meth:`clusters` prunes the trees of the surviving clusters once, at
    the end.  Every tier's proposals, verdicts, step counts and tree
    depths equal the ``pure`` engine's; the differential tests drive both.
    """

    #: Identifier bits of the participants: the number of phases.
    bits: int = 0

    def start_phase(self, bit: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def propose_step(self) -> int:  # pragma: no cover - interface
        """Collect the frontier's proposals; return how many there are."""
        raise NotImplementedError

    def resolve_step(self, threshold: float) -> Tuple[int, int]:  # pragma: no cover
        """Settle the last :meth:`propose_step`: ``(joined, killed)``."""
        raise NotImplementedError

    def max_tree_depth(self) -> int:  # pragma: no cover - interface
        """The deepest join so far (a root has depth 0)."""
        raise NotImplementedError

    def clusters(self) -> List[CarvedCluster]:  # pragma: no cover - interface
        """The surviving clusters in ascending label order."""
        raise NotImplementedError

    def dead(self) -> List[Any]:  # pragma: no cover - interface
        """The nodes the carving killed."""
        raise NotImplementedError


# csr -> why its uids cannot label weak-carving clusters ("" when they can).
_UID_REFUSALS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def carving_bits(csr: Any, uids: Collection[Any]) -> int:
    """The weak carving's identifier policy: how many bit phases a carving
    of the nodes with ``uids`` (some of ``csr.uids``) runs.

    A cluster is labelled by its root's uid and the phases split clusters
    by label bits, so every uid of the index must be an integer and no two
    may be equal (node labels stand in for missing ``"uid"`` attributes);
    otherwise this raises ``ValueError`` naming the node(s) and the remedy.
    The check runs once per index: Theorem 2.1 carves one graph many
    times.  The count is the two's-complement width that tells ``uids``
    apart: the longest ``bit_length`` (at least 1), plus a sign bit when
    some uid is negative.
    """
    refusal = _UID_REFUSALS.get(csr)
    if refusal is None:
        refusal = ""
        first: Dict[Any, int] = {}
        for i, uid in enumerate(csr.uids):
            if not isinstance(uid, numbers.Integral):
                refusal = "integer node uids, but node {!r} has uid {!r}".format(
                    csr.nodes[i], uid
                )
                break
            j = first.setdefault(uid, i)
            if j != i:
                refusal = "distinct node uids, but nodes {!r} and {!r} share uid {!r}".format(
                    csr.nodes[j], csr.nodes[i], uid
                )
                break
        _UID_REFUSALS[csr] = refusal
    if refusal:
        raise ValueError(
            "the weak-diameter carving needs {}; attach unique integer uids "
            "with repro.graphs.assign_unique_identifiers(graph)".format(refusal)
        )
    lowest, highest = int(min(uids)), int(max(uids))
    return max(1, lowest.bit_length(), highest.bit_length()) + (lowest < 0)


class Kernel:
    """One implementation tier of the hot-path primitives.

    The base class implements :meth:`bfs_layers` and
    :meth:`multi_source_bfs` in terms of :meth:`frontier_expand`, so a tier
    only has to provide the expansion step (plus whatever sweeps it wants to
    accelerate) to participate.
    """

    name: str = "?"

    # ------------------------------------------------------------------ #
    # BFS primitives
    # ------------------------------------------------------------------ #
    def frontier_expand(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> List[int]:
        """One BFS step: the unblocked neighbours of ``frontier``.

        Marks every returned index in ``blocked`` (which doubles as the
        visited mask) and returns them in first-discovery order.
        """
        raise NotImplementedError  # pragma: no cover - interface

    def bfs_layers(
        self,
        csr: Any,
        frontier: List[int],
        blocked: bytearray,
        max_radius: Optional[int] = None,
    ) -> List[List[int]]:
        """BFS layers of node indices; layer 0 is the (pre-marked) frontier.

        The caller has already resolved labels to indices and marked the
        frontier in ``blocked``; only non-empty subsequent layers are
        appended.  ``CSRGraph._layers`` is the label-space entry.
        """
        layers: List[List[int]] = [frontier]
        radius = 0
        while frontier and (max_radius is None or radius < max_radius):
            frontier = self.frontier_expand(csr, frontier, blocked)
            if not frontier:
                break
            layers.append(frontier)
            radius += 1
        return layers

    def multi_source_bfs(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> Tuple[int, int]:
        """BFS from ``frontier`` to exhaustion: ``(eccentricity, reached)``.

        ``reached`` counts every visited index including the sources;
        ``eccentricity`` is the number of non-empty layers beyond layer 0.
        The frontier must already be marked in ``blocked``.
        """
        depth = 0
        reached = len(frontier)
        while frontier:
            frontier = self.frontier_expand(csr, frontier, blocked)
            if not frontier:
                break
            reached += len(frontier)
            depth += 1
        return depth, reached

    def cluster_diameters(
        self,
        csr: Any,
        clusters: Sequence[Sequence[int]],
        induced: bool,
        blocked: Optional[bytearray] = None,
    ) -> List[int]:
        """The exact diameter of every cluster of member indices.

        ``induced=True`` measures strong diameters: paths stay inside their
        own cluster.  ``induced=False`` measures weak diameters: paths may
        run through any index not marked in ``blocked`` (``None`` blocks
        nothing; the mask is not mutated).  Members must be unblocked.
        Raises ``ValueError`` when some cluster is disconnected in that
        sense.  This base version is the per-source oracle: one BFS per
        member.  Its strong branch is also the validators' path:
        :meth:`repro.graphs.csr.CSRGraph.induced_diameter` calls it on the
        base class, whatever the active kernel.
        """
        n = csr.n
        diameters = [0] * len(clusters)
        if induced:
            # Non-members stay blocked forever; members are re-opened before
            # each source's BFS and closed again after their cluster.
            seen = bytearray(b"\x01") * n
            for position, members in enumerate(clusters):
                k = len(members)
                if k <= 1:
                    continue
                diameter = 0
                for source in members:
                    for i in members:
                        seen[i] = 0
                    seen[source] = 1
                    depth, reached = self.multi_source_bfs(csr, [source], seen)
                    if reached != k:
                        raise ValueError(
                            "cluster {} is disconnected; strong diameter "
                            "undefined".format(position)
                        )
                    diameter = max(diameter, depth)
                for i in members:
                    seen[i] = 1
                diameters[position] = diameter
            return diameters
        seen = bytearray(blocked) if blocked is not None else bytearray(n)
        member = bytearray(n)
        for position, members in enumerate(clusters):
            k = len(members)
            if k <= 1:
                continue
            for i in members:
                member[i] = 1
            diameter = 0
            for source in members:
                seen[source] = 1
                touched = [source]
                frontier = [source]
                found, depth = 1, 0
                while frontier and found < k:
                    frontier = self.frontier_expand(csr, frontier, seen)
                    depth += 1
                    touched.extend(frontier)
                    hits = sum(member[i] for i in frontier)
                    if hits:
                        found += hits
                        diameter = max(diameter, depth)
                for i in touched:
                    seen[i] = 0
                if found != k:
                    raise ValueError(
                        "cluster {} is disconnected in the host graph; weak "
                        "diameter undefined".format(position)
                    )
            for i in members:
                member[i] = 0
            diameters[position] = diameter
        return diameters

    def bfs_tree_parents(
        self, csr: Any, layers: List[List[int]]
    ) -> List[List[int]]:
        """BFS-tree parents per layer, in index space.

        For each node of ``layers[d]`` (``d >= 1``), its parent is its
        neighbour in ``layers[d - 1]`` with the **smallest uid** (the least
        ``csr.uid_rank``) — a choice that does not depend on node or edge
        insertion order, and the one rule a CONGEST node can follow from
        its neighbours' uids.  Returns one list per layer ``d >= 1``,
        aligned with ``layers[d]``.  Every node below layer 0 is guaranteed
        a parent (BFS layers are derived from the same adjacency), so no
        sentinel values appear.
        """
        indptr = csr.indptr
        indices = csr.indices
        rank = csr.uid_rank
        previous = bytearray(csr.n)
        for i in layers[0]:
            previous[i] = 1
        parents: List[List[int]] = []
        for depth in range(1, len(layers)):
            layer = layers[depth]
            found: List[int] = []
            for i in layer:
                best = -1
                for j in indices[indptr[i] : indptr[i + 1]]:
                    if previous[j] and (best < 0 or rank[j] < rank[best]):
                        best = j
                found.append(best)
            parents.append(found)
            for i in layers[depth - 1]:
                previous[i] = 0
            for i in layer:
                previous[i] = 1
        return parents

    # ------------------------------------------------------------------ #
    # Weak-carving proposal engine
    # ------------------------------------------------------------------ #
    def proposal_engine(
        self, csr: Any, participating: Collection[Any]
    ) -> ProposalEngine:
        """An engine running one weak carving of ``participating``.

        Labels and tie-breaks come from ``csr.uids``; :func:`carving_bits`
        refuses an index whose uids cannot label clusters.
        """
        raise NotImplementedError  # pragma: no cover - interface


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """One registered kernel tier.

    Attributes:
        name: The kernel string (``"pure"``, ``"numpy"``).
        description: One line for ``--list-kernels`` output and the docs.
        factory: Zero-argument callable building the :class:`Kernel`
            (the tier's module is imported inside it, so merely
            registering a tier imports nothing).
    """

    name: str
    description: str
    factory: Callable[[], Kernel]
