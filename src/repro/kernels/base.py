"""The kernel interface: the hot flat-array loops' contracts.

The **kernel** implements the small set of index-space primitives that
dominate the reproduction's wall-clock time: frontier expansion (the inner
loop of every BFS), restricted BFS layering, multi-source BFS to
exhaustion (eccentricities / reachability), BFS-tree parents, every
cluster's exact diameter, and the weak carving's proposal steps.  The
:class:`repro.graphs.csr.CSRGraph` primitives and the weak-carving phase
loop dispatch through :func:`repro.kernels.active_kernel` instead of
hardcoding one loop shape.

Contracts (the test suite's oracle, the seed's scalar loops, is held to
the same ones and differenced against the kernel):

* all primitives work in **index space** over a frozen
  :class:`~repro.graphs.csr.CSRGraph` (int32 ``indptr``/``indices``), with
  ``bytearray`` masks whose mutations are visible to the caller;
* :meth:`Kernel.frontier_expand` must return the newly reached indices in
  **first-discovery order** — the order produced by scanning the frontier
  list in order and each CSR row ascending — so layers are not just equal
  sets but byte-identical lists, and dict insertion orders and tie-breaks
  follow;
* :meth:`Kernel.proposal_engine` returns a :class:`ProposalEngine` for
  every input the weak carving accepts: one engine runs the carvings of
  several disjoint, pairwise non-adjacent groups in lockstep, each as if
  alone.  :func:`carving_bits` is the one identifier policy every engine
  applies, per group, before any phase.
"""

from __future__ import annotations

import numbers
import weakref
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class CarvedClusters(NamedTuple):
    """The surviving clusters of an engine-run weak carving, in index space.

    Clusters come in ascending label order.  Cluster ``c`` is labelled
    ``labels[c]`` (its root's uid), rooted at index ``roots[c]`` and holds
    the indices ``members[bounds[c]:bounds[c + 1]]``.  The indices
    ``tree_nodes[tree_bounds[c]:tree_bounds[c + 1]]`` joined it through the
    aligned ``tree_parents``; with the root (whose parent is ``None``) they
    form its Steiner tree, already pruned to the members' paths to the
    root.  ``depths[c]`` is that tree's depth (its deepest member's join
    depth), and ``congestion`` the most trees sharing one edge.
    """

    labels: List[Any]
    roots: np.ndarray
    members: np.ndarray
    bounds: List[int]
    depths: List[int]
    tree_nodes: np.ndarray
    tree_parents: np.ndarray
    tree_bounds: List[int]
    congestion: int


class ProposalEngine:
    """Whole weak carvings, run by the kernel in its own index space.

    An engine carves one or more *groups*: disjoint, pairwise non-adjacent
    sets of node indices, each the node set of one carving.  No edge joins
    two groups, so their carvings do not interact, and the engine runs
    their bit phases in lockstep: each group keeps its own phase count
    (``bits[g]``, from :func:`carving_bits`), its own acceptance
    threshold, its own steps and tree depths, and its own clusters and
    dead nodes, exactly as if it were carved alone.  Past its own phases
    a group's clusters are pairwise non-adjacent, so the later phases of
    the engine find no proposer in it.

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
      node its first red neighbour.  Returns the number of proposers over
      all groups; 0 ends the phase;
    * :meth:`resolve_step` settles every target cluster at once: it
      accepts its proposers when their number is at least its group's
      threshold times its size, and otherwise kills them.

    A group that has a step without proposers has no joiners, so it stays
    without proposers for the rest of the phase: its step count is the
    number of steps it took part in (:meth:`phase_steps`).  A node never
    re-enters a cluster it left (it leaves in the phase of a bit where the
    old label has 0 and the new one 1, and later phases keep lower bits),
    so a cluster's tree gains each node at most once.  :meth:`clusters`
    prunes the trees of the surviving clusters once, at the end, and
    reports their depths and congestion with them.  Nodes are named by
    their index in the CSR graph throughout.  The kernel's proposals,
    verdicts, step counts and tree depths equal the test oracle's dict
    engine's, the seed's driver.
    """

    #: Identifier bits of each group's participants: its number of phases.
    bits: List[int]

    def start_phase(self, bit: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def propose_step(self) -> int:  # pragma: no cover - interface
        """Collect the frontier's proposals; return how many there are."""
        raise NotImplementedError

    def resolve_step(self, thresholds: Sequence[float]) -> Tuple[int, int]:  # pragma: no cover
        """Settle the last :meth:`propose_step` with each group's threshold:
        ``(joined, killed)``."""
        raise NotImplementedError

    def phase_steps(self) -> List[int]:  # pragma: no cover - interface
        """Each group's steps with proposers in the current phase."""
        raise NotImplementedError

    def max_tree_depths(self) -> List[int]:  # pragma: no cover - interface
        """Each group's deepest join so far (a root has depth 0)."""
        raise NotImplementedError

    def clusters(self) -> List[CarvedClusters]:  # pragma: no cover - interface
        """Each group's surviving clusters in ascending label order."""
        raise NotImplementedError

    def dead(self) -> List[np.ndarray]:  # pragma: no cover - interface
        """Each group's indices of the nodes the carving killed."""
        raise NotImplementedError


# csr -> (why its uids cannot label weak-carving clusters, "" when they
# can; the uids as an array when they can).
_UID_VALUES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def uid_values(csr: Any) -> np.ndarray:
    """``csr.uids`` as cluster labels: int64, or Python ints in an object
    array when some uid is past int64.

    A cluster is labelled by its root's uid and the phases split clusters
    by label bits, so every uid of the index must be an integer and no two
    may be equal (node labels stand in for missing ``"uid"`` attributes);
    otherwise this raises ``ValueError`` naming the node(s) and the remedy.
    The check runs once per index: Theorem 2.1 carves one graph many
    times.
    """
    entry = _UID_VALUES.get(csr)
    if entry is None:
        uids = csr.uids
        # Distinct Python ints need no search for an offending node.
        plain = set(map(type, uids)) <= {int} and len(set(uids)) == len(uids)
        refusal = "" if plain else _uid_refusal(csr)
        values = None
        if not refusal:
            wide = uids if plain else [int(uid) for uid in uids]
            try:
                values = np.array(wide, dtype=np.int64)
            except OverflowError:
                values = np.empty(len(wide), dtype=object)
                values[:] = wide
        entry = _UID_VALUES[csr] = (refusal, values)
    refusal, values = entry
    if refusal:
        raise ValueError(
            "the weak-diameter carving needs {}; attach unique integer uids "
            "with repro.graphs.assign_unique_identifiers(graph)".format(refusal)
        )
    return values


def _uid_refusal(csr: Any) -> str:
    """Why ``csr``'s uids cannot label clusters, naming the first offending
    node(s); ``""`` when they can."""
    first: Dict[Any, int] = {}
    for i, uid in enumerate(csr.uids):
        if not isinstance(uid, numbers.Integral):
            return "integer node uids, but node {!r} has uid {!r}".format(csr.nodes[i], uid)
        j = first.setdefault(uid, i)
        if j != i:
            return "distinct node uids, but nodes {!r} and {!r} share uid {!r}".format(
                csr.nodes[j], csr.nodes[i], uid
            )
    return ""


def carving_bits(csr: Any, members: Any) -> int:
    """The weak carving's identifier policy: how many bit phases a carving
    of the nodes with indices ``members`` runs.

    Refuses, through :func:`uid_values`, an index whose uids cannot label
    clusters.  The count is the two's-complement width that tells the
    members' uids apart: the longest ``bit_length`` (at least 1), plus a
    sign bit when some uid is negative.
    """
    uids = uid_values(csr)[np.asarray(members, dtype=np.int64)]
    lowest, highest = int(uids.min()), int(uids.max())
    return max(1, lowest.bit_length(), highest.bit_length()) + (lowest < 0)


class Kernel:
    """The hot-path primitives' interface.

    :class:`~repro.kernels.numpy_kernel.NumpyKernel` is the one
    implementation in the package; the test suite's oracle implements the
    same methods with the seed's scalar loops.
    """

    name: str = "?"

    # ------------------------------------------------------------------ #
    # BFS primitives
    # ------------------------------------------------------------------ #
    def frontier_expand(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> List[int]:  # pragma: no cover - interface
        """One BFS step: the unblocked neighbours of ``frontier``.

        Marks every returned index in ``blocked`` (which doubles as the
        visited mask) and returns them in first-discovery order.
        """
        raise NotImplementedError

    def bfs_layers(
        self,
        csr: Any,
        frontier: Sequence[int],
        blocked: bytearray,
        max_radius: Optional[int] = None,
        stop: Optional[Callable[[List[np.ndarray]], bool]] = None,
    ) -> List[np.ndarray]:  # pragma: no cover - interface
        """BFS layers of node indices as int32 arrays; layer 0 is the
        (pre-marked) frontier.

        The caller has already resolved labels to indices and marked the
        frontier in ``blocked``; only non-empty subsequent layers are
        appended, at most ``max_radius`` of them.  ``stop``, when given, is
        called with the layers after each new one, and the walk ends when
        it returns true: a ball that stops at its boundary never walks the
        rest of its component.  ``CSRGraph.layers`` is the restricted entry.
        """
        raise NotImplementedError

    def multi_source_bfs(
        self, csr: Any, frontier: Sequence[int], blocked: bytearray
    ) -> Tuple[int, int]:  # pragma: no cover - interface
        """BFS from ``frontier`` to exhaustion: ``(eccentricity, reached)``.

        ``reached`` counts every visited index including the sources;
        ``eccentricity`` is the number of non-empty layers beyond layer 0.
        The frontier must already be marked in ``blocked``.
        """
        raise NotImplementedError

    def bfs_tree_parents(
        self, csr: Any, nodes: np.ndarray, depths: np.ndarray, trees: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - interface
        """BFS-tree parents of many trees at once, in index space.

        Entry ``j`` is node ``nodes[j]`` at depth ``depths[j]`` of tree
        ``trees[j]``; a tree's entries are one BFS of the subgraph its
        nodes induce, from its depth-0 root, and a node may sit in several
        trees.  Returns the entries' parents, aligned: each node's
        neighbour in the same tree one layer closer to the root with the
        **smallest uid** (the least ``csr.uid_rank``) — a choice that does
        not depend on node or edge insertion order, and the one rule a
        CONGEST node can follow from its neighbours' uids — and ``-1`` for
        a root.  Every entry below its root has such a neighbour.
        """
        raise NotImplementedError

    def cluster_diameters(
        self,
        csr: Any,
        clusters: Sequence[Sequence[int]],
        induced: bool,
        blocked: Optional[bytearray] = None,
    ) -> List[int]:  # pragma: no cover - interface
        """The exact diameter of every cluster of member indices.

        ``induced=True`` measures strong diameters: paths stay inside their
        own cluster.  ``induced=False`` measures weak diameters: paths may
        run through any index not marked in ``blocked`` (``None`` blocks
        nothing; the mask is not mutated).  Members must be unblocked.
        Raises ``ValueError`` when some cluster is disconnected in that
        sense, or when two clusters share a member; the validators'
        per-source loop (:meth:`repro.graphs.csr.CSRGraph.induced_diameter`)
        measures such input.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Weak-carving proposal engine
    # ------------------------------------------------------------------ #
    def proposal_engine(
        self, csr: Any, groups: Sequence[Sequence[int]]
    ) -> ProposalEngine:  # pragma: no cover - interface
        """An engine running one weak carving of each index array of
        ``groups``: non-empty, disjoint and pairwise non-adjacent.

        Labels and tie-breaks come from ``csr.uids``; :func:`carving_bits`
        refuses an index whose uids cannot label clusters.
        """
        raise NotImplementedError
