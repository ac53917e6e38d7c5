"""Kernel interface and registry for the hot flat-array loops.

A **kernel** is one implementation of the small set of index-space
primitives that dominate the reproduction's wall-clock time: frontier
expansion (the inner loop of every BFS), restricted BFS layering,
multi-source BFS to exhaustion (eccentricities / reachability), the
sequential MIS and first-fit coloring sweeps of the application tasks, and
the weak-phase proposal computation.  The :class:`repro.graphs.csr.CSRGraph`
primitives and the weak-carving driver dispatch through the ambient kernel
(see :mod:`repro.kernels`) instead of hardcoding one loop shape, which is
what lets the ``numpy`` tier vectorise the hot paths without forking the
algorithms.

Contracts shared by every kernel (asserted by the differential tests):

* all primitives work in **index space** over a frozen
  :class:`~repro.graphs.csr.CSRGraph` (int32 ``indptr``/``indices``), with
  ``bytearray`` masks whose mutations are visible to the caller;
* :meth:`Kernel.frontier_expand` must return the newly reached indices in
  **first-discovery order** — the order produced by scanning the frontier
  list in order and each CSR row ascending — so every tier yields not just
  equal sets but byte-identical layer lists, dict insertion orders and
  tie-breaks;
* the sweeps (:meth:`Kernel.mis_sweep`, :meth:`Kernel.greedy_color_sweep`)
  process the given member indices **strictly in order** (they are
  inherently sequential greedy loops);
* :meth:`Kernel.proposal_engine` may return ``None`` whenever the kernel
  has no accelerated engine for the given carving (the caller falls back to
  the flat adjacency-list loop, which is itself the pure reference).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# Flat MIS node states shared by the kernels and repro.applications.mis.
MIS_UNDECIDED, MIS_SELECTED, MIS_DOMINATED = 0, 1, 2


class ProposalEngine:
    """Accelerated proposal computation for one weak-carving run.

    The weak-phase driver (:func:`repro.weak.phases.run_phase`) keeps the
    acceptance/rejection and tree bookkeeping itself and delegates the
    per-step *proposal collection* — "every alive blue node picks the
    adjacent red cluster minimising ``(cluster label, neighbour uid)``" — to
    the engine.  Each step, the driver calls :meth:`propose_step` (grouped
    per target cluster, ascending label order — the order
    ``sorted(proposals.items())`` produces), decides every group, and hands
    the per-group verdicts back in a single :meth:`resolve_step` call, so
    the engine's label array never drifts from ``CarvingState.label``.
    Cluster sizes of the phase's red clusters come from
    :meth:`red_cluster_sizes`, so the driver never has to rescan the alive
    set.  The engine path must produce byte-identical decisions, join
    orders and tree bookkeeping to the flat adjacency loop — the
    differential tests drive both through the same carving runs.
    """

    def start_phase(self, bit: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def red_cluster_sizes(self) -> Dict[int, int]:  # pragma: no cover
        """Alive-member counts of this phase's red clusters."""
        raise NotImplementedError

    def propose_step(
        self,
    ) -> List[Tuple[int, List[Any], List[Any]]]:  # pragma: no cover
        """One batched proposal step.

        Returns ``[(target label, proposer nodes, via nodes)]`` sorted by
        target label ascending, with the proposers of each group in
        blue-scan order; the empty list ends the phase.  Proposers are
        resolved within the step, so the engine drops them from its blue
        frontier and keeps the step's member indices until
        :meth:`resolve_step` settles them.
        """
        raise NotImplementedError

    def resolve_step(self, decisions: List[bool]) -> None:  # pragma: no cover
        """Apply the driver's verdicts for the last :meth:`propose_step`.

        ``decisions`` is aligned with the returned groups: ``True`` joins
        every member of the group to its target label, ``False`` kills the
        group's members (label ``-1``), all in one batch.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any scratch the engine borrowed (idempotent)."""


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
        appended (matching ``CSRGraph._bfs_layer_indices``).
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

    def bfs_tree_parents(
        self, csr: Any, layers: List[List[int]]
    ) -> List[List[int]]:
        """BFS-tree parents per layer, in index space.

        For each node of ``layers[d]`` (``d >= 1``), its parent is the
        **first neighbour in ascending CSR row order** that lies in
        ``layers[d - 1]`` — the choice the reference materialisation loop
        makes when it scans the CSR-backed neighbour resolver.  Returns one
        list per layer ``d >= 1``, aligned with ``layers[d]``.  Every node
        below layer 0 is guaranteed a parent (BFS layers are derived from
        the same adjacency), so no sentinel values appear.
        """
        indptr = csr.indptr
        indices = csr.indices
        previous = bytearray(csr.n)
        for i in layers[0]:
            previous[i] = 1
        parents: List[List[int]] = []
        for depth in range(1, len(layers)):
            layer = layers[depth]
            found: List[int] = []
            for i in layer:
                for j in indices[indptr[i] : indptr[i + 1]]:
                    if previous[j]:
                        found.append(j)
                        break
            parents.append(found)
            for i in layers[depth - 1]:
                previous[i] = 0
            for i in layer:
                previous[i] = 1
        return parents

    # ------------------------------------------------------------------ #
    # Application-task sweeps (inherently sequential greedy loops)
    # ------------------------------------------------------------------ #
    def mis_sweep(
        self, csr: Any, member_indices: List[int], state: bytearray
    ) -> List[int]:
        """Greedy MIS extension over ``member_indices`` (in order).

        ``state`` holds one byte per node (:data:`MIS_UNDECIDED` /
        :data:`MIS_SELECTED` / :data:`MIS_DOMINATED`); returns the indices
        selected by this sweep.
        """
        raise NotImplementedError  # pragma: no cover - interface

    def greedy_color_sweep(
        self, csr: Any, member_indices: List[int], palette: Any
    ) -> List[int]:
        """First-fit coloring over ``member_indices`` (in order).

        ``palette`` is an int buffer (``array('i')``) with ``-1`` marking
        uncolored nodes; returns the chosen colors, parallel to
        ``member_indices``.
        """
        raise NotImplementedError  # pragma: no cover - interface

    # ------------------------------------------------------------------ #
    # Weak-carving proposal engine
    # ------------------------------------------------------------------ #
    def proposal_engine(
        self,
        csr: Any,
        participating: Iterable[Any],
        uid_of: Dict[Any, int],
    ) -> Optional[ProposalEngine]:
        """An accelerated proposal engine for one carving, or ``None``.

        ``None`` means "no acceleration available for this input" and sends
        the caller down the reference adjacency-list loop (e.g. non-integer
        uids, which the vectorised composite keys cannot encode).
        """
        return None


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


class KernelRegistry:
    """Registry of :class:`KernelSpec` by kernel string (insertion-ordered).

    Mirrors :class:`repro.registry.MethodRegistry` /
    :class:`~repro.registry.TaskRegistry`: every layer (CLI, suite specs,
    the ambient switch) validates kernel strings against this one object.
    Instances are cached per spec, so the ambient switch hands out one
    kernel object per tier for the process lifetime (the tiers keep
    per-graph scratch keyed weakly on the CSR index).
    """

    def __init__(self) -> None:
        self._specs: Dict[str, KernelSpec] = {}
        self._instances: Dict[str, Kernel] = {}

    def register(self, spec: KernelSpec, overwrite: bool = False) -> KernelSpec:
        """Add a kernel tier (``overwrite=False`` rejects name clashes)."""
        if spec.name == "auto":
            raise ValueError("'auto' is the selection rule, not a registrable kernel")
        if spec.name in self._specs and not overwrite:
            raise ValueError("kernel {!r} is already registered".format(spec.name))
        self._specs[spec.name] = spec
        self._instances.pop(spec.name, None)
        return spec

    def get(self, name: str) -> KernelSpec:
        """Look up a kernel spec, raising ``ValueError`` with the catalogue."""
        try:
            return self._specs[name]
        except KeyError:
            raise ValueError(
                "unknown kernel {!r}; choose from {}".format(
                    name, ("auto",) + self.names()
                )
            ) from None

    def names(self) -> Tuple[str, ...]:
        """All kernel strings, in registration order (``pure`` first)."""
        return tuple(self._specs)

    def instantiate(self, name: str) -> Kernel:
        """The (cached) kernel instance for an explicit tier name."""
        spec = self.get(name)
        instance = self._instances.get(name)
        if instance is None:
            instance = spec.factory()
            self._instances[name] = instance
        return instance

    def resolve(self, name: str) -> Kernel:
        """Resolve ``name`` (including ``"auto"``, i.e. ``numpy``) to an instance."""
        return self.instantiate("numpy" if name == "auto" else name)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)
