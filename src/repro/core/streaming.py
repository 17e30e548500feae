"""Streaming partition-compile for very large graph families.

The whole-graph compilers materialise the target state (networkx graph,
packed adjacency, reduction rows) before reducing it, so peak memory grows
with ``n`` even though the reduction itself only ever inspects one photon's
neighbourhood plus the emitter pool.  This module exploits that locality:
:func:`compile_stream` walks a lazy generator spec
(:mod:`repro.graphs.lazy`) region by region, keeps only a bounded *window*
of the graph alive, and streams the reduction operations to a sink instead
of accumulating them — peak memory is bounded by two adjacent regions plus
the emitter pool (the *frontier*), not by ``n``.

Correctness argument.  The greedy rule engine
(:func:`repro.core.strategies.reduce_photon`) queries only

* the photon's own adjacency row (degree, neighbour split, leaf test),
* the rows of emitters (all of which the window tracks permanently), and
* the emitter pool bookkeeping,

so a windowed state answers every query identically to the whole-graph state
**provided all neighbours of the photon being reduced are admitted**.  The
windowed state is the packed reduction state itself
(:class:`repro.core.packed_reduction.PackedReductionState`) over a bounded
set of slots: it inherits every rule query and reversed operation and only
adds admission, slot recycling and the op sink.  The driver admits regions
in descending order and reduces region ``j + 1`` only after region ``j`` is
present; the specs' region locality contract (edges
span at most one region, or reach a pinned hub admitted up front) then
guarantees the proviso.  Reduced photons are fully detached from the working
graph, so their window slots are recycled.  Because the processing order
(descending vertex id: region ``J-1`` down to region ``0``, pinned hubs
last) equals the whole-graph default, the streamed operation sequence is
**bit-identical** to ``greedy_reduce(spec.materialize())`` — which is
exactly what the oracle tests assert at small sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.packed_reduction import PackedReductionState
from repro.core.reduction import ReductionOp
from repro.core.strategies import GreedyReductionStrategy, reduce_photon

__all__ = ["StreamCompileResult", "StreamingReductionState", "compile_stream"]

OpSink = Callable[[ReductionOp], None]


class StreamingReductionState(PackedReductionState):
    """Windowed packed reduction state: bounded slots, op sink.

    Photons are *admitted* into one of ``window_capacity`` slots, and slot
    ``s`` plays the packed state's photon ``s`` (bit ``s``; emitter ``e`` at
    bit ``window_capacity + e``), so every rule query and reversed operation
    is the packed state's own.  ``photon_of_vertex`` maps each admitted
    **global** vertex id to its slot; when an operation detaches a photon its
    slot is recycled and the emitted operation names the global id, so the
    operations carry the same ids as a whole-graph reduction over the same
    processing order.

    Operations go to ``op_sink`` when given (constant memory); otherwise they
    accumulate in ``self.operations`` for the small-size oracle tests.
    """

    def __init__(
        self,
        window_capacity: int,
        emitter_budget: int | None = None,
        strict_budget: bool = False,
        op_sink: OpSink | None = None,
    ):
        if window_capacity < 1:
            raise ValueError(f"window_capacity must be >= 1, got {window_capacity}")
        self._init_rows([0] * int(window_capacity), emitter_budget, strict_budget)
        self._alive_photons = 0
        self.photon_of_vertex: dict[int, int] = {}
        self._global_of = [0] * self.num_photons
        self._free_slots = list(range(self.num_photons - 1, -1, -1))
        self.peak_window_photons = 0
        self.photons_admitted = 0
        self.photons_reduced = 0
        if op_sink is not None:
            self._emit = op_sink

    @property
    def window_capacity(self) -> int:
        return self.num_photons

    def admit_photon(self, photon: int) -> None:
        """Bring ``photon`` (a global vertex id) into the window, degree 0."""
        if photon in self.photon_of_vertex:
            raise ValueError(f"photon {photon} is already admitted")
        if not self._free_slots:
            raise RuntimeError(
                f"streaming window capacity {self.num_photons} exhausted; the spec's "
                "region locality contract is violated or the window is too small"
            )
        slot = self._free_slots.pop()
        self._alive_photons |= 1 << slot
        self.photon_of_vertex[photon] = slot
        self._global_of[slot] = photon
        self.photons_admitted += 1
        if len(self.photon_of_vertex) > self.peak_window_photons:
            self.peak_window_photons = len(self.photon_of_vertex)

    def add_edge(self, u: int, v: int) -> None:
        """Connect two admitted photons (global vertex ids)."""
        su, sv = self.photon_of_vertex[u], self.photon_of_vertex[v]
        if su == sv:
            raise ValueError(f"self-loop on photon {u}")
        self._rows[su] |= 1 << sv
        self._rows[sv] |= 1 << su

    def _detach(self, slot: int) -> int:
        """Recycle the slot of a fully-detached photon; return its global id."""
        self._alive_photons &= ~(1 << slot)
        photon = self._global_of[slot]
        del self.photon_of_vertex[photon]
        self._free_slots.append(slot)
        self.photons_reduced += 1
        return photon


@dataclass
class StreamCompileResult:
    """Summary of one streaming compile (the op list itself is not retained).

    ``operations`` is populated only when :func:`compile_stream` is called
    with ``collect_operations=True`` (the small-size oracle mode); production
    streams leave it ``None`` so memory stays bounded by the window.
    """

    family: str
    num_vertices: int
    num_edges: int
    num_regions: int
    window_capacity: int
    peak_window_photons: int
    num_emitters: int
    emitters_over_budget: int
    num_operations: int
    num_emissions: int
    num_emitter_emitter_gates: int
    op_counts: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    operations: list[ReductionOp] | None = None


def _window_capacity(spec) -> int:
    """Pinned hubs plus the largest pair of adjacent regions.

    A streaming scan (one region size remembered at a time): with tiny
    chunks the region count is O(n), and materialising a size list here
    would dominate the traced peak of the whole compile.
    """
    widest = 1
    previous = 0
    for j in range(spec.num_regions):
        size = len(spec.region(j))
        widest = max(widest, previous + size)
        previous = size
    return len(spec.pinned()) + widest


def compile_stream(
    spec,
    strategy: GreedyReductionStrategy | None = None,
    tag: str = "",
    collect_operations: bool = False,
) -> StreamCompileResult:
    """Compile a lazy generator spec region by region with bounded memory.

    Walks ``spec`` (see :mod:`repro.graphs.lazy`) in descending region order,
    reducing each region's photons as soon as its lower neighbour region is
    admitted, and recycling window slots as photons detach.  The emitted
    operation sequence is bit-identical to
    ``greedy_reduce(spec.materialize(), strategy=strategy)`` — same rule
    engine, same processing order — but peak memory is bounded by two regions
    plus the emitter pool instead of the whole graph.

    Args:
        spec: a lazy generator spec (``LatticeStreamSpec`` & co).
        strategy: greedy policy knobs; defaults match :func:`greedy_reduce`.
        tag: tag attached to every generated operation.
        collect_operations: accumulate the full op list on the result (only
            for small-size verification; defeats the memory bound).

    Returns:
        A :class:`StreamCompileResult` with emitter count, op histogram and
        window statistics.
    """
    if strategy is None:
        strategy = GreedyReductionStrategy()
    started = time.perf_counter()

    op_counts: dict[str, int] = {}
    tallies = {"total": 0, "emissions": 0, "ee_gates": 0}
    collected: list[ReductionOp] | None = [] if collect_operations else None

    def sink(op: ReductionOp) -> None:
        op_counts[op.op_type.name] = op_counts.get(op.op_type.name, 0) + 1
        tallies["total"] += 1
        if op.is_emission:
            tallies["emissions"] += 1
        if op.is_emitter_emitter_gate:
            tallies["ee_gates"] += 1
        if collected is not None:
            collected.append(op)

    state = StreamingReductionState(
        _window_capacity(spec),
        emitter_budget=strategy.emitter_budget,
        strict_budget=strategy.strict_budget,
        op_sink=sink,
    )

    def reduce_region(vertices) -> None:
        for vertex in reversed(vertices):
            reduce_photon(state, state.photon_of_vertex[vertex], strategy, tag)
            if strategy.free_isolated_eagerly:
                state.free_isolated_emitters(tag=tag)

    pinned = tuple(spec.pinned())
    for hub in pinned:
        state.admit_photon(hub)
    num_regions = spec.num_regions
    num_edges = 0
    for j in range(num_regions - 1, -1, -1):
        for vertex in spec.region(j):
            state.admit_photon(vertex)
        for u, v in spec.region_edges(j):
            state.add_edge(u, v)
            num_edges += 1
        if j + 1 < num_regions:
            reduce_region(spec.region(j + 1))
    reduce_region(spec.region(0))
    reduce_region(pinned)
    state.finish(tag=tag)

    return StreamCompileResult(
        family=spec.family,
        num_vertices=spec.num_vertices,
        num_edges=num_edges,
        num_regions=num_regions,
        window_capacity=state.window_capacity,
        peak_window_photons=state.peak_window_photons,
        num_emitters=max(state.num_emitters_allocated, 1),
        emitters_over_budget=state.emitters_over_budget,
        num_operations=tallies["total"],
        num_emissions=tallies["emissions"],
        num_emitter_emitter_gates=tallies["ee_gates"],
        op_counts=dict(sorted(op_counts.items())),
        elapsed_seconds=time.perf_counter() - started,
        operations=collected,
    )
