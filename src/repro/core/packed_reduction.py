"""Bitset-native reduction fast path.

:class:`PackedReductionState` is a drop-in replacement for
:class:`repro.core.reduction.ReductionState` that stores the working graph as
one arbitrary-precision integer adjacency row per vertex — the same
representation as :class:`repro.graphs.graph_state.PackedAdjacency` — instead
of a tuple-keyed :class:`networkx` graph.  Vertex indices are fixed:

* photon ``p`` occupies bit ``p`` (``0 <= p < num_photons``);
* emitter ``e`` occupies bit ``num_photons + e`` (ids are allocated
  sequentially, so the row list simply grows).

Every reversed operation of the rewrite engine becomes a handful of word-run
XOR/AND/mask updates (``O(n/64)`` per touched row), and the rule queries of
the greedy strategy collapse to popcounts and row comparisons:

* degree = ``row.bit_count()``;
* dangling test = ``row.bit_count() == 1``;
* twin test = integer row equality;
* photon/emitter neighbour splits = one mask and one shift.

The class answers the exact rule-query protocol of
:class:`~repro.core.reduction.ReductionState` (same tie-breaking, same
emitter-pool bookkeeping), so the greedy strategy produces **bit-identical
operation sequences** — and therefore bit-identical forward circuits — on
either state.  The dict-based state remains the oracle;
``tests/test_packed_reduction.py`` property-tests the equivalence across the
scenario zoo.  Selection follows :mod:`repro.utils.backend` like the other
GF(2) kernels: :func:`make_reduction_state` returns the packed state on the
``packed`` backend and the networkx oracle on ``dense``.

The streaming compiler's windowed state
(:class:`repro.core.streaming.StreamingReductionState`) subclasses this one:
its window slots play the photons, and it only overrides the two hooks the
reversed operations go through — :meth:`_detach` (retire a removed photon and
name it in the emitted operation) and ``_emit`` (where operations go).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.reduction import (
    InsufficientEmittersError,
    ReductionOp,
    ReductionOpType,
    ReductionSequence,
    ReductionState,
)
from repro.graphs.graph_state import GraphState
from repro.utils.backend import DENSE, resolve_backend
from repro.utils.misc import iter_bits

__all__ = ["PackedReductionState", "make_reduction_state"]

Vertex = Hashable


class PackedReductionState:
    """Mutable reduction state over integer-packed adjacency rows.

    The public surface mirrors :class:`repro.core.reduction.ReductionState`
    exactly (construction, queries, the seven reversed operations, pool
    bookkeeping and :meth:`finish`); only the storage differs.  See the
    module docstring for the bit layout.
    """

    def __init__(
        self,
        target_graph: GraphState,
        emitter_budget: int | None = None,
        strict_budget: bool = False,
        photon_order: Sequence[Vertex] | None = None,
    ):
        if target_graph.num_vertices == 0:
            raise ValueError("cannot reduce an empty target graph")
        vertices = list(photon_order) if photon_order is not None else target_graph.vertices()
        if (
            set(vertices) != set(target_graph.vertices())
            or len(vertices) != target_graph.num_vertices
        ):
            raise ValueError("photon_order must be a permutation of the target vertices")
        self.photon_of_vertex: dict[Vertex, int] = {v: i for i, v in enumerate(vertices)}
        packed = target_graph.packed_adjacency()
        if photon_order is None or packed.index == self.photon_of_vertex:
            # The graph's cached packed rows already follow insertion order —
            # exactly this state's photon indexing.  Order searches build
            # many states over one subgraph; they all share the one snapshot.
            rows = list(packed.rows)
        else:
            rows = [0] * len(vertices)
            for u, v in target_graph.edges():
                i, j = self.photon_of_vertex[u], self.photon_of_vertex[v]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        self._init_rows(rows, emitter_budget, strict_budget)
        self._alive_photons = self._photon_mask

    def _init_rows(
        self, rows: list[int], emitter_budget: int | None, strict_budget: bool
    ) -> None:
        """Adopt ``rows`` as the photon rows; start an empty pool and op log."""
        self.num_photons = len(rows)
        self._rows = rows
        self._photon_mask = (1 << self.num_photons) - 1
        self.emitter_budget = emitter_budget
        self.strict_budget = bool(strict_budget)
        self.emitters_over_budget = 0
        self.free_emitters: set[int] = set()
        self.active_emitters: set[int] = set()
        self.num_emitters_allocated = 0
        self.operations: list[ReductionOp] = []
        self._emit = self.operations.append

    # ------------------------------------------------------------------ #
    # Index helpers
    # ------------------------------------------------------------------ #

    def _eidx(self, emitter: int) -> int:
        return self.num_photons + emitter

    def _ensure_row(self, emitter: int) -> None:
        needed = self._eidx(emitter) + 1
        if len(self._rows) < needed:
            self._rows.extend([0] * (needed - len(self._rows)))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def remaining_photons(self) -> list[int]:
        """Photon indices still present in the working graph."""
        return list(iter_bits(self._alive_photons))

    def photon_in_graph(self, photon: int) -> bool:
        if not 0 <= photon < self.num_photons:
            return False
        return bool((self._alive_photons >> photon) & 1)

    def photon_neighbors(self, photon: int) -> tuple[set[int], set[int]]:
        """Neighbours of a photon, split into (photon indices, emitter ids)."""
        row = self._rows[photon]
        return (
            set(iter_bits(row & self._photon_mask)),
            set(iter_bits(row >> self.num_photons)),
        )

    def emitter_neighbors(self, emitter: int) -> tuple[set[int], set[int]]:
        """Neighbours of an emitter, split into (photon indices, emitter ids)."""
        row = self._rows[self._eidx(emitter)]
        return (
            set(iter_bits(row & self._photon_mask)),
            set(iter_bits(row >> self.num_photons)),
        )

    def emitter_degree(self, emitter: int) -> int:
        return self._rows[self._eidx(emitter)].bit_count()

    def photon_degree(self, photon: int) -> int:
        return self._rows[photon].bit_count()

    def is_done(self) -> bool:
        """True when every photon has been removed and every emitter is free."""
        return not self._alive_photons and not self.active_emitters

    # ------------------------------------------------------------------ #
    # Rule queries (bit-identical to the dict-based oracle)
    # ------------------------------------------------------------------ #

    def photon_neighbor_counts(self, photon: int) -> tuple[int, int]:
        """``(#photon neighbours, #emitter neighbours)`` of a photon."""
        row = self._rows[photon]
        return (row & self._photon_mask).bit_count(), (row >> self.num_photons).bit_count()

    def find_dangling_emitter(self, photon: int) -> int | None:
        """Smallest emitter adjacent to ``photon`` whose only neighbour is it."""
        n = self.num_photons
        for bit in iter_bits(self._rows[photon] >> n):
            if self._rows[n + bit].bit_count() == 1:
                return bit
        return None

    def find_leaf_host(self, photon: int) -> int | None:
        """The emitter hosting ``photon`` when the photon has degree 1."""
        row = self._rows[photon]
        if row.bit_count() != 1:
            return None
        bit = row.bit_length() - 1
        return bit - self.num_photons if bit >= self.num_photons else None

    def find_twin_emitter(self, photon: int) -> int | None:
        """First active emitter (ascending id) that is a non-adjacent twin.

        An emitter adjacent to ``photon`` carries the photon's bit, which the
        photon's own row never does, so row equality alone decides twinship.
        """
        rows = self._rows
        n = self.num_photons
        row = rows[photon]
        if row:
            # A twin shares the photon's whole neighbourhood, so it is adjacent
            # to the photon's first neighbour: that row's emitter bits list
            # every candidate in ascending id, at O(degree) instead of
            # O(active pool).
            candidates = rows[(row & -row).bit_length() - 1] >> n
            while candidates:
                low = candidates & -candidates
                emitter = low.bit_length() - 1
                if rows[n + emitter] == row:
                    return emitter
                candidates ^= low
            return None
        # Isolated photons are emitted before the twin rule is tried, so no
        # rule path lands here; answer with the oracle's sweep of the pool.
        for emitter in sorted(self.active_emitters):
            if not rows[n + emitter]:
                return emitter
        return None

    def disconnect_absorb_candidate(self, photon: int) -> tuple[int, int] | None:
        """Best ``(cost, emitter)`` for the disconnect-absorb move, or ``None``."""
        n = self.num_photons
        photon_bit = 1 << photon
        best: tuple[int, int] | None = None
        for e in iter_bits(self._rows[photon] >> n):
            erow = self._rows[n + e]
            if erow & self._photon_mask != photon_bit:
                continue  # the emitter has other photon neighbours
            cost = (erow >> n).bit_count()
            if best is None or cost < best[0]:
                best = (cost, e)
        return best

    def liberation_candidate(self) -> tuple[int, int] | None:
        """Best ``(cost, emitter)`` freeable by disconnecting it, or ``None``."""
        n = self.num_photons
        best: tuple[int, int] | None = None
        for emitter in sorted(self.active_emitters):
            erow = self._rows[n + emitter]
            if erow & self._photon_mask:
                continue
            cost = (erow >> n).bit_count()
            if best is None or cost < best[0]:
                best = (cost, emitter)
        return best

    # ------------------------------------------------------------------ #
    # Emitter pool management (identical semantics to the oracle)
    # ------------------------------------------------------------------ #

    def acquire_free_emitter(self, preferred: int | None = None) -> int:
        """Return a free emitter id, allocating a new one if needed."""
        if preferred is not None and preferred in self.free_emitters:
            self.free_emitters.discard(preferred)
            self.active_emitters.add(preferred)
            return preferred
        if self.free_emitters:
            chosen = min(self.free_emitters)
            self.free_emitters.discard(chosen)
            self.active_emitters.add(chosen)
            return chosen
        if (
            self.emitter_budget is not None
            and self.num_emitters_allocated >= self.emitter_budget
        ):
            if self.strict_budget:
                raise InsufficientEmittersError(
                    f"emitter budget of {self.emitter_budget} exhausted"
                )
            self.emitters_over_budget += 1
        new_id = self.num_emitters_allocated
        self.num_emitters_allocated += 1
        self.active_emitters.add(new_id)
        self._ensure_row(new_id)
        return new_id

    # ------------------------------------------------------------------ #
    # Row update helpers
    # ------------------------------------------------------------------ #

    def _detach(self, photon: int) -> int:
        """Retire a photon whose row is cleared; return its id for the op."""
        self._alive_photons &= ~(1 << photon)
        return photon

    def _remove_vertex_bit(self, index: int) -> None:
        """Clear ``index``'s bit from every neighbour row and zero its row."""
        bit = 1 << index
        for j in iter_bits(self._rows[index]):
            self._rows[j] &= ~bit
        self._rows[index] = 0

    def _replace_photon_by_emitter(self, photon: int, emitter_index: int) -> None:
        """Move ``photon``'s neighbourhood onto row ``emitter_index``."""
        row = self._rows[photon]
        photon_bit = 1 << photon
        emitter_bit = 1 << emitter_index
        self._rows[emitter_index] = row
        for j in iter_bits(row):
            self._rows[j] = (self._rows[j] & ~photon_bit) | emitter_bit
        self._rows[photon] = 0

    # ------------------------------------------------------------------ #
    # Reversed operations
    # ------------------------------------------------------------------ #

    def apply_swap(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        """Replace ``photon`` by a free emitter; returns the emitter id used."""
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        emitter_id = self.acquire_free_emitter(preferred=emitter)
        self._replace_photon_by_emitter(photon, self._eidx(emitter_id))
        self._emit(
            ReductionOp(
                ReductionOpType.SWAP, emitter=emitter_id, photon=self._detach(photon), tag=tag
            )
        )
        return emitter_id

    def apply_absorb_leaf(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb a photon that dangles on ``emitter`` (degree-1 photon)."""
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        eidx = self._eidx(emitter)
        if self._rows[photon] != 1 << eidx:
            raise ValueError(
                f"photon {photon} is not dangling on emitter {emitter}; "
                "ABSORB_LEAF precondition violated"
            )
        self._rows[eidx] &= ~(1 << photon)
        self._rows[photon] = 0
        self._emit(
            ReductionOp(
                ReductionOpType.ABSORB_LEAF, emitter=emitter, photon=self._detach(photon), tag=tag
            )
        )

    def apply_absorb_dangling(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb ``photon`` into a dangling emitter that is attached to it."""
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        eidx = self._eidx(emitter)
        if self._rows[eidx] != 1 << photon:
            raise ValueError(
                f"emitter {emitter} is not dangling on photon {photon}; "
                "ABSORB_DANGLING precondition violated"
            )
        photon_bit = 1 << photon
        emitter_bit = 1 << eidx
        inherited = self._rows[photon] & ~emitter_bit
        self._rows[eidx] = inherited
        for j in iter_bits(inherited):
            self._rows[j] = (self._rows[j] & ~photon_bit) | emitter_bit
        self._rows[photon] = 0
        self._emit(
            ReductionOp(
                ReductionOpType.ABSORB_DANGLING,
                emitter=emitter,
                photon=self._detach(photon),
                tag=tag,
            )
        )

    def apply_absorb_twin(self, emitter: int, photon: int, tag: str = "") -> None:
        """Absorb ``photon`` when it has exactly the emitter's neighbourhood."""
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        eidx = self._eidx(emitter)
        if (self._rows[photon] >> eidx) & 1:
            raise ValueError(
                f"photon {photon} and emitter {emitter} are adjacent; "
                "ABSORB_TWIN requires non-adjacent twins"
            )
        if self._rows[photon] != self._rows[eidx]:
            raise ValueError(
                f"photon {photon} and emitter {emitter} are not twins; "
                "ABSORB_TWIN precondition violated"
            )
        self._remove_vertex_bit(photon)
        self._emit(
            ReductionOp(
                ReductionOpType.ABSORB_TWIN, emitter=emitter, photon=self._detach(photon), tag=tag
            )
        )

    def apply_disconnect(self, emitter_a: int, emitter_b: int, tag: str = "") -> None:
        """Remove an emitter-emitter edge (forward: one CZ gate)."""
        idx_a, idx_b = self._eidx(emitter_a), self._eidx(emitter_b)
        if not (self._rows[idx_a] >> idx_b) & 1:
            raise ValueError(
                f"emitters {emitter_a} and {emitter_b} are not adjacent; nothing to disconnect"
            )
        self._rows[idx_a] &= ~(1 << idx_b)
        self._rows[idx_b] &= ~(1 << idx_a)
        self._emit(
            ReductionOp(
                ReductionOpType.DISCONNECT, emitter=emitter_a, emitter_b=emitter_b, tag=tag
            )
        )

    def apply_emit_isolated(self, photon: int, emitter: int | None = None, tag: str = "") -> int:
        """Remove an isolated photon (forward: emit an unentangled photon)."""
        if not self.photon_in_graph(photon):
            raise ValueError(f"photon {photon} is not in the working graph")
        if self._rows[photon]:
            raise ValueError(f"photon {photon} is not isolated")
        if emitter is not None and emitter in self.free_emitters:
            emitter_id = emitter
        elif self.free_emitters:
            emitter_id = min(self.free_emitters)
        else:
            # Allocate a pool slot but keep it free: the emitter is only used
            # as an emission source and never becomes entangled.
            emitter_id = self.acquire_free_emitter()
            self.active_emitters.discard(emitter_id)
            self.free_emitters.add(emitter_id)
        self._emit(
            ReductionOp(
                ReductionOpType.EMIT_ISOLATED,
                emitter=emitter_id,
                photon=self._detach(photon),
                tag=tag,
            )
        )
        return emitter_id

    def apply_free_emitter(self, emitter: int, tag: str = "") -> None:
        """Release an isolated active emitter back into the free pool."""
        if emitter not in self.active_emitters:
            raise ValueError(f"emitter {emitter} is not active")
        if self._rows[self._eidx(emitter)]:
            raise ValueError(f"emitter {emitter} is not isolated and cannot be freed")
        self.active_emitters.discard(emitter)
        self.free_emitters.add(emitter)
        self._emit(ReductionOp(ReductionOpType.FREE_EMITTER, emitter=emitter, tag=tag))

    def free_isolated_emitters(self, tag: str = "") -> list[int]:
        """Free every active emitter that has become isolated; return their ids."""
        rows = self._rows
        n = self.num_photons
        freed = sorted([e for e in self.active_emitters if not rows[n + e]])
        for emitter in freed:
            self.apply_free_emitter(emitter, tag=tag)
        return freed

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #

    def disconnect_all_emitter_edges(self, tag: str = "") -> int:
        """Remove every remaining emitter-emitter edge in one sorted pass."""
        n = self.num_photons
        pairs = [
            (emitter, emitter + 1 + shifted)
            for emitter in sorted(self.active_emitters)
            for shifted in iter_bits(self._rows[n + emitter] >> (n + emitter + 1))
        ]
        for a, b in pairs:
            self.apply_disconnect(a, b, tag=tag)
        return len(pairs)

    def finish(self, tag: str = "") -> ReductionSequence:
        """Disconnect leftover emitter edges, free emitters, return the sequence."""
        if self._alive_photons:
            raise RuntimeError(
                "cannot finish the reduction: photons remain in the working graph "
                f"({self.remaining_photons()})"
            )
        self.disconnect_all_emitter_edges(tag=tag)
        self.free_isolated_emitters(tag=tag)
        if self.active_emitters:  # pragma: no cover - defensive
            raise RuntimeError(f"emitters left active after finish: {self.active_emitters}")
        return ReductionSequence(
            operations=list(self.operations),
            num_photons=self.num_photons,
            num_emitters=max(self.num_emitters_allocated, 1),
            photon_of_vertex=dict(self.photon_of_vertex),
            emitters_over_budget=self.emitters_over_budget,
        )


def make_reduction_state(
    target_graph: GraphState,
    emitter_budget: int | None = None,
    strict_budget: bool = False,
    photon_order: Sequence[Vertex] | None = None,
    backend: str | None = None,
) -> "ReductionState | PackedReductionState":
    """Build a reduction state on the selected GF(2) backend.

    ``backend=None`` resolves to the process default
    (:func:`repro.utils.backend.get_default_backend`): ``dense`` returns the
    networkx-backed :class:`~repro.core.reduction.ReductionState` oracle,
    ``packed`` the bitset-native :class:`PackedReductionState`.  Both states
    produce bit-identical operation sequences for identical inputs.
    """
    cls = ReductionState if resolve_backend(backend) == DENSE else PackedReductionState
    return cls(
        target_graph,
        emitter_budget=emitter_budget,
        strict_budget=strict_budget,
        photon_order=photon_order,
    )
