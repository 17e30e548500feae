"""The packed reduction core's twin and free-emitter queries vs the dict oracle.

``PackedReductionState.find_twin_emitter`` scans only the emitters of the
photon's first neighbour, and falls back to a sweep of the active pool when
the photon is isolated (a branch no rule path reaches, because isolated
photons are emitted first).  ``free_isolated_emitters`` indexes emitter rows
inline.  Both are shared with the windowed
:class:`~repro.core.streaming.StreamingReductionState`, where slot ids differ
from global vertex ids, so every check runs on the packed state and on a
streaming state whose window is smaller than the graph.
"""

from __future__ import annotations

from repro.core.packed_reduction import PackedReductionState
from repro.core.reduction import ReductionState
from repro.core.strategies import GreedyReductionStrategy, reduce_photon
from repro.core.streaming import StreamingReductionState, _window_capacity
from repro.graphs.graph_state import GraphState
from repro.graphs.lazy import GHZStreamSpec, PercolatedLatticeStreamSpec

#: Vertices 5-4 and 1-0 are edges, 3 and 2 are isolated.
SCENARIO_GRAPH = GraphState(vertices=range(6), edges=[(5, 4), (1, 0)])

#: K_{3,4}: after one swap every further photon of the larger side is a twin.
BIPARTITE_GRAPH = GraphState(
    vertices=range(7), edges=[(a, b) for a in range(3) for b in range(3, 7)]
)


def isolated_photon_answers(state, photon_id, admit_rest=lambda: None) -> list:
    """Drive ``state`` through twin queries for isolated photons.

    ``photon_id`` maps a vertex of :data:`SCENARIO_GRAPH` to the state's
    photon id; ``admit_rest`` runs once photons 5 and 4 are gone.  Returns
    every query answer, so two states can be compared answer for answer.
    """
    # Emitter 0 takes photon 5's neighbourhood, then absorbs the leaf 4:
    # it stays active with an empty row.
    state.apply_swap(photon_id(5))
    state.apply_absorb_leaf(0, photon_id(4))
    answers = [
        state.find_twin_emitter(photon_id(3)),
        state.free_isolated_emitters(),
        state.find_twin_emitter(photon_id(3)),
    ]
    admit_rest()
    # Emitter 0 hosts photon 1 and so gains photon 0 as its neighbour.
    state.apply_swap(photon_id(1))
    answers.append(state.find_twin_emitter(photon_id(2)))
    answers.append(state.free_isolated_emitters())
    return answers


class TestIsolatedPhotonFallback:
    def test_packed_matches_oracle(self):
        oracle = ReductionState(SCENARIO_GRAPH)
        expected = isolated_photon_answers(oracle, oracle.photon_of_vertex.get)
        assert expected == [0, [0], None, None, []]
        packed = PackedReductionState(SCENARIO_GRAPH)
        assert isolated_photon_answers(packed, packed.photon_of_vertex.get) == expected
        assert packed.operations == oracle.operations

    def test_streaming_matches_oracle_with_recycled_slots(self):
        oracle = ReductionState(SCENARIO_GRAPH)
        expected = isolated_photon_answers(oracle, oracle.photon_of_vertex.get)
        state = StreamingReductionState(window_capacity=4)
        for vertex in (5, 4, 3):
            state.admit_photon(vertex)
        state.add_edge(5, 4)

        def admit_rest():
            # Photons 2 and 1 take the slots that 5 and 4 left behind; the
            # photon of vertex 0 takes the last unused slot, 3.
            for vertex in (2, 1, 0):
                state.admit_photon(vertex)
            state.add_edge(1, 0)

        answers = isolated_photon_answers(state, state.photon_of_vertex.get, admit_rest)
        assert answers == expected
        assert state.photon_of_vertex[2] != 2
        assert state.photon_of_vertex[0] != 0
        assert state.operations == oracle.operations


def lockstep(oracle, state, processing) -> list[tuple[int, int, int | None]]:
    """Reduce both states photon by photon, comparing the shared queries.

    ``processing`` yields ``(oracle photon, state photon)`` pairs lazily, so
    a streaming caller can admit regions between steps.  Returns one
    ``(oracle photon, state photon, twin)`` record per step.
    """
    strategy = GreedyReductionStrategy()
    steps = []
    for oracle_photon, photon in processing:
        twin = oracle.find_twin_emitter(oracle_photon)
        assert state.find_twin_emitter(photon) == twin
        steps.append((oracle_photon, photon, twin))
        reduce_photon(oracle, oracle_photon, strategy)
        reduce_photon(state, photon, strategy)
        assert state.free_isolated_emitters() == oracle.free_isolated_emitters()
    return steps


def streamed_photons(spec, state, oracle):
    """``compile_stream``'s admission and processing order, as photon pairs."""
    pinned = tuple(spec.pinned())
    for hub in pinned:
        state.admit_photon(hub)
    previous: list[int] = []
    for j in range(spec.num_regions - 1, -1, -1):
        for vertex in spec.region(j):
            state.admit_photon(vertex)
        for u, v in spec.region_edges(j):
            state.add_edge(u, v)
        for vertex in previous:
            yield oracle.photon_of_vertex[vertex], state.photon_of_vertex[vertex]
        previous = list(reversed(spec.region(j)))
    for vertex in previous + list(reversed(pinned)):
        yield oracle.photon_of_vertex[vertex], state.photon_of_vertex[vertex]


class TestLockstepQueries:
    def test_packed_twin_scan_matches_oracle(self):
        oracle = ReductionState(BIPARTITE_GRAPH)
        packed = PackedReductionState(BIPARTITE_GRAPH)
        order = [oracle.photon_of_vertex[v] for v in reversed(BIPARTITE_GRAPH.vertices())]
        steps = lockstep(oracle, packed, ((p, p) for p in order))
        assert any(twin is not None for _, _, twin in steps)
        assert packed.operations == oracle.operations

    def test_streaming_twin_scan_matches_oracle(self):
        for spec, min_twins in (
            (GHZStreamSpec(num_vertices=12, chunk=3), 1),
            (PercolatedLatticeStreamSpec(5, 4, chunk_rows=1, survival=0.8, seed=3), 0),
        ):
            oracle = ReductionState(spec.materialize())
            state = StreamingReductionState(_window_capacity(spec))
            assert state.window_capacity < spec.num_vertices
            steps = lockstep(oracle, state, streamed_photons(spec, state, oracle))
            assert any(photon != slot for photon, slot, _ in steps), spec
            assert sum(twin is not None for _, _, twin in steps) >= min_twins, spec
            state.finish()
            assert state.operations == oracle.finish().operations
