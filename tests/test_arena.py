"""Tests for the arena GF(2) backend (word arenas + bulk kernels).

The arena backend covers the bulk GF(2) kernels only.  Guarantees:

* kernel level — ``arena_gf2_*`` agree with the packed big-int kernels and
  the dense uint8 oracle on every input, including widths that cross the
  64-bit word boundary;
* reduction level — ``greedy_reduce`` produces the exact same operation
  sequence (and forward circuit) on the packed rows as on the dense oracle,
  across the scenario zoo and past the 64-vertex word boundary;
* engine level — ``CutRankEngine`` heights (what ``height_function``
  evaluates on the packed and arena backends) match the dense per-prefix
  oracle on the same graphs.

Plus the auto-selection contract: the bulk elimination kernels
(``gf2_rref``/``gf2_solve``/``gf2_nullspace``) upgrade packed to arena at
the measured column crossover, while the reduction state stays packed on
the ``arena`` backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.packed_reduction import (
    PackedReductionState,
    make_reduction_state,
)
from repro.core.reduction import ReductionState
from repro.core.strategies import greedy_reduce
from repro.graphs.generators import (
    erdos_renyi_graph,
    ghz_graph,
    percolated_lattice,
    random_regular_graph,
    rotated_surface_code_graph,
    steane_code_graph,
    watts_strogatz_graph,
)
from repro.graphs.entanglement import height_function
from repro.graphs.incremental import CutRankEngine
from repro.utils.backend import ARENA, PACKED, arena_auto_threshold, use_backend
from repro.utils.gf2 import (
    _elimination_backend,
    gf2_matmul,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    gf2_solve,
)

binary_matrices = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.integers(0, 1),
)

BACKEND_TRIPLE = ("dense", "packed", "arena")

#: The seven scenario-zoo families of the evaluation harness.
ZOO_GRAPHS = {
    "regular": lambda: random_regular_graph(12, degree=3, seed=5),
    "smallworld": lambda: watts_strogatz_graph(14, k=4, seed=5),
    "erdos": lambda: erdos_renyi_graph(12, seed=5),
    "percolated": lambda: percolated_lattice(4, 4, seed=5),
    "ghz": lambda: ghz_graph(10),
    "steane": lambda: steane_code_graph(),
    "surface": lambda: rotated_surface_code_graph(3),
}


class TestKernelEquivalence:
    """arena == packed == dense on every bulk kernel."""

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_across_backends(self, matrix):
        ranks = {b: gf2_rank(matrix, backend=b) for b in BACKEND_TRIPLE}
        assert len(set(ranks.values())) == 1, ranks

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rref_matches_across_backends(self, matrix):
        results = {b: gf2_rref(matrix, backend=b) for b in BACKEND_TRIPLE}
        ref_matrix, ref_pivots = results["dense"]
        for backend in ("packed", "arena"):
            got_matrix, got_pivots = results[backend]
            assert np.array_equal(got_matrix, ref_matrix), backend
            assert list(got_pivots) == list(ref_pivots), backend

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_across_backends(self, matrix):
        ref = gf2_nullspace(matrix, backend="dense")
        for backend in ("packed", "arena"):
            got = gf2_nullspace(matrix, backend=backend)
            assert np.array_equal(got, ref), backend

    @given(binary_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_solve_matches_across_backends(self, matrix, rng):
        # Build a consistent system: b = A @ x for a random x.
        x = np.array(
            [rng.randint(0, 1) for _ in range(matrix.shape[1])], dtype=np.uint8
        )
        b = gf2_matmul(matrix, x.reshape(-1, 1)).ravel()
        solutions = {b_: gf2_solve(matrix, b, backend=b_) for b_ in BACKEND_TRIPLE}
        for backend, solution in solutions.items():
            assert solution is not None, backend
            check = gf2_matmul(matrix, np.asarray(solution).reshape(-1, 1)).ravel()
            assert np.array_equal(check, b), backend

    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 5)),
               elements=st.integers(0, 1)),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_matches_across_backends(self, left, inner_cols):
        rng = np.random.default_rng(left.sum() + inner_cols)
        right = rng.integers(0, 2, size=(left.shape[1], inner_cols), dtype=np.uint8)
        ref = gf2_matmul(left, right, backend="dense")
        for backend in ("packed", "arena"):
            assert np.array_equal(gf2_matmul(left, right, backend=backend), ref)

    @pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 129, 200])
    def test_word_boundary_widths(self, cols):
        """Widths straddling the 64-bit word boundary stay bit-identical."""
        rng = np.random.default_rng(cols)
        matrix = rng.integers(0, 2, size=(40, cols), dtype=np.uint8)
        assert gf2_rank(matrix, backend="arena") == gf2_rank(matrix, backend="dense")
        ref_m, ref_p = gf2_rref(matrix, backend="dense")
        got_m, got_p = gf2_rref(matrix, backend="arena")
        assert np.array_equal(got_m, ref_m)
        assert list(got_p) == list(ref_p)
        assert np.array_equal(
            gf2_nullspace(matrix, backend="arena"),
            gf2_nullspace(matrix, backend="dense"),
        )

    @pytest.mark.parametrize("rows", [65, 130])
    def test_tall_matrices_beyond_64_rows(self, rows):
        rng = np.random.default_rng(rows)
        matrix = rng.integers(0, 2, size=(rows, 30), dtype=np.uint8)
        assert gf2_rank(matrix, backend="arena") == gf2_rank(matrix, backend="dense")


class TestAutoSelection:
    """Bulk elimination upgrades packed -> arena at the column crossover."""

    def test_default_threshold(self):
        assert arena_auto_threshold() == 128

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GF2_ARENA_THRESHOLD", "16")
        assert arena_auto_threshold() == 16

    def test_upgrade_at_threshold_edge(self, monkeypatch):
        monkeypatch.setenv("REPRO_GF2_ARENA_THRESHOLD", "8")
        below = np.zeros((4, 7), dtype=np.uint8)
        at = np.zeros((4, 8), dtype=np.uint8)
        assert _elimination_backend(PACKED, below) == PACKED
        assert _elimination_backend(PACKED, at) == ARENA

    def test_explicit_backend_never_upgraded(self, monkeypatch):
        monkeypatch.setenv("REPRO_GF2_ARENA_THRESHOLD", "1")
        wide = np.zeros((4, 64), dtype=np.uint8)
        assert _elimination_backend("dense", wide) == "dense"
        assert _elimination_backend(ARENA, wide) == ARENA

    def test_rref_result_unchanged_by_routing(self, monkeypatch):
        """Auto-upgraded rref answers match the un-upgraded ones exactly."""
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 2, size=(50, 140), dtype=np.uint8)
        monkeypatch.setenv("REPRO_GF2_ARENA_THRESHOLD", "64")
        routed_m, routed_p = gf2_rref(matrix, backend="packed")
        monkeypatch.setenv("REPRO_GF2_ARENA_THRESHOLD", "100000")
        plain_m, plain_p = gf2_rref(matrix, backend="packed")
        assert np.array_equal(routed_m, plain_m)
        assert list(routed_p) == list(plain_p)

    def test_make_reduction_state_does_not_auto_upgrade(self):
        # Per-row online updates have nothing to batch: the arena backend
        # reduces on the packed rows.
        graph = ghz_graph(16)
        state = make_reduction_state(graph, backend="packed")
        assert isinstance(state, PackedReductionState)
        arena = make_reduction_state(graph, backend="arena")
        assert type(arena) is PackedReductionState
        with use_backend("arena"):
            assert type(make_reduction_state(graph)) is PackedReductionState
        dense = make_reduction_state(graph, backend="dense")
        assert isinstance(dense, ReductionState)
        assert not isinstance(dense, PackedReductionState)


class TestReductionBitIdentity:
    """greedy_reduce on the packed rows is bit-identical to the dense oracle."""

    @pytest.mark.parametrize("family", sorted(ZOO_GRAPHS))
    def test_operations_and_circuits_identical(self, family):
        graph = ZOO_GRAPHS[family]()
        ref = greedy_reduce(graph, backend="dense")
        got = greedy_reduce(graph, backend="packed")
        assert got.operations == ref.operations, family
        assert got.num_emitters == ref.num_emitters, family
        assert got.to_circuit().gates == ref.to_circuit().gates, family

    def test_packed_beyond_word_boundary(self):
        """A >64-vertex graph exercises multi-word packed rows end to end."""
        graph = erdos_renyi_graph(70, seed=9)
        ref = greedy_reduce(graph, backend="dense")
        got = greedy_reduce(graph, backend="packed")
        assert got.operations == ref.operations
        assert got.num_emitters == ref.num_emitters


class TestCutRankEngineBackends:
    """Height functions match the dense per-prefix oracle on every backend.

    ``packed`` and ``arena`` both evaluate through one ``CutRankEngine``
    sweep over the packed rows; ``dense`` ranks every prefix from scratch.
    """

    @pytest.mark.parametrize("family", sorted(ZOO_GRAPHS))
    def test_heights_identical(self, family):
        graph = ZOO_GRAPHS[family]()
        ordering = list(graph.vertices())
        heights = {
            backend: height_function(graph, ordering, backend=backend)
            for backend in BACKEND_TRIPLE
        }
        assert heights["arena"] == heights["packed"] == heights["dense"], family
        assert CutRankEngine(graph).heights(ordering) == heights["dense"], family

    def test_engine_beyond_word_boundary(self):
        graph = erdos_renyi_graph(70, seed=4)
        ordering = list(graph.vertices())
        assert CutRankEngine(graph).heights(ordering) == height_function(
            graph, ordering, backend="dense"
        )
