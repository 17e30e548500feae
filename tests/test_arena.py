"""Cross-backend agreement checks that outlived the arena GF(2) backend.

The arena backend (word arenas + bulk kernels) has been deleted; these
tests keep its cross-backend guarantees for the two backends that remain:

* kernel level — the ``gf2_*`` bulk kernels agree between the packed
  big-int kernels and the dense uint8 oracle on every input;
* reduction level — ``greedy_reduce`` produces the exact same operation
  sequence (and forward circuit) on the packed rows as on the dense oracle,
  across the scenario zoo;
* selection — ``make_reduction_state`` picks the state class named by the
  backend and upgrades to nothing else; ``"arena"`` is no longer a backend.
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
from repro.utils.backend import use_backend
from repro.utils.gf2 import (
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

BACKEND_PAIR = ("dense", "packed")

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
    """packed == dense on every bulk kernel."""

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_across_backends(self, matrix):
        ranks = {b: gf2_rank(matrix, backend=b) for b in BACKEND_PAIR}
        assert len(set(ranks.values())) == 1, ranks

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_rref_matches_across_backends(self, matrix):
        ref_matrix, ref_pivots = gf2_rref(matrix, backend="dense")
        got_matrix, got_pivots = gf2_rref(matrix, backend="packed")
        assert np.array_equal(got_matrix, ref_matrix)
        assert list(got_pivots) == list(ref_pivots)

    @given(binary_matrices)
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_across_backends(self, matrix):
        ref = gf2_nullspace(matrix, backend="dense")
        assert np.array_equal(gf2_nullspace(matrix, backend="packed"), ref)

    @given(binary_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_solve_matches_across_backends(self, matrix, rng):
        # Build a consistent system: b = A @ x for a random x.
        x = np.array(
            [rng.randint(0, 1) for _ in range(matrix.shape[1])], dtype=np.uint8
        )
        b = gf2_matmul(matrix, x.reshape(-1, 1)).ravel()
        solutions = {b_: gf2_solve(matrix, b, backend=b_) for b_ in BACKEND_PAIR}
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
        assert np.array_equal(gf2_matmul(left, right, backend="packed"), ref)


class TestAutoSelection:
    """The reduction state follows the backend name and nothing else."""

    def test_make_reduction_state_does_not_auto_upgrade(self):
        graph = ghz_graph(16)
        state = make_reduction_state(graph, backend="packed")
        assert type(state) is PackedReductionState
        with use_backend("packed"):
            assert type(make_reduction_state(graph)) is PackedReductionState
        dense = make_reduction_state(graph, backend="dense")
        assert isinstance(dense, ReductionState)
        assert not isinstance(dense, PackedReductionState)
        with use_backend("dense"):
            assert type(make_reduction_state(graph)) is ReductionState
        with pytest.raises(ValueError):
            make_reduction_state(graph, backend="arena")


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
