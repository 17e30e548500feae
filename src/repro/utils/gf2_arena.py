"""Arena-backed linear algebra over GF(2).

The ``packed`` backend (:mod:`repro.utils.gf2_packed`) stores each matrix row
as one arbitrary-precision Python integer; row elimination is fast, but every
row operation still allocates a fresh ``int`` object and the per-row Python
dispatch dominates once matrices reach a few thousand columns.  This module
keeps the whole matrix in a single preallocated 2-D ``np.uint64`` **arena**
(column ``j`` in bit ``j % 64`` of word ``j // 64``, identical to
:func:`repro.utils.gf2_packed.pack_matrix`) so that

* a row XOR is one vectorised ``np.bitwise_xor`` over a word slice,
* eliminating a column from every remaining row is a single fancy-indexed
  XOR of the pivot row into the rows that carry the bit,
* popcounts batch over the whole arena via ``np.bitwise_count``.

No per-row Python objects are created during elimination, which is what makes
this the fastest backend for large matrices; for small ones the fixed numpy
dispatch overhead loses to the big-int core, which is why
:mod:`repro.utils.backend` keeps ``packed`` as the default and callers switch
per instance at a measured crossover (see ``arena_results`` in
``BENCH_emitters.json``).

Every public function is bit-exact with its dense and packed counterparts:
ranks, pivot columns, reduced echelon forms, nullspace bases, particular
solutions and products are *identical* arrays, so the established oracle
pattern (dense as ground truth) extends unchanged to this backend.
"""

from __future__ import annotations

import numpy as np

from repro.utils.gf2_packed import (
    pack_matrix,
    unpack_matrix,
    words_per_row,
)

__all__ = [
    "arena_gf2_rank",
    "arena_gf2_rref",
    "arena_gf2_nullspace",
    "arena_gf2_solve",
    "arena_gf2_matmul",
    "rank_of_word_rows",
    "zeros_arena",
]

_WORD_BITS = 64


def zeros_arena(num_rows: int, num_cols: int) -> np.ndarray:
    """Preallocate an all-zero ``(num_rows, words_per_row(num_cols))`` arena."""
    return np.zeros((int(num_rows), words_per_row(num_cols)), dtype=np.uint64)


def _word_bit(col: int) -> tuple[int, np.uint64]:
    """``(word index, single-bit mask)`` addressing column ``col``."""
    return col // _WORD_BITS, np.uint64(1 << (col % _WORD_BITS))


def _gauss_jordan(arena: np.ndarray, num_cols: int) -> list[int]:
    """In-place Gauss–Jordan over the arena; returns the pivot columns.

    Sweeps columns in ascending order, swapping a pivot row up and clearing
    the pivot column from every other row with one fancy-indexed XOR.  On
    return the first ``len(pivots)`` rows are the (unique) reduced row
    echelon form ordered by pivot column; the remaining rows are zero —
    exactly the layout of :func:`repro.utils.gf2.gf2_rref`.
    """
    num_rows = arena.shape[0]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(num_cols):
        if rank == num_rows:
            break
        word, bit = _word_bit(col)
        candidates = np.nonzero(arena[rank:, word] & bit)[0]
        if candidates.size == 0:
            continue
        pivot = rank + int(candidates[0])
        if pivot != rank:
            arena[[rank, pivot]] = arena[[pivot, rank]]
        carriers = np.nonzero(arena[:, word] & bit)[0]
        carriers = carriers[carriers != rank]
        if carriers.size:
            arena[carriers] ^= arena[rank]
        pivot_cols.append(col)
        rank += 1
    return pivot_cols


def rank_of_word_rows(arena: np.ndarray) -> int:
    """GF(2) rank of a packed word-row arena (the rows are not modified)."""
    if arena.size == 0:
        return 0
    work = np.array(arena, dtype=np.uint64, copy=True)
    rank = 0
    num_rows = work.shape[0]
    for word in range(work.shape[1]):
        while rank < num_rows:
            column = work[rank:, word]
            carriers = np.nonzero(column)[0]
            if carriers.size == 0:
                break
            # Pivot on the lowest set bit of the first nonzero row in this
            # word: rank is pivot-order independent, so any choice works.
            pivot = rank + int(carriers[0])
            value = work[pivot, word]
            bit = value & (~value + np.uint64(1))  # lowest set bit
            if pivot != rank:
                work[[rank, pivot]] = work[[pivot, rank]]
            same = np.nonzero(work[rank + 1 :, word] & bit)[0]
            if same.size:
                work[rank + 1 + same] ^= work[rank]
            rank += 1
            if rank == num_rows:
                return rank
    return rank


def arena_gf2_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(2) via arena elimination."""
    packed = pack_matrix(matrix)
    if packed.size == 0:
        return 0
    return rank_of_word_rows(packed)


def arena_gf2_rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2), identical to the dense result.

    Returns:
        ``(rref, pivot_columns)`` with the same shape, dtype and row ordering
        as :func:`repro.utils.gf2.gf2_rref`.
    """
    packed = pack_matrix(matrix)
    num_cols = np.asarray(matrix).shape[1]
    pivot_cols = _gauss_jordan(packed, num_cols) if packed.size else []
    return unpack_matrix(packed, num_cols), pivot_cols


def arena_gf2_nullspace(matrix: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace, identical to the dense construction."""
    rref, pivot_cols = arena_gf2_rref(matrix)
    num_cols = rref.shape[1]
    pivot_set = set(pivot_cols)
    basis_rows = []
    for free in range(num_cols):
        if free in pivot_set:
            continue
        vec = np.zeros(num_cols, dtype=np.uint8)
        vec[free] = 1
        for rank_index, col in enumerate(pivot_cols):
            if rref[rank_index, free]:
                vec[col] = 1
        basis_rows.append(vec)
    if not basis_rows:
        return np.zeros((0, num_cols), dtype=np.uint8)
    return np.stack(basis_rows, axis=0)


def arena_gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Particular solution of ``matrix @ x = rhs`` (or ``None``), bit-exact
    with :func:`repro.utils.gf2.gf2_solve`."""
    bits = np.asarray(matrix)
    vec = np.array(rhs, dtype=np.int64, copy=True).reshape(-1) % 2
    if vec.shape[0] != bits.shape[0]:
        raise ValueError("rhs length does not match the number of rows")
    num_cols = bits.shape[1]
    augmented = np.concatenate(
        [np.asarray(bits, dtype=np.int64) % 2, vec.reshape(-1, 1)], axis=1
    ).astype(np.uint8)
    packed = pack_matrix(augmented)
    pivot_cols = _gauss_jordan(packed, num_cols + 1) if packed.size else []
    if num_cols in pivot_cols:
        return None
    rref = unpack_matrix(packed, num_cols + 1)
    solution = np.zeros(num_cols, dtype=np.uint8)
    for rank_index, col in enumerate(pivot_cols):
        solution[col] = rref[rank_index, num_cols]
    return solution


def arena_gf2_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """GF(2) matrix product computed by XOR-combining arena rows."""
    left_bits = (np.asarray(left, dtype=np.int64) % 2).astype(np.uint8)
    right_bits = (np.asarray(right, dtype=np.int64) % 2).astype(np.uint8)
    if left_bits.shape[1] != right_bits.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {left_bits.shape} x {right_bits.shape}"
        )
    num_cols = right_bits.shape[1]
    right_words = pack_matrix(right_bits)
    out = np.zeros((left_bits.shape[0], right_words.shape[1]), dtype=np.uint64)
    for i in range(left_bits.shape[0]):
        selected = np.nonzero(left_bits[i])[0]
        if selected.size:
            out[i] = np.bitwise_xor.reduce(right_words[selected], axis=0)
    return unpack_matrix(out, num_cols)
