"""Sparse-matrix generators used for training and evaluation data.

The paper draws on three kinds of inputs:

* uniform random matrices (SciPy ``random`` equivalents) for training and
  the U1-U3 synthetic suite,
* R-MAT power-law matrices with ``A = C = 0.1, B = 0.4`` for P1-P3
  (Chakrabarti et al., 2004),
* the Figure-1 motivation matrix: dense columns separating sparse strips,
* real-world matrices from SuiteSparse/SNAP, which this offline
  reproduction replaces with structural stand-ins (see
  :mod:`repro.sparse.suite`) built from the generators in this module.

All generators are deterministic given a seed and return
:class:`~repro.sparse.coo.COOMatrix`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import COOMatrix

__all__ = [
    "uniform_random",
    "rmat",
    "strip_matrix",
    "banded",
    "diagonal_local",
    "block_arrow",
    "random_vector",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _values(rng: np.random.Generator, count: int) -> np.ndarray:
    """Non-zero values drawn uniformly from (0.1, 1.1).

    The offset keeps values away from zero so that numeric cancellation
    never silently removes structural non-zeros in kernels.
    """
    return rng.uniform(0.1, 1.1, size=count)


def _sample_without_replacement(
    rng: np.random.Generator, population: int, size: int
) -> np.ndarray:
    """``rng.choice(population, size, replace=False)`` in O(size) memory.

    Returns the same array and leaves ``rng`` in the same state. For
    ``size > population // 50`` (and ``population > 10000``) numpy
    shuffles the tail of a full ``arange(population)``: step ``k`` swaps
    position ``i = population - 1 - k`` with a uniform ``j`` in
    ``[0, i]``, and the last ``size`` positions are the sample. Nothing
    touches position ``i`` after step ``k``, so it keeps what position
    ``j`` held before the step: ``j`` itself, unless an earlier step
    targeted ``j`` too, in which case it is what the latest such step
    deposited there -- the value its own position ``i`` held, found the
    same way. The swap targets are redrawn with the same bounded draws,
    sorted once by ``(target, step)``, and the few deposit chains are
    followed with binary searches instead of an array of every cell.
    (For ``size == population`` numpy skips the last step; here it
    draws from ``[0, 0]``, which consumes no random bits.) Below the
    cutoff numpy uses Floyd's algorithm, already O(size).
    """
    if not (population > 10000 and size > population // 50):
        return rng.choice(population, size, replace=False)
    # (target, step) packed in one int64; population * size stays far
    # below 2**63 for any population whose arange would fit in memory.
    keys = rng.integers(0, np.arange(population, population - size, -1))
    keys *= size
    keys += np.arange(size)
    keys.sort()
    target, step = np.divmod(keys, size)
    result = np.empty(size, dtype=np.int64)
    out = result[::-1]  # step k fills position population - 1 - k
    repeat = np.zeros(size, dtype=bool)
    np.equal(target[1:], target[:-1], out=repeat[1:])
    fresh = ~repeat
    out[step[fresh]] = target[fresh]
    del fresh
    # A step whose target was hit before reads the latest hit's deposit.
    (at,) = np.nonzero(repeat)
    readers, source = step[at], step[at - 1]
    while source.size:
        # Step s deposits what its position held: the latest earlier
        # deposit there, or the position itself if none.
        position = population - 1 - source
        prev = np.searchsorted(keys, position * size + source) - 1
        hit = (prev >= 0) & (target[prev] == position)
        out[readers[~hit]] = position[~hit]
        readers, source = readers[hit], step[prev[hit]]
    return result


def _merge_first_new(
    seen: np.ndarray, candidates: np.ndarray, need: int
) -> np.ndarray:
    """Add the first ``need`` new keys of ``candidates`` to ``seen``.

    ``seen`` is sorted and duplicate-free; so is the result. A key is new
    when it is not in ``seen``; among new keys, "first" is by position
    of first occurrence in ``candidates``. This is what inserting the
    candidates one by one into a set, stopping at ``need`` new keys,
    leaves behind.
    """
    if seen.size:
        # Look the candidates up in sorted order: binary searches with
        # sorted needles are several times faster than with random ones.
        order = np.argsort(candidates)
        ordered = candidates[order]
        pos = np.minimum(np.searchsorted(seen, ordered), seen.size - 1)
        fresh = np.empty(candidates.size, dtype=bool)
        fresh[order] = seen[pos] != ordered
        candidates = candidates[fresh]
        if not candidates.size:
            return seen
    keys, first = np.unique(candidates, return_index=True)
    if keys.size > need:
        keys = keys[np.sort(np.argsort(first)[:need])]
    return np.insert(seen, np.searchsorted(seen, keys), keys)


def uniform_random(
    n_rows: int,
    n_cols: int,
    density: float,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Uniform random sparse matrix with the given density.

    Exactly ``round(density * n_rows * n_cols)`` distinct coordinates are
    sampled without replacement, matching SciPy's ``sparse.random``.
    """
    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"density must be in [0, 1], got {density}")
    rng = _rng(seed)
    cells = n_rows * n_cols
    nnz = int(round(density * cells))
    rows, cols = np.divmod(
        _sample_without_replacement(rng, cells, nnz), n_cols
    )
    return COOMatrix(rows, cols, _values(rng, nnz), (n_rows, n_cols))


def rmat(
    n: int,
    nnz: int,
    a: float = 0.1,
    b: float = 0.4,
    c: float = 0.1,
    seed: Optional[int] = None,
) -> COOMatrix:
    """R-MAT power-law matrix (Chakrabarti et al.).

    Each edge is placed by recursively descending a 2x2 partition of the
    adjacency matrix with quadrant probabilities ``(a, b, c, d)`` where
    ``d = 1 - a - b - c``. The paper's parameters ``A = C = 0.1, B = 0.4``
    are the defaults. Duplicate edges are merged, so the delivered nnz can
    be slightly below the request; we oversample to compensate.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ShapeError("R-MAT quadrant probabilities must be >= 0")
    if n <= 0 or (n & (n - 1)) != 0:
        # Round the recursion depth up; coordinates outside n are rejected.
        depth = int(np.ceil(np.log2(max(n, 2))))
    else:
        depth = int(np.log2(n))
    rng = _rng(seed)
    # Each level's quadrant is ``rng.choice(4, p=probs)``, drawn here the
    # way ``choice`` draws it: one uniform per level against the CDF.
    # Quadrants 2 and 3 (c, d) set the row bit, 1 and 3 (b, d) the column
    # bit.
    cdf = np.array([a, b, c, d]).cumsum()
    cdf /= cdf[-1]
    weights = 1 << np.arange(depth - 1, -1, -1, dtype=np.int64)
    target = min(nnz, n * n)
    # Oversample in rounds until enough distinct in-range coordinates exist.
    seen = np.zeros(0, dtype=np.int64)
    max_rounds = 64
    for _ in range(max_rounds):
        need = target - seen.size
        if need <= 0:
            break
        batch = max(64, int(need * 1.5))
        u = rng.random((batch, depth))
        row_bits = u >= cdf[1]
        col_bits = ((cdf[0] <= u) & (u < cdf[1])) | (u >= cdf[2])
        rows = row_bits.astype(np.int64) @ weights
        cols = col_bits.astype(np.int64) @ weights
        in_range = (rows < n) & (cols < n)
        seen = _merge_first_new(seen, rows[in_range] * n + cols[in_range], need)
    return COOMatrix(seen // n, seen % n, _values(rng, seen.size), (n, n))


def strip_matrix(
    n: int = 128,
    density: float = 0.20,
    n_strips: int = 8,
    dense_col_density: float = 0.95,
    seed: Optional[int] = None,
) -> COOMatrix:
    """The Figure-1 motivation matrix.

    Dense columns separate ``n_strips`` sparse strips; multiplying the
    matrix by its transpose with the outer-product algorithm alternates
    between dense outer products (dense column x dense row) and sparse
    ones, producing the paper's implicit phase changes. The overall
    density is held near ``density`` by adjusting the strip density after
    accounting for the dense separator columns.
    """
    if n_strips < 1 or n_strips > n:
        raise ShapeError("n_strips must be in [1, n]")
    rng = _rng(seed)
    separator_cols = np.linspace(0, n - 1, n_strips, dtype=np.int64)
    separator_set = set(int(j) for j in separator_cols)
    dense_budget = len(separator_set) * dense_col_density * n
    total_budget = density * n * n
    sparse_cells = (n - len(separator_set)) * n
    strip_density = max(0.0, (total_budget - dense_budget) / max(sparse_cells, 1))
    strip_density = min(strip_density, 1.0)

    rows_parts = []
    cols_parts = []
    for j in range(n):
        col_density = (
            dense_col_density if j in separator_set else strip_density
        )
        count = int(round(col_density * n))
        if count == 0:
            continue
        rows = rng.choice(n, size=min(count, n), replace=False)
        rows_parts.append(rows.astype(np.int64))
        cols_parts.append(np.full(rows.size, j, dtype=np.int64))
    rows_all = np.concatenate(rows_parts) if rows_parts else np.zeros(0, np.int64)
    cols_all = np.concatenate(cols_parts) if cols_parts else np.zeros(0, np.int64)
    return COOMatrix(rows_all, cols_all, _values(rng, rows_all.size), (n, n))


def banded(
    n: int,
    bandwidth: int,
    density_in_band: float = 0.6,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Banded matrix: non-zeros within ``bandwidth`` of the diagonal.

    Models FEM / structural / CFD matrices (e.g. R04 bcsstk08, R09 EX3,
    R12 crack) whose entries cluster along the diagonal.
    """
    if bandwidth < 0:
        raise ShapeError("bandwidth must be non-negative")
    rng = _rng(seed)
    rows_parts = []
    cols_parts = []
    for i in range(n):
        lo = max(0, i - bandwidth)
        hi = min(n, i + bandwidth + 1)
        width = hi - lo
        count = max(1, int(round(density_in_band * width)))
        cols = lo + rng.choice(width, size=min(count, width), replace=False)
        rows_parts.append(np.full(cols.size, i, dtype=np.int64))
        cols_parts.append(cols.astype(np.int64))
    rows_all = np.concatenate(rows_parts)
    cols_all = np.concatenate(cols_parts)
    return COOMatrix(rows_all, cols_all, _values(rng, rows_all.size), (n, n))


def diagonal_local(
    n: int,
    nnz: int,
    spread: float = 0.01,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Matrix with non-zeros scattered tightly around the diagonal.

    Offsets from the diagonal follow a geometric-like decay with scale
    ``spread * n``; models matrices of "local connections only" such as
    R09 in the paper (uniform distribution along the diagonal).
    """
    rng = _rng(seed)
    scale = max(1.0, spread * n)
    seen = np.zeros(0, dtype=np.int64)
    for _ in range(64):
        need = nnz - seen.size
        if need <= 0:
            break
        rows = rng.integers(0, n, size=int(need * 1.5) + 16)
        offsets = np.round(rng.laplace(0.0, scale, size=rows.size)).astype(np.int64)
        cols = rows + offsets
        ok = (cols >= 0) & (cols < n)
        seen = _merge_first_new(seen, rows[ok] * n + cols[ok], need)
    return COOMatrix(seen // n, seen % n, _values(rng, seen.size), (n, n))


def block_arrow(
    n: int,
    nnz: int,
    n_blocks: int = 8,
    arrow_fraction: float = 0.25,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Block-diagonal matrix with dense border rows/columns (arrowhead).

    Models optimal-control and chemical-simulation matrices (R03 bayer09,
    R08 spaceStation, R13 kineticBatchReactor) which mix block structure
    with coupling rows.
    """
    if n_blocks < 1:
        raise ShapeError("n_blocks must be >= 1")
    rng = _rng(seed)
    block = max(1, n // n_blocks)
    arrow_nnz = int(nnz * arrow_fraction)
    block_nnz = nnz - arrow_nnz
    seen = np.zeros(0, dtype=np.int64)

    # Border (arrow) entries live in the last few rows and columns.
    border = max(1, n // 50)
    attempts = 0
    while seen.size < arrow_nnz and attempts < 64:
        attempts += 1
        need = arrow_nnz - seen.size
        pick_row_side = rng.random(int(need * 1.5) + 8) < 0.5
        rr = np.where(
            pick_row_side,
            rng.integers(n - border, n, size=pick_row_side.size),
            rng.integers(0, n, size=pick_row_side.size),
        )
        cc = np.where(
            pick_row_side,
            rng.integers(0, n, size=pick_row_side.size),
            rng.integers(n - border, n, size=pick_row_side.size),
        )
        seen = _merge_first_new(seen, rr * n + cc, need)

    # Block-diagonal entries.
    target = arrow_nnz + block_nnz
    attempts = 0
    while seen.size < target and attempts < 128:
        attempts += 1
        need = target - seen.size
        b = rng.integers(0, n_blocks, size=int(need * 1.5) + 8)
        base = b * block
        rr = base + rng.integers(0, block, size=b.size)
        cc = base + rng.integers(0, block, size=b.size)
        ok = (rr < n) & (cc < n)
        seen = _merge_first_new(seen, rr[ok] * n + cc[ok], need)
    return COOMatrix(seen // n, seen % n, _values(rng, seen.size), (n, n))


def random_vector(n: int, density: float, seed: Optional[int] = None):
    """Uniform random sparse vector (the paper's 50%-dense B operand)."""
    from repro.sparse.vector import SparseVector

    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"density must be in [0, 1], got {density}")
    rng = _rng(seed)
    nnz = int(round(density * n))
    idx = np.sort(_sample_without_replacement(rng, n, nnz))
    return SparseVector(idx, _values(rng, nnz), n)
