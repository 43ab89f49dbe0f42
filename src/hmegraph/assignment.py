"""Bipartite assignment between label tokens and grid cells.

A cell classifier is trained against a target grid: one cell per label token
carries that token's class, every other cell carries the none class.  The
token-to-cell map is not annotated, so it is estimated per sample:

1. take a rough position for each token from teacher-forced attention,
2. build a cost matrix that only admits cells inside a km x km window
   around the rough position (cost ``|p - 1|`` inside, 1e6 outside),
3. solve the rectangular assignment with the Hungarian method.  Outside
   the windows every row costs 1e6, so most columns are identical; the
   solver sees only the union of the windows plus as many of those
   blocked columns as there are rows, the lowest-index ones.

Tokens with no ink of their own (group ENDs, <sos>, <eos>) never appear on
the grid; ENDs inherit their owner's cell in the per-node supervision so
every graph node still has a location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EvenKernel,
    Infeasible,
    NonFinite,
    ShapeMismatch,
    StepMismatch,
    as_array,
    as_pairs,
    as_scalar,
    nonnegative_max,
    scan_finite,
)
from .tokens import TokenVocab, _walk, gt_targets

BLOCK_COST = 1e6


def estimate_positions(
    attn: np.ndarray, label: list[int], vocab: TokenVocab
) -> list[tuple[int, int]]:
    """Rough cell position of each grid-predictable label token.

    `attn` holds one H x W attention slice per label token (teacher-forced
    decoding order).  The position of a token is the argmax cell of its
    slice; ties resolve to the smallest row, then the smallest column.
    Tokens that cannot appear on the grid (END, <sos>, <eos>) are skipped,
    so the result has one entry per predictable token, in label order.

    Raises:
        VocabMiss: a label id outside the vocabulary.
        ShapeMismatch: `attn` is not a real 3-d array, or its maps have no
            cells; or the label is not a sequence of integers.
        StepMismatch: fewer attention slices than label tokens.
        NonFinite: `attn` holds NaN or infinity.
    """
    vocab.check_ids(label)
    attn = as_array(attn, (None, None, None), "attention stack")
    if attn.shape[1] * attn.shape[2] == 0:
        raise ShapeMismatch(f"attention maps of shape {attn.shape[1:]} have no cells")
    if attn.shape[0] < len(label):
        raise StepMismatch(
            f"{attn.shape[0]} attention steps for {len(label)} label tokens"
        )
    n, (h, w), k = len(label), attn.shape[1:], vocab.num_predictable
    flat = attn[:n].reshape(n, h * w).argmax(axis=1).tolist()
    return [divmod(f, w) for f, cid in zip(flat, label) if cid < k]  # ids are checked >= 0


def build_cost(
    P: np.ndarray,
    positions: list[tuple[int, int]],
    label: list[int],
    vocab: TokenVocab,
    km: int = 5,
) -> np.ndarray:
    """Windowed assignment cost between predictable tokens and cells.

    Row l covers the l-th predictable token of `label`.  Cells within the
    km x km window centered on that token's rough position cost
    ``|P[class, cell] - 1|``; all other cells cost 1e6, which keeps the
    assignment inside the windows whenever that is feasible.  Windows clip
    at the grid border.  Every window is filled at once: one gather of the
    km x km cells per token from P, and one scatter into the matrix of
    1e6.  The matrix stays dense because callers read it by flat cell.

    Returns:
        float64 array of shape (L, H*W).

    Raises:
        VocabMiss: a label id outside the vocabulary.
        EvenKernel: km is not an integer, or is even or < 1 (the window
            must center on a cell).
        ShapeMismatch: P is not a real (channels, H, W) array with the
            vocabulary's channel count; positions are not an (L, 2) array
            of integers, one per predictable token, or one lies outside the
            H x W grid; or the label is not a sequence of integers.
        NonFinite: P holds NaN or infinity.
    """
    vocab.check_ids(label)
    if not isinstance(km, (int, np.integer)) or km < 1 or km % 2 == 0:
        raise EvenKernel(f"window size must be an odd positive integer, got {km!r}")
    P = as_array(P, (vocab.grid_classes, None, None), "grid")
    pred = [cid for cid in label if cid < vocab.num_predictable]  # ids are checked >= 0
    span = as_array(positions, (len(pred), 2), "positions", kinds="iu")
    n, half = len(pred), km // 2
    h, w = P.shape[1:]
    for r, c in span.tolist():
        if not (0 <= r < h and 0 <= c < w):
            raise ShapeMismatch(f"position {(r, c)} outside the {h}x{w} grid")
    # Each token's km row and km column indices, clamped to the grid.  A
    # clamped index lands on the window's border cell, so the clipped
    # window is covered and repeats write that cell's own value again.
    span = span.astype(np.intp).reshape(n, 2, 1) + np.arange(-half, half + 1)
    rows = np.minimum(np.maximum(span[:, 0], 0), h - 1)[:, :, None]
    cols = np.minimum(np.maximum(span[:, 1], 0), w - 1)[:, None, :]
    cost = np.full((n, h * w), BLOCK_COST)
    cost[np.arange(n)[:, None, None], rows * w + cols] = np.abs(
        P[np.array(pred, dtype=np.intp)[:, None, None], rows, cols].astype(np.float64) - 1.0
    )
    return cost


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment of every row to a distinct column.

    Wraps the Jonker-Volgenant solver from scipy and then canonicalizes
    pairwise ties: whenever two rows can swap their columns at identical
    total cost, the earlier row takes the smaller column index.  Output is
    deterministic for a given matrix.  Only pairwise swaps are
    canonicalized; a tie that needs a cycle of three or more rows, or a move
    to an unused lower column, keeps the solver's choice, so the pairs can
    differ from :func:`hmegraph.synth.oracle_hungarian`, which returns the
    lexicographically smallest optimal column tuple.  One array comparison
    over the block of assigned columns first tests whether any two rows
    tie toward a lower column; when none do, the pairwise loop would swap
    nothing and is skipped.

    Columns that hold the matrix maximum in every row are interchangeable;
    only the `n_rows` lowest-index ones reach the solver.  That changes no
    optimum: an assignment uses at most `n_rows` of them, and any dropped
    one can be traded for an unused lower one at equal cost.  A cost of
    values from +0.0 up, as :func:`build_cost` gives, is read once before
    that: its :func:`~hmegraph.errors.nonnegative_max` proves it finite and
    is the maximum.  Any other float cost is scanned for NaN and infinity
    first, and an integer or bool cost is not; either then takes a separate
    maximum.  The solver and the tie test read only the kept columns.

    Returns:
        (row, column) pairs sorted by row.

    Raises:
        ShapeMismatch: `cost` is not a real 2-d array.
        Infeasible: more rows than columns.
        NonFinite: `cost` holds NaN or infinity.
    """
    from scipy.optimize import linear_sum_assignment  # slow; only matching needs it

    cost = as_array(cost, (None, None), "cost matrix", finite=False)
    n_rows, n_cols = cost.shape
    # One unsigned read proves a cost of values from +0.0 up finite and is
    # its maximum; any other float cost is scanned for NaN or infinity.
    if (top := nonnegative_max(cost)) is None and cost.dtype.kind == "f":
        scan_finite(cost, "cost matrix")
    if n_rows > n_cols:
        raise Infeasible(f"{n_rows} rows cannot injectively map to {n_cols} columns")
    if n_rows == 0:
        return []
    if top is None:
        top = cost.max()
    keep = (cost < top).any(axis=0)
    # The first n_rows blocked columns lie within the first n_rows + (kept count).
    keep[np.flatnonzero(~keep[: n_rows + np.count_nonzero(keep)])[:n_rows]] = True
    kept = np.flatnonzero(keep)
    sub = cost.take(kept, axis=1)
    _, col_ind = linear_sum_assignment(sub)  # rows come back as 0..n-1
    cols = kept[col_ind]
    # Swaps only permute the assigned columns, so ties are read from the
    # n x n block of them: row i on the column that row k was given is
    # block[i, k].  tied[i, j]: rows i < j can trade columns at equal total
    # cost, and row j holds the smaller one.  With no such pair the loop's
    # first pass swaps nothing.  Array sums round as the loop's do (Python
    # floats add exactly as float64 does), and overflow to inf as silently.
    block = sub[:, col_ind]
    diag = block.diagonal()
    rows = np.arange(n_rows)
    with np.errstate(over="ignore"):
        tied = block + block.T == diag[:, None] + diag
    if not (tied & (cols < cols[:, None]) & (rows[:, None] < rows)).any():
        return list(enumerate(cols.tolist()))
    return _swap_ties(block, cols.tolist())


def _swap_ties(block: np.ndarray, cols: list[int]) -> list[tuple[int, int]]:
    """The pairwise tie loop of :func:`hungarian`: repeatedly give the
    earlier of two rows the smaller column wherever they can swap at equal
    total cost.  Float64 sums run on Python floats, which round alike and
    overflow to inf silently; other dtypes keep numpy's own arithmetic,
    with its overflow warning off to match."""
    n_rows = len(cols)
    if block.dtype == np.float64:
        block = block.tolist()
    slot = list(range(n_rows))
    changed = True
    with np.errstate(over="ignore"):
        while changed:
            changed = False
            for i in range(n_rows):
                row_i = block[i]
                for j in range(i + 1, n_rows):
                    si, sj = slot[i], slot[j]
                    if cols[sj] < cols[si] and (
                        row_i[sj] + block[j][si] == row_i[si] + block[j][sj]
                    ):
                        slot[i], slot[j] = sj, si
                        changed = True
    return [(i, cols[slot[i]]) for i in range(n_rows)]


@dataclass
class AssignmentTarget:
    """Per-sample supervision derived from one assignment.

    grid: (H, W) int64 cell classes, none-filled except assigned cells.
    cells: one (row, col) per canonical label token; ENDs carry their
        owner's cell.
    self_targets / left_targets / right_targets: chain supervision per
        token, indices counting the virtual start as 0.
    """

    grid: np.ndarray
    cells: list[tuple[int, int]]
    self_targets: list[int]
    left_targets: list[int]
    right_targets: list[int]


def make_targets(
    assignment: list[tuple[int, int]],
    label: list[int],
    vocab: TokenVocab,
    height: int,
    width: int,
) -> AssignmentTarget:
    """Expand an assignment into the full training-target bundle.

    `assignment` pairs the l-th predictable token with a flat cell index
    (from :func:`hungarian` over a :func:`build_cost` matrix); flat indices
    unravel row-major to (flat // width, flat % width).  Its rows are
    exactly 0..L-1, in any order, and no two share a cell.

    Raises:
        VocabMiss: a label id outside the vocabulary.
        ShapeMismatch: the assignment is not an (L, 2) array of integers
            or does not cover the label's predictable tokens once each, the
            grid size is not two integers >= 0, a cell index lies outside
            the grid, two tokens share a cell, or the label is not a
            sequence of integers.
        IllNested: the label's groups do not nest.
        EmptyInput: an empty label.
    """
    vocab.check_ids(label)
    height, width = as_array((height, width), (2,), "grid size", kinds="iu").tolist()
    if min(height, width) < 0:
        raise ShapeMismatch(f"grid size {height}x{width} is negative")
    pred = [cid for cid in label if cid < vocab.num_predictable]  # ids are checked >= 0
    grid = np.full((height, width), vocab.none_id, dtype=np.int64)
    pairs = sorted(as_pairs(assignment, "assignment"))
    if (rows := [l for l, _ in pairs]) != list(range(len(pred))):
        raise ShapeMismatch(f"assignment rows {rows} are not 0..{len(pred) - 1} once each")
    pred_cells = []
    for (_, flat), cid in zip(pairs, pred):
        if not 0 <= flat < height * width:
            raise ShapeMismatch(f"cell index {flat} outside {height}x{width} grid")
        r, c = divmod(flat, width)
        grid[r, c] = cid
        pred_cells.append((r, c))
    if len(set(pred_cells)) < len(pred_cells):
        raise ShapeMismatch(f"two tokens assigned to cell {max(pred_cells, key=pred_cells.count)}")
    _, parents, _ = _walk(label, vocab)  # no spelling, and no second range check
    placed = iter(pred_cells)
    cells: list[tuple[int, int]] = []
    for owner in parents:  # an END shares its owner's cell
        cells.append(next(placed) if owner is None else cells[owner])
    self_t, left_t, right_t = gt_targets(label)
    return AssignmentTarget(grid, cells, self_t, left_t, right_t)


def loss_vat(P: np.ndarray, target_grid: np.ndarray) -> float:
    """Mean negative log-likelihood of the target class at every cell.

    Raises:
        ShapeMismatch: the target grid is not an integer (H, W) array, P
            is not a real array, or their shapes or the class range
            disagree.
        NonFinite: NaN or infinity at a target cell, naming the first by
            its flat index in P (a NaN elsewhere in P is never read); or a
            zero-probability target (infinite loss, index None).
    """
    target_grid = as_array(target_grid, (None, None), "target grid", kinds="iu")
    P = as_array(P, (None, *target_grid.shape), "grid", finite=False)
    if target_grid.size and _unsigned_max(target_grid) >= P.shape[0]:
        raise ShapeMismatch("target grid holds class ids outside the grid channels")
    h, w = target_grid.shape
    # Each cell's target value, by its flat index in P.
    flat = target_grid.astype(np.intp, copy=False) * (h * w) + np.arange(h * w).reshape(h, w)
    picked = P.take(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = float(-np.mean(np.log(picked.astype(np.float64))))
    if not np.isfinite(loss):
        # Name the first NaN or infinity the loss read, by its flat index in P.
        bad = ~np.isfinite(picked)
        if bad.any():
            index = int(flat[bad].min())
            raise NonFinite(f"grid: {P.flat[index]} at flat index {index}", index)
        raise NonFinite("cell loss is not finite")
    return loss


def _unsigned_max(ids: np.ndarray, axis=None):
    """The maximum of an integer array read as unsigned integers of its
    width, so one comparison against a size also refuses a negative id,
    which wraps to the top of the range."""
    return ids.view(ids.dtype.str.replace("i", "u")).max(axis=axis)


@dataclass
class PgdLoss:
    """The three node-supervision terms and their unweighted sum."""

    self_term: float
    left_term: float
    right_term: float

    @property
    def total(self) -> float:
        return self.self_term + self.left_term + self.right_term


def loss_pgd(
    self_probs: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    targets: tuple[list[int], list[int], list[int]],
) -> PgdLoss:
    """Mean cross-entropy of the correction head and both neighbor heads.

    `self_probs` has one row per real node.  `left` and `right` are
    (N+2) x (N+2) with virtual start/end at indices 0 and N+1, so the row
    of real node i is i+1.  Targets are as built by
    :func:`hmegraph.tokens.gt_targets`.

    Raises:
        ShapeMismatch: an array is not a real 2-d array, the targets are
            not three integer lists of one length, or a target falls
            outside its range.
        NodeCountMismatch: row counts disagree with the node count.
        NonFinite: NaN or infinity in an input, or a zero-probability
            target (infinite loss, index None).
    """
    t = as_array(targets, (3, None), "targets", kinds="iu")
    n = t.shape[1]
    if n == 0:
        raise ShapeMismatch("need at least one node")
    self_probs = as_array(self_probs, (n, None), "correction rows", counts=(0,))
    left = as_array(left, (n + 2, n + 2), "left neighbor scores", counts=(0, 1))
    right = as_array(right, (n + 2, n + 2), "right neighbor scores", counts=(0, 1))
    top = _unsigned_max(t, axis=1)
    if top[0] >= self_probs.shape[1]:
        raise ShapeMismatch("self target outside correction classes")
    if top[1:].max() >= n + 2:
        raise ShapeMismatch("neighbor target outside node range")
    rows = np.arange(n)
    picked = self_probs[rows, t[0]], left[rows + 1, t[1]], right[rows + 1, t[2]]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.concatenate(picked, dtype=np.float64)).reshape(3, n)
        s, lt, rt = (-logs.mean(axis=1)).tolist()
    if not (np.isfinite(s) and np.isfinite(lt) and np.isfinite(rt)):
        raise NonFinite("node loss is not finite")
    return PgdLoss(s, lt, rt)


def loss_total(vat: float, pgd: PgdLoss, lam: float = 0.5) -> float:
    """Combined objective: the cell loss plus `lam` times the node loss.

    Raises:
        ShapeMismatch: `vat` or `lam` is not a real number.
        NonFinite: `vat` or `lam` is NaN or infinite.
    """
    return float(as_scalar(vat, "vat") + as_scalar(lam, "lam") * pgd.total)
