"""Bipartite assignment between label tokens and grid cells.

A cell classifier is trained against a target grid: one cell per label token
carries that token's class, every other cell carries the none class.  The
token-to-cell map is not annotated, so it is estimated per sample:

1. take a rough position for each token from teacher-forced attention,
2. build a cost matrix that only admits cells inside a km x km window
   around the rough position (cost ``|p - 1|`` inside, 1e6 outside),
3. solve the rectangular assignment with the Hungarian method.

Tokens with no ink of their own (group ENDs, <sos>, <eos>) never appear on
the grid; ENDs inherit their owner's cell in the per-node supervision so
every graph node still has a location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    EvenKernel,
    Infeasible,
    NodeCountMismatch,
    NonFinite,
    ShapeMismatch,
    StepMismatch,
    check_finite,
    check_shape,
)
from .tokens import TokenVocab, end_parents, gt_targets

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
        ShapeMismatch: `attn` is not 3-d, or its maps have no cells.
        StepMismatch: fewer attention slices than label tokens.
        NonFinite: `attn` holds NaN or infinity.
    """
    check_shape(attn, (None, None, None), "attention stack")
    if attn.shape[1] * attn.shape[2] == 0:
        raise ShapeMismatch(f"attention maps of shape {attn.shape[1:]} have no cells")
    if attn.shape[0] < len(label):
        raise StepMismatch(
            f"{attn.shape[0]} attention steps for {len(label)} label tokens"
        )
    check_finite(attn, "attention stack")
    h, w = attn.shape[1:]
    out = []
    for step, cid in enumerate(label):
        if not vocab.is_predictable(cid):
            continue
        flat = int(np.argmax(attn[step]))
        out.append((flat // w, flat % w))
    return out


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
    at the grid border.

    Returns:
        float64 array of shape (L, H*W).

    Raises:
        EvenKernel: km is even or < 1 (the window must center on a cell).
        ShapeMismatch: P is not (channels, H, W) with the vocabulary's
            channel count, positions do not line up with the label, or a
            position lies outside the H x W grid.
        NonFinite: P holds NaN or infinity.
    """
    if km < 1 or km % 2 == 0:
        raise EvenKernel(f"window size must be odd and positive, got {km}")
    check_shape(P, (vocab.grid_classes, None, None), "grid")
    check_finite(P, "grid")
    pred = [cid for cid in label if vocab.is_predictable(cid)]
    if len(pred) != len(positions):
        raise ShapeMismatch(
            f"{len(positions)} positions for {len(pred)} predictable tokens"
        )
    h, w = P.shape[1:]
    half = km // 2
    cost = np.full((len(pred), h, w), BLOCK_COST)
    for l, (cid, (r, c)) in enumerate(zip(pred, positions)):
        if not (0 <= r < h and 0 <= c < w):
            raise ShapeMismatch(f"position {(r, c)} outside the {h}x{w} grid")
        window = np.s_[max(0, r - half): r + half + 1, max(0, c - half): c + half + 1]
        cost[l][window] = np.abs(P[cid][window].astype(np.float64) - 1.0)
    return cost.reshape(len(pred), h * w)


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment of every row to a distinct column.

    Wraps the Jonker-Volgenant solver from scipy and then canonicalizes
    ties: whenever two rows can swap columns at identical total cost, the
    earlier row takes the smaller column index.  Output is deterministic
    for a given matrix.

    Returns:
        (row, column) pairs sorted by row.

    Raises:
        ShapeMismatch: `cost` is not 2-d.
        Infeasible: more rows than columns.
        NonFinite: `cost` holds NaN or infinity.
    """
    check_shape(cost, (None, None), "cost matrix")
    check_finite(cost, "cost matrix")
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise Infeasible(f"{n_rows} rows cannot injectively map to {n_cols} columns")
    row_ind, col_ind = linear_sum_assignment(cost)
    cols = [0] * n_rows
    for r, c in zip(row_ind, col_ind):
        cols[int(r)] = int(c)
    changed = True
    while changed:
        changed = False
        for i in range(n_rows):
            for j in range(i + 1, n_rows):
                if cols[j] < cols[i] and (
                    cost[i, cols[j]] + cost[j, cols[i]]
                    == cost[i, cols[i]] + cost[j, cols[j]]
                ):
                    cols[i], cols[j] = cols[j], cols[i]
                    changed = True
    return [(i, cols[i]) for i in range(n_rows)]


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
    unravel row-major to (flat // width, flat % width).
    """
    pred = [cid for cid in label if vocab.is_predictable(cid)]
    if len(assignment) != len(pred):
        raise ShapeMismatch(
            f"assignment covers {len(assignment)} tokens, label has {len(pred)}"
        )
    grid = np.full((height, width), vocab.none_id, dtype=np.int64)
    pred_cells = []
    for (l, flat), cid in zip(sorted(assignment), pred):
        if not 0 <= flat < height * width:
            raise ShapeMismatch(f"cell index {flat} outside {height}x{width} grid")
        r, c = divmod(flat, width)
        grid[r, c] = cid
        pred_cells.append((r, c))
    parents = end_parents(label, vocab)
    cells: list[tuple[int, int]] = []
    by_pos: dict[int, tuple[int, int]] = {}
    k = 0
    for pos, cid in enumerate(label):
        if vocab.is_predictable(cid):
            by_pos[pos] = pred_cells[k]
            cells.append(pred_cells[k])
            k += 1
        else:
            cells.append(by_pos[parents[pos]])
    self_t, left_t, right_t = gt_targets(label)
    return AssignmentTarget(grid, cells, self_t, left_t, right_t)


def loss_vat(P: np.ndarray, target_grid: np.ndarray) -> float:
    """Mean negative log-likelihood of the target class at every cell.

    Raises:
        ShapeMismatch: the target grid is not an integer (H, W) array, or
            its shape or class range disagrees with P.
        NonFinite: NaN or infinity at a target cell, or a zero-probability
            target (infinite loss, index None).
    """
    check_shape(target_grid, (None, None), "target grid")
    if not np.issubdtype(target_grid.dtype, np.integer):
        raise ShapeMismatch(f"target grid holds {target_grid.dtype}, not class ids")
    check_shape(P, (None, *target_grid.shape), "grid")
    if target_grid.min() < 0 or target_grid.max() >= P.shape[0]:
        raise ShapeMismatch("target grid holds class ids outside the grid channels")
    h, w = target_grid.shape
    picked = P[target_grid, np.arange(h)[:, None], np.arange(w)[None, :]]
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = float(np.mean(-np.log(picked.astype(np.float64))))
    if not np.isfinite(loss):
        check_finite(P, "grid")
        raise NonFinite("cell loss is not finite")
    return loss


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
        ShapeMismatch: an array is not 2-d, target lists differ in length,
            or targets fall outside their range.
        NodeCountMismatch: row counts disagree with the node count.
        NonFinite: NaN or infinity in an input, or a zero-probability
            target (infinite loss, index None).
    """
    self_t, left_t, right_t = targets
    n = len(self_t)
    if n == 0:
        raise ShapeMismatch("need at least one node")
    if not (len(left_t) == len(right_t) == n):
        raise ShapeMismatch("target lists differ in length")
    check_shape(self_probs, (n, None), "correction rows", NodeCountMismatch)
    check_finite(self_probs, "correction rows")
    for name, m in (("left", left), ("right", right)):
        check_shape(m, (n + 2, n + 2), f"{name} neighbor scores", NodeCountMismatch)
        check_finite(m, f"{name} neighbor scores")
    if n and (max(self_t) >= self_probs.shape[1] or min(self_t) < 0):
        raise ShapeMismatch("self target outside correction classes")
    if n and not all(0 <= t < n + 2 for t in left_t + right_t):
        raise ShapeMismatch("neighbor target outside node range")
    rows = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = float(np.mean(-np.log(self_probs[rows, self_t].astype(np.float64))))
        lt = float(np.mean(-np.log(left[rows + 1, left_t].astype(np.float64))))
        rt = float(np.mean(-np.log(right[rows + 1, right_t].astype(np.float64))))
    if not (np.isfinite(s) and np.isfinite(lt) and np.isfinite(rt)):
        raise NonFinite("node loss is not finite")
    return PgdLoss(s, lt, rt)


def loss_total(vat: float, pgd: PgdLoss, lam: float = 0.5) -> float:
    """Combined objective: the cell loss plus `lam` times the node loss."""
    return float(vat + lam * pgd.total)
