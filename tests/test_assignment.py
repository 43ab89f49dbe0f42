"""Token-to-cell assignment: positions, cost windows, Hungarian, losses."""

import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from hmegraph import (
    EmptyInput,
    EvenKernel,
    GridTooSmall,
    HmeGraphError,
    Infeasible,
    NoiseSpec,
    NonFinite,
    ShapeMismatch,
    StepMismatch,
    VocabMiss,
    build_cost,
    build_vocab,
    default_vocab,
    estimate_positions,
    gen_expression,
    gt_targets,
    hungarian,
    loss_pgd,
    loss_total,
    loss_vat,
    make_sample,
    make_targets,
    oracle_hungarian,
    parse_latex,
    read_tensor,
    teacher_matrices,
    write_tensor,
)
from hmegraph import assignment, errors
from hmegraph.assignment import BLOCK_COST
from hmegraph.errors import as_array


@pytest.fixture(scope="module")
def small_vocab():
    return build_vocab(["a b c x ^ { 2 }"])


def one_hot_attn(cells, h, w):
    attn = np.zeros((len(cells), h, w), dtype=np.float32)
    for step, (r, c) in enumerate(cells):
        attn[step, r, c] = 1.0
    return attn


class TestEstimatePositions:
    def test_skips_imaginary_tokens(self, vocab):
        # Four label tokens, but the END never reaches the grid: three positions.
        seq = parse_latex("x ^ { 2 }", vocab)
        assert len(seq) == 4
        attn = one_hot_attn([(1, 0), (0, 1), (0, 2), (0, 1)], 3, 4)
        pos = estimate_positions(attn, seq, vocab)
        assert pos == [(1, 0), (0, 1), (0, 2)]

    def test_tie_breaks_to_first_raster_cell(self, vocab):
        seq = parse_latex("x", vocab)
        attn = np.full((1, 3, 3), 0.5, dtype=np.float32)
        assert estimate_positions(attn, seq, vocab) == [(0, 0)]

    def test_step_mismatch(self, vocab):
        seq = parse_latex("x + y", vocab)
        attn = np.zeros((2, 3, 3), dtype=np.float32)
        with pytest.raises(StepMismatch):
            estimate_positions(attn, seq, vocab)

    def test_extra_steps_tolerated(self, vocab):
        seq = parse_latex("x", vocab)
        attn = one_hot_attn([(1, 1), (0, 0)], 2, 2)
        assert estimate_positions(attn, seq, vocab) == [(1, 1)]

    def test_bad_rank(self, vocab):
        with pytest.raises(ShapeMismatch):
            estimate_positions(np.zeros((2, 4)), parse_latex("x", vocab), vocab)


class TestBuildCost:
    def test_window_and_blocking(self, small_vocab):
        v = small_vocab
        seq = parse_latex("a", v)
        h, w = 3, 3
        P = np.full((v.grid_classes, h, w), 1.0 / v.grid_classes, dtype=np.float64)
        P[v.id_of("a"), 1, 1] = 0.75
        cost = build_cost(P, [(1, 1)], seq, v, km=1)
        # Only the center cell is inside the km=1 window.
        assert cost.shape == (1, 9)
        assert cost[0, 4] == pytest.approx(0.25)
        blocked = np.delete(cost[0], 4)
        assert np.all(blocked == BLOCK_COST)

    def test_window_clips_at_border(self, small_vocab):
        v = small_vocab
        seq = parse_latex("a", v)
        P = np.ones((v.grid_classes, 3, 3), dtype=np.float64)
        cost = build_cost(P, [(0, 0)], seq, v, km=3)
        open_cells = {0, 1, 3, 4}  # 2x2 clipped window around the corner
        for flat in range(9):
            if flat in open_cells:
                assert cost[0, flat] == pytest.approx(0.0)
            else:
                assert cost[0, flat] == BLOCK_COST

    def test_window_wider_than_grid_costs_the_grid(self, small_vocab):
        """A window wider than the grid is narrowed first: at a km ten times
        the grid, every cell is in every window, as in the grid-wide
        window, and the peak memory is that window's."""
        v = small_vocab
        seq = parse_latex("a b c", v)
        P = np.random.default_rng(0).random((v.grid_classes, 6, 20))
        positions = [(0, 0), (3, 10), (5, 19)]

        def run(km):
            tracemalloc.start()
            try:
                return build_cost(P, positions, seq, v, km=km), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(39)  # first-call allocations stay out of the readings
        wide, wide_peak = run(39)  # 2 * 20 - 1: every window reaches every cell
        huge, huge_peak = run(201)
        every_cell = np.abs(P[seq].reshape(len(seq), -1) - 1.0)  # a, b and c are predictable
        assert np.array_equal(huge, every_cell) and np.array_equal(wide, every_cell)
        assert huge_peak < 1.25 * wide_peak, (huge_peak, wide_peak)

    def test_even_kernel_rejected(self, small_vocab):
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 3))
        for km in (0, 2, -1, 4):
            with pytest.raises(EvenKernel):
                build_cost(P, [(0, 0)], parse_latex("a", v), v, km=km)

    def test_channel_mismatch(self, small_vocab):
        v = small_vocab
        P = np.ones((v.grid_classes + 1, 3, 3))
        with pytest.raises(ShapeMismatch):
            build_cost(P, [(0, 0)], parse_latex("a", v), v)

    def test_position_count_mismatch(self, small_vocab):
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 3))
        with pytest.raises(ShapeMismatch):
            build_cost(P, [(0, 0), (1, 1)], parse_latex("a", v), v)

    def test_position_off_grid(self, small_vocab):
        # Unchecked, a negative row wraps around as a slice start and a row
        # past the grid blocks every cell.
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 3))
        for pos in [(-2, 1), (-3, 1), (3, 1), (1, -1), (1, 3), (9, 9)]:
            with pytest.raises(ShapeMismatch):
                build_cost(P, [pos], parse_latex("a", v), v, km=5)

    def test_names_first_off_grid_position(self, small_vocab):
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 4))
        seq = parse_latex("a b c x a", v)
        positions = [(0, 0), (2, 3), (3, 1), (1, 1), (-1, 0)]
        with pytest.raises(ShapeMismatch, match=re.escape("position (3, 1) outside the 3x4 grid")):
            build_cost(P, positions, seq, v, km=3)

    def test_non_integer_position_fails(self, small_vocab):
        # A fractional position is refused, never truncated to a cell.
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 4))
        with pytest.raises(ShapeMismatch, match=re.escape("positions holds float64, not integers")):
            build_cost(P, [(0, 0), (1.5, 2)], parse_latex("a b", v), v, km=3)

    @pytest.mark.parametrize("bad", [(1, 2, 3), ("a", 2), (1,), 7, (1.0, 2)])
    def test_malformed_position_named(self, small_vocab, bad):
        """The gate names the fault of the positions as numpy reads them:
        ragged rows, or the dtype that is not integers."""
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 4))
        msg = {(1, 2, 3): "positions is ragged: its rows differ in length or depth",
               ("a", 2): "positions holds <U21, not integers",
               (1.0, 2): "positions holds float64, not integers"}.get(
                   bad, "positions is ragged: its rows differ in length or depth")
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(msg)}$"):
            build_cost(P, [(0, 0), bad], parse_latex("a b", v), v, km=3)

    @pytest.mark.parametrize("km", [3.0, "3", None])
    def test_non_integer_kernel(self, small_vocab, km):
        v = small_vocab
        P = np.ones((v.grid_classes, 3, 3))
        with pytest.raises(EvenKernel, match=re.escape(f"got {km!r}")):
            build_cost(P, [(0, 0)], parse_latex("a", v), v, km=km)

    def test_numpy_integers_accepted(self, small_vocab):
        v = small_vocab
        P = np.random.default_rng(5).random((v.grid_classes, 3, 4))
        label = parse_latex("a b", v)
        want = build_cost(P, [(0, 0), (1, 2)], label, v, km=3)
        for positions in ([(np.int64(0), np.int32(0)), (np.uint8(1), 2)],
                          np.array([[0, 0], [1, 2]])):
            got = build_cost(P, positions, label, v, km=np.int64(3))
            assert np.array_equal(got, want)


def window_loop_cost(P, positions, label, vocab, km):
    """Reference: one clipped window at a time, filled with slices."""
    pred = [cid for cid in label if vocab.is_predictable(cid)]
    h, w = P.shape[1:]
    half = km // 2
    cost = np.full((len(pred), h, w), BLOCK_COST)
    for l, (cid, (r, c)) in enumerate(zip(pred, positions)):
        window = np.s_[max(0, r - half): r + half + 1, max(0, c - half): c + half + 1]
        cost[l][window] = np.abs(P[cid][window].astype(np.float64) - 1.0)
    return cost.reshape(len(pred), h * w)


def test_build_cost_matches_window_loop(vocab):
    """Byte for byte, for every odd km up to 7, both float widths, windows
    clipped at each border, and labels with no predictable token."""
    rng = np.random.default_rng(20261019)
    ids = list(range(vocab.num_predictable)) + [vocab.end_id] * 8
    seen = {"top": 0, "bottom": 0, "left": 0, "right": 0, "empty": 0}
    for trial in range(400):
        km = (1, 3, 5, 7)[trial % 4]
        dtype = (np.float32, np.float64)[trial // 4 % 2]
        h, w = (int(x) for x in rng.integers(1, 12, 2))
        P = rng.random((vocab.grid_classes, h, w)).astype(dtype)
        label = [ids[i] for i in rng.integers(0, len(ids), int(rng.integers(0, 9)))]
        n = sum(vocab.is_predictable(cid) for cid in label)
        positions = [(int(rng.integers(0, h)), int(rng.integers(0, w))) for _ in range(n)]
        got = build_cost(P, positions, label, vocab, km=km)
        want = window_loop_cost(P, positions, label, vocab, km)
        assert (got.dtype, got.shape) == (np.float64, (n, h * w))
        assert got.tobytes() == want.tobytes(), (trial, positions)
        half = km // 2
        seen["top"] += any(r < half for r, _ in positions)
        seen["bottom"] += any(r + half >= h for r, _ in positions)
        seen["left"] += any(c < half for _, c in positions)
        seen["right"] += any(c + half >= w for _, c in positions)
        seen["empty"] += n == 0
    assert min(seen.values()) >= 20, seen


class TestHungarian:
    def test_matches_oracle_on_dyadic_costs(self):
        rng = random.Random(20240819)
        for _ in range(300):
            n_rows = rng.randint(1, 6)
            n_cols = rng.randint(n_rows, 8)
            cost = np.array(
                [
                    [rng.randrange(0, 4096) / 1024.0 for _ in range(n_cols)]
                    for _ in range(n_rows)
                ]
            )
            got = hungarian(cost)
            want = oracle_hungarian(cost)
            got_total = sum(cost[i, j] for i, j in got)
            want_total = sum(cost[i, j] for i, j in want)
            assert got_total == want_total
            assert len({j for _, j in got}) == n_rows

    def test_tie_canonicalization(self):
        cost = np.zeros((3, 5))
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            hungarian(np.zeros((3, 2)))
        with pytest.raises(Infeasible):
            oracle_hungarian(np.zeros((3, 2)))

    def test_bad_rank(self):
        with pytest.raises(ShapeMismatch):
            hungarian(np.zeros(4))

    def test_float32_ties_use_float32_sums(self):
        # In float32, 1 + 2**-24 rounds to 1, so the two rows can swap at
        # identical total cost; the solver, working in float64, prefers the
        # anti-diagonal.
        cost = np.array([[1.0, 1.0], [0.0, 2.0**-24]], dtype=np.float32)
        assert hungarian(cost) == [(0, 0), (1, 1)]
        assert hungarian(cost.astype(np.float64)) == [(0, 1), (1, 0)]

    def test_no_rows(self):
        # build_cost gives (0, H*W) for a label with no predictable tokens.
        assert hungarian(np.zeros((0, 5))) == []
        assert hungarian(np.zeros((0, 0))) == []

    def test_fewer_blocked_columns_than_rows(self):
        """With fewer blocked columns than rows, every one of them reaches
        the solver, wherever it lies, and the pairs are scipy's on every
        column after the swap loop."""
        rng = random.Random(20261021)
        used = 0
        for _ in range(300):
            n_rows = rng.randint(2, 6)
            n_cols = rng.randint(n_rows, 10)
            cost = np.array([[rng.randrange(0, 4) / 4.0 for _ in range(n_cols)]
                             for _ in range(n_rows)])
            blocked = rng.sample(range(n_cols), rng.randint(1, n_rows - 1))
            cost[:, blocked] = 1.0
            assert int(np.all(cost == cost.max(), axis=0).sum()) == len(blocked) < n_rows
            got = hungarian(cost)
            assert got == full_matrix_hungarian(cost)[0], cost.tolist()
            used += any(j in blocked for _, j in got)
        assert used >= 50

    def test_infeasible_with_blocked_columns(self):
        with pytest.raises(Infeasible):
            hungarian(np.full((3, 2), BLOCK_COST))
        with pytest.raises(Infeasible):
            hungarian(np.zeros((1, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("windows,cell", [
        (True, (1, 9)),  # in a column that is otherwise blocked
        (True, (2, 3)),  # inside a window
        (False, (2, 7)),  # every other cell blocked: +inf is the matrix maximum
    ], ids=["blocked_column", "window", "all_blocked"])
    def test_non_finite_index(self, value, windows, cell):
        # A NaN or infinity is named at its row-major position wherever it
        # sits, including in a column the matcher would drop as
        # interchangeable.
        cost = np.full((3, 12), BLOCK_COST)
        if windows:
            cost[:, 2:5] = [[0.5, 0.25, 1.0], [0.0, 0.75, 0.5], [0.25, 0.25, 0.0]]
        cost[cell] = value
        with pytest.raises(NonFinite) as want:
            as_array(cost, None, "cost matrix")
        with pytest.raises(NonFinite) as got:
            hungarian(cost)
        assert got.value.index == want.value.index == cell[0] * 12 + cell[1]

    def test_non_finite_before_infeasible(self):
        cost = np.zeros((3, 2))
        cost[2, 1] = np.nan
        with pytest.raises(NonFinite) as got:
            hungarian(cost)
        assert got.value.index == 5


def full_matrix_hungarian(cost):
    """The matcher before column compression: scipy on every column, then
    the sequential pairwise-swap loop.  Returns the pairs and the swap count."""
    n_rows = cost.shape[0]
    row_ind, col_ind = linear_sum_assignment(cost)
    cols = [0] * n_rows
    for r, c in zip(row_ind, col_ind):
        cols[int(r)] = int(c)
    swaps = 0
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
                    swaps += 1
                    changed = True
    return [(i, cols[i]) for i in range(n_rows)], swaps


def tie_heavy_cost(rng, max_rows=7):
    """A dyadic cost matrix with forced ties: few distinct values, columns of
    the matrix maximum (blocked), columns of a second constant, repeated
    rows, and sometimes build_cost-style windows in a blocked background."""
    n_rows = rng.randint(1, max_rows)
    n_cols = n_rows if rng.random() < 0.2 else rng.randint(n_rows, max(30, 5 * (max_rows - 1)))
    levels = rng.choice([2, 4, 8])
    cost = np.array([[rng.randrange(levels) / 4.0 for _ in range(n_cols)]
                     for _ in range(n_rows)])
    top = rng.choice([BLOCK_COST, levels / 4.0, (levels - 1) / 4.0])
    if rng.random() < 0.3:
        background = np.full((n_rows, n_cols), top)
        for r in range(n_rows):
            lo = rng.randrange(n_cols)
            hi = min(n_cols, lo + rng.randint(1, 5))
            background[r, lo:hi] = cost[r, lo:hi]
        cost = background
    for c in range(n_cols):
        roll = rng.random()
        if roll < 0.4:
            cost[:, c] = top
        elif roll < 0.5:
            cost[:, c] = rng.randrange(levels) / 4.0
    for _ in range(rng.randint(0, 2)):
        cost[rng.randrange(n_rows)] = cost[rng.randrange(n_rows)]
    return cost


def test_hungarian_pairs_match_full_matrix_solve():
    # Pairs, not totals: dropping interchangeable columns must not move a
    # single assignment.
    rng = random.Random(20261018)
    dropped = swapped = square = 0
    for _ in range(3000):
        cost = tie_heavy_cost(rng)
        n_rows, n_cols = cost.shape
        want, swaps = full_matrix_hungarian(cost)
        assert hungarian(cost) == want, cost.tolist()
        blocked = int(np.sum(np.all(cost == cost.max(), axis=0)))
        dropped += blocked > n_rows
        swapped += swaps > 0
        square += n_rows == n_cols
    assert dropped >= 50
    assert swapped >= 50
    assert square >= 50


def floor(m, axis):
    """Uniform mass mixed in, as a detector's softmax gives it; the
    train-targets benchmark workload uses the same 1e-3 floor."""
    return ((1.0 - 1e-3) * m + 1e-3 / m.shape[axis]).astype(np.float32)


def train_costs(vocab, seeds, km=5):
    """`build_cost` matrices of train-targets samples (24x160, depth 3,
    flip 0.1, floored grid) for the seeds whose expression fits the grid."""
    for seed in seeds:
        try:
            latex = gen_expression(seed, max_depth=3, vocab=vocab)
            sample = make_sample(latex, vocab, (24, 160), NoiseSpec(flip_prob=0.1), seed)
        except GridTooSmall:
            continue
        positions = estimate_positions(sample.attn, sample.seq, vocab)
        yield build_cost(floor(sample.probs, 0), positions, sample.seq, vocab, km=km)


# Of seeds 0-2999, the six whose depth-3 labels have the most predictable
# tokens and still fit 24x160 (106 to 112 rows), ranked once and pinned.
LONGEST_SEEDS = (2084, 745, 976, 1300, 1512, 1956)


def test_hungarian_matches_full_matrix_solve_at_train_scale(vocab):
    """Pairs at train-targets scale: build_cost matrices of typical and of
    the longest labels that fit 24x160, and tie-heavy matrices of up to 40
    rows, against scipy on every column and the sequential swap loop."""
    costs = list(train_costs(vocab, range(16))) + list(train_costs(vocab, LONGEST_SEEDS))
    assert max(cost.shape[0] for cost in costs) >= 100
    for cost in costs:
        assert hungarian(cost) == full_matrix_hungarian(cost)[0]
    rng = random.Random(20261020)
    big = swapped = 0
    for _ in range(200):
        cost = tie_heavy_cost(rng, max_rows=40)
        want, swaps = full_matrix_hungarian(cost)
        assert hungarian(cost) == want, cost.tolist()
        big += cost.shape[0] >= 30
        swapped += swaps > 0
    assert big >= 40 and swapped >= 40


TIE_BASE = np.array([[0.5, 0.25, 1.0, 2.0, 2.0],
                     [0.0, 0.75, 0.5, 2.0, 2.0],
                     [0.25, 0.25, 0.0, 2.0, 2.0]])


def _signed_zero():
    cost = TIE_BASE.copy()
    cost[1, 0] = -0.0
    return cost


@pytest.mark.parametrize("cost,want", [
    (TIE_BASE.astype(np.float16), [(0, 1), (1, 0), (2, 2)]),
    (TIE_BASE.astype(np.float32), [(0, 1), (1, 0), (2, 2)]),
    (TIE_BASE, [(0, 1), (1, 0), (2, 2)]),
    (_signed_zero(), [(0, 1), (1, 0), (2, 2)]),
    (TIE_BASE - 1.0, [(0, 1), (1, 0), (2, 2)]),
    ((TIE_BASE * 4).astype(np.int64), [(0, 1), (1, 0), (2, 2)]),
    ((TIE_BASE * 4).astype(np.int8) - 3, [(0, 1), (1, 0), (2, 2)]),
    ((TIE_BASE * 4).astype(np.uint8), [(0, 1), (1, 0), (2, 2)]),
    (TIE_BASE > 0.4, [(0, 1), (1, 0), (2, 2)]),
    (TIE_BASE.astype(">f8"), [(0, 1), (1, 0), (2, 2)]),
    (np.asfortranarray(TIE_BASE), [(0, 1), (1, 0), (2, 2)]),
    (TIE_BASE[::-1, ::-1], [(0, 2), (1, 4), (2, 3)]),
    (np.zeros((3, 5)), [(0, 0), (1, 1), (2, 2)]),
    (np.zeros((3, 5), dtype=np.int64), [(0, 0), (1, 1), (2, 2)]),
    (np.full((2, 4), BLOCK_COST), [(0, 0), (1, 1)]),
    (np.zeros((0, 4)), []),
    (np.zeros((0, 0)), []),
    (np.zeros((0, 3), dtype=np.int64), []),
    (np.zeros((2, 0)), Infeasible("2 rows cannot injectively map to 0 columns")),
    (np.zeros((2, 0), dtype=bool), Infeasible("2 rows cannot injectively map to 0 columns")),
], ids=["float16", "float32", "float64", "negative_zero", "signed", "int64", "int8", "uint8",
        "bool", "byteswapped", "fortran", "reversed_view", "all_tied", "all_tied_int",
        "all_blocked", "0x4", "0x0", "0x3_int", "2x0", "2x0_bool"])
def test_hungarian_dtype_table(cost, want):
    """Every dtype and layout the gate admits: the one-read path (native
    non-negative floats), the scanned floats, integers and bools that are
    never scanned, and empty shapes."""
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            hungarian(cost)
    else:
        assert hungarian(cost) == want


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", ["<f2", "<f4", "<f8", ">f8"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["nonnegative", "signed"])
def test_non_finite_named_anywhere(value, dtype, sign):
    """A NaN or infinity at any cell is named by its row-major index, on
    the one-read path and on the scanned one; of two, the first is named."""
    last = TIE_BASE.size - 1
    for cell in range(TIE_BASE.size):
        cost = (sign * TIE_BASE).astype(dtype)
        cost.flat[cell] = value
        for second in ([], [last] if cell < last else []):
            cost.flat[second] = np.nan
            with pytest.raises(NonFinite) as exc:
                hungarian(cost)
            assert (str(exc.value), exc.value.index) == (
                f"cost matrix: {value} at flat index {cell}", cell)


def test_tie_test_overflow_is_silent():
    """Sums of valid finite costs may overflow to inf in the tie test and
    in the loop; the pairs are unchanged and no warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hungarian(np.array([[1e308, 1e308], [1e308, 0.0]])) == [(0, 0), (1, 1)]
        # Rows 0 and 1 tie in float32, where 1 + 2**-24 rounds to 1, so the
        # loop runs, and it adds 3e38 to 3e38 as float32 scalars.
        cost = np.array([[3e38, 1.0, 1.0], [3e38, 0.0, 2.0**-24], [0.0, 3e38, 3e38]])
        assert hungarian(cost.astype(np.float32)) == [(0, 1), (1, 2), (2, 0)]
        # The same tie in float64, summed on Python floats.
        cost = np.array([[1e308, 1.0, 1.0], [1e308, 0.0, 2.0**-53], [0.0, 1e308, 1e308]])
        assert hungarian(cost) == [(0, 1), (1, 2), (2, 0)]


class TestCostFiniteness:
    """A cost of values from +0.0 up, as build_cost gives it, is proven
    finite by one unsigned maximum and never scanned; another float cost
    is scanned once, and an integer one never."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = errors.scan_finite
        for module in (errors, assignment):
            monkeypatch.setattr(module, "scan_finite", lambda *a: calls.append(1) or scan(*a))
        return calls

    def test_train_costs_never_scanned(self, vocab, scans):
        costs = list(train_costs(vocab, range(20)))
        assert len(costs) >= 15
        for cost in costs:
            hungarian(cost)
        assert scans == []

    def test_signed_scanned_once_integers_never(self, vocab, scans):
        cost = next(train_costs(vocab, range(20)))
        assert hungarian(cost - 1.0) == hungarian(cost)
        assert len(scans) == 1
        assert hungarian((TIE_BASE * 4).astype(np.int64)) == [(0, 1), (1, 0), (2, 2)]
        assert len(scans) == 1


def test_tie_loop_runs_only_when_a_pair_swaps(monkeypatch):
    """The pairwise tie loop runs only on a matrix where two rows can swap
    to an equal-cost lower column, so every run of it swaps something."""
    runs = []
    loop = assignment._swap_ties

    def recorded(block, cols):
        pairs = loop(block, cols)
        runs.append(pairs != list(enumerate(cols)))
        return pairs

    monkeypatch.setattr(assignment, "_swap_ties", recorded)
    # Distinct optimum with the columns out of row order: nothing ties.
    assert hungarian(np.array([[1.0, 0.0], [0.0, 1.0]])) == [(0, 1), (1, 0)]
    assert hungarian(np.array([[0.0, 0.5, 3.0], [2.0, 0.25, 0.75]])) == [(0, 0), (1, 1)]
    assert runs == []
    rng = random.Random(20261019)
    for _ in range(3000):
        hungarian(tie_heavy_cost(rng))
    assert len(runs) >= 50 and all(runs)


class TestMakeTargets:
    def test_grid_and_end_inheritance(self, vocab):
        seq = parse_latex("x ^ { 2 }", vocab)
        w = 4
        flats = [1 * w + 0, 0 * w + 1, 0 * w + 2]
        target = make_targets(list(enumerate(flats)), seq, vocab, 3, w)
        assert target.grid[1, 0] == vocab.id_of("x")
        assert target.grid[0, 1] == vocab.id_of("^")
        assert target.grid[0, 2] == vocab.id_of("2")
        none_cells = int(np.sum(target.grid == vocab.none_id))
        assert none_cells == 3 * 4 - 3
        assert target.cells == [(1, 0), (0, 1), (0, 2), (0, 1)]
        assert (target.self_targets, target.left_targets, target.right_targets) == (
            seq,
            [0, 1, 2, 3],
            [2, 3, 4, 5],
        )

    def test_count_mismatch(self, vocab):
        seq = parse_latex("x + y", vocab)
        with pytest.raises(ShapeMismatch):
            make_targets([(0, 0)], seq, vocab, 2, 2)

    def test_cell_out_of_range(self, vocab):
        seq = parse_latex("x", vocab)
        with pytest.raises(ShapeMismatch):
            make_targets([(0, 99)], seq, vocab, 2, 2)

    def test_empty_label(self, vocab):
        label = parse_latex("", vocab)
        assert label == []
        with pytest.raises(EmptyInput):
            make_targets([], label, vocab, 2, 2)

    def test_malformed_input_named(self, vocab):
        seq = parse_latex("x + y", vocab)
        ragged = "assignment is ragged: its rows differ in length or depth"
        for bad, msg in [((1, 1.5), "assignment holds float64, not integers"), ((1,), ragged),
                         ((1, 2, 3), ragged), ((1, "a"), "assignment holds <U21, not integers"),
                         (7, ragged)]:
            with pytest.raises(ShapeMismatch, match=f"^{re.escape(msg)}$"):
                make_targets([(0, 0), bad, (2, 2)], seq, vocab, 2, 4)
        for h, w, msg in ((-1, 4, "grid size -1x4 is negative"),
                          (2.5, 4, "grid size holds float64, not integers"),
                          (2, None, "grid size holds object, not integers")):
            with pytest.raises(ShapeMismatch, match=f"^{re.escape(msg)}$"):
                make_targets([(0, 0), (1, 1), (2, 2)], seq, vocab, h, w)
        # numpy integers, as hungarian's columns were before tolist().
        pairs = [(np.int64(l), np.int64(c)) for l, c in [(0, 3), (1, 4), (2, 5)]]
        target = make_targets(pairs, seq, vocab, np.int64(2), np.int64(4))
        assert target.cells == [(0, 3), (1, 0), (1, 1)]

    def test_rows_and_cells_once_each(self, vocab):
        seq = parse_latex("x + y", vocab)
        with pytest.raises(ShapeMismatch, match=re.escape("two tokens assigned to cell (0, 3)")):
            make_targets([(0, 3), (1, 3), (2, 3)], seq, vocab, 2, 4)
        for rows in ([7, 7, 9], [0, 0, 2], [1, 2, 3], [0, 1]):
            with pytest.raises(ShapeMismatch, match=re.escape(f"assignment rows {sorted(rows)}")):
                make_targets(list(zip(rows, [0, 1, 2])), seq, vocab, 2, 4)
        # Rows in any order: each token's cell follows its row.
        target = make_targets([(2, 5), (0, 3), (1, 4)], seq, vocab, 2, 4)
        assert target.cells == [(0, 3), (1, 0), (1, 1)]


class TestLabelIdsChecked:
    """Each training entry point refuses a label id outside the vocabulary
    before it reads the label."""

    def test_vocab_miss(self, vocab):
        label = [999, -5]
        with pytest.raises(VocabMiss, match="class id 999"):
            estimate_positions(np.zeros((2, 3, 4)), label, vocab)
        with pytest.raises(VocabMiss, match="class id 999"):
            build_cost(np.zeros((vocab.grid_classes, 3, 4)), [], label, vocab)
        with pytest.raises(VocabMiss, match="class id 999"):
            make_targets([(0, 0)], [999], vocab, 3, 4)

    def test_label_checked_once_and_never_spelled(self, vocab, monkeypatch):
        """Each training entry point range-checks its label once, and
        `make_targets` resolves the groups in one walk that spells nothing."""
        seq = parse_latex("\\frac { x } { \\sqrt { y } } + 2", vocab)
        sample = make_sample("\\frac { x } { \\sqrt { y } } + 2", vocab, (6, 12))
        checks, walks = [], []
        check_ids, walk = vocab.check_ids, assignment._walk
        monkeypatch.setattr(vocab, "check_ids", lambda ids: checks.append(1) or check_ids(ids))
        monkeypatch.setattr(assignment, "_walk", lambda *a: walks.append(a[2:]) or walk(*a))
        positions = estimate_positions(sample.attn, seq, vocab)
        assert len(checks) == 1
        cost = build_cost(sample.probs, positions, seq, vocab)
        assert len(checks) == 2
        target = make_targets(hungarian(cost), seq, vocab, 6, 12)
        assert len(checks) == 3 and walks == [()]
        assert target.cells == sample.cells


class TestLosses:
    def test_perfect_grid_scores_zero(self, vocab):
        seq = parse_latex("x + y", vocab)
        grid = np.full((2, 3), vocab.none_id, dtype=np.int64)
        P = np.zeros((vocab.grid_classes, 2, 3), dtype=np.float64)
        P[vocab.none_id] = 1.0
        for cid, (r, c) in zip(seq, [(0, 0), (0, 1), (0, 2)]):
            grid[r, c] = cid
            P[:, r, c] = 0.0
            P[cid, r, c] = 1.0
        assert loss_vat(P, grid) == 0.0

    def test_uniform_grid_is_log_classes(self, vocab):
        k = vocab.grid_classes
        P = np.full((k, 2, 2), 1.0 / k)
        grid = np.zeros((2, 2), dtype=np.int64)
        assert loss_vat(P, grid) == pytest.approx(math.log(k))

    def test_zero_probability_target(self, vocab):
        P = np.zeros((vocab.grid_classes, 1, 1))
        P[0] = 1.0
        grid = np.full((1, 1), 1, dtype=np.int64)
        with pytest.raises(NonFinite):
            loss_vat(P, grid)

    def test_vat_names_only_what_it_reads(self):
        """A NaN at a cell's other classes is never read: the loss ignores
        it, and a fault names the first bad value the loss read, by its
        flat index in P, or is a zero-probability target."""
        grid = np.array([[0, 1], [2, 0]])
        P = np.full((3, 2, 2), 1.0 / 3.0)
        P[1, 1, 1] = np.nan  # flat index 7, not a target value
        assert loss_vat(P, grid) == pytest.approx(math.log(3))
        P[0, 0, 0] = 0.0  # a zero-probability target
        with pytest.raises(NonFinite) as exc:
            loss_vat(P, grid)
        assert (str(exc.value), exc.value.index) == ("cell loss is not finite", None)
        P[0, 0, 0] = 1.0 / 3.0
        P[2, 1, 0], P[0, 1, 1] = np.inf, np.nan  # read, at flat indices 10 and 3
        with pytest.raises(NonFinite) as exc:
            loss_vat(P, grid)
        assert (str(exc.value), exc.value.index) == ("grid: nan at flat index 3", 3)
        P[0, 1, 1] = 1.0 / 3.0
        P[1, 0, 0] = np.nan  # flat index 4, unread, before the read infinity
        with pytest.raises(NonFinite) as exc:
            loss_vat(P, grid)
        assert (str(exc.value), exc.value.index) == ("grid: inf at flat index 10", 10)

    def test_vat_shape_errors(self, vocab):
        P = np.ones((vocab.grid_classes, 2, 2))
        with pytest.raises(ShapeMismatch):
            loss_vat(P, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ShapeMismatch):
            loss_vat(P, np.full((2, 2), vocab.grid_classes, dtype=np.int64))

    def test_vat_float_target_grid(self, vocab, tmp_path):
        # `hmegraph match --out` stores the target grid as float32.
        P = np.full((vocab.grid_classes, 2, 2), 1.0 / vocab.grid_classes)
        path = tmp_path / "t.grid.namt"
        write_tensor(np.full((2, 2), vocab.none_id, dtype=np.int64), path)
        with pytest.raises(ShapeMismatch):
            loss_vat(P, read_tensor(path))

    def test_teacher_rows_score_zero(self, vocab):
        seq = parse_latex("\\frac { x } { y } + 1", vocab)
        sp, left, right = teacher_matrices(seq, vocab)
        pgd = loss_pgd(sp, left, right, gt_targets(seq))
        assert (pgd.self_term, pgd.left_term, pgd.right_term) == (0.0, 0.0, 0.0)
        assert pgd.total == 0.0
        assert loss_total(0.25, pgd, lam=0.5) == 0.25

    def test_uniform_rows_are_log_counts(self, vocab):
        seq = parse_latex("x + y", vocab)
        n = len(seq)
        sp = np.full((n, vocab.correction_classes), 1.0 / vocab.correction_classes)
        m = np.full((n + 2, n + 2), 1.0 / (n + 2))
        pgd = loss_pgd(sp, m, m, gt_targets(seq))
        assert pgd.self_term == pytest.approx(math.log(vocab.correction_classes))
        assert pgd.left_term == pytest.approx(math.log(n + 2))
        assert pgd.right_term == pytest.approx(math.log(n + 2))
        assert pgd.total == pytest.approx(
            math.log(vocab.correction_classes) + 2 * math.log(n + 2)
        )

    def test_loss_total_mix(self, vocab):
        seq = parse_latex("x + y", vocab)
        n = len(seq)
        m = np.full((n + 2, n + 2), 1.0 / (n + 2))
        sp = np.full((n, vocab.correction_classes), 1.0 / vocab.correction_classes)
        pgd = loss_pgd(sp, m, m, gt_targets(seq))
        assert loss_total(1.0, pgd, lam=0.5) == pytest.approx(1.0 + 0.5 * pgd.total)
        assert loss_total(1.0, pgd, lam=0.0) == 1.0

    def test_pgd_shape_errors(self, vocab):
        seq = parse_latex("x + y", vocab)
        sp, left, right = teacher_matrices(seq, vocab)
        with pytest.raises(ShapeMismatch):
            loss_pgd(sp, left, right, ([], [], []))
        with pytest.raises(ShapeMismatch):
            loss_pgd(sp[:2], left, right, gt_targets(seq))
        with pytest.raises(ShapeMismatch):
            loss_pgd(sp, left[:3, :3], right, gt_targets(seq))
        bad = gt_targets(seq)
        with pytest.raises(ShapeMismatch, match="neighbor target"):
            loss_pgd(sp, left, right, (bad[0], [99] * 3, bad[2]))
        with pytest.raises(ShapeMismatch, match="differ in length"):
            loss_pgd(sp, left, right, (bad[0], bad[1][:2], bad[2]))
        with pytest.raises(ShapeMismatch, match="self target"):
            loss_pgd(sp, left, right, ([sp.shape[1]] * 3, bad[1], bad[2]))
        with pytest.raises(ShapeMismatch, match="self target"):
            loss_pgd(sp, left, right, ([-1] * 3, bad[1], bad[2]))
        floats = [bad[0][0], 1.0, bad[0][2]]
        with pytest.raises(ShapeMismatch, match=re.escape("targets holds float64, not integers")):
            loss_pgd(sp, left, right, (floats, bad[1], bad[2]))
        with pytest.raises(ShapeMismatch, match=re.escape("targets holds float64, not integers")):
            loss_pgd(sp, left, right, (bad[0], bad[1], [2.5, 3, 4]))
        numpy_ints = tuple([np.int64(t) for t in ts] for ts in bad)
        assert loss_pgd(sp, left, right, numpy_ints) == loss_pgd(sp, left, right, bad)

    def test_pgd_zero_probability(self, vocab):
        seq = parse_latex("x + y", vocab)
        sp, left, right = teacher_matrices(seq, vocab)
        left = left.copy()
        left[1] = 0.0
        left[1, 3] = 1.0  # true left target of node 1 is 0, now probability 0
        with pytest.raises(NonFinite):
            loss_pgd(sp, left, right, gt_targets(seq))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    bad=st.lists(
        st.tuples(
            st.sampled_from(["attn", "probs", "self_probs", "left", "right"]),
            st.integers(0, 10**6),
            st.sampled_from([np.nan, np.inf, -np.inf]),
        ),
        max_size=2,
    ),
)
def test_chain_names_fault_or_reads_only_finite_inputs(seed, bad):
    vocab = default_vocab()
    try:
        sample = make_sample(gen_expression(seed, max_depth=2), vocab, (8, 24), seed=seed)
    except GridTooSmall:
        return
    arrays = {
        key: getattr(sample, key).copy()
        for key in ("attn", "probs", "self_probs", "left", "right")
    }
    for key, pos, value in bad:
        arrays[key].flat[pos % arrays[key].size] = value
    seq, (h, w) = sample.seq, sample.probs.shape[1:]
    try:
        positions = estimate_positions(arrays["attn"], seq, vocab)
        cost = build_cost(arrays["probs"], positions, seq, vocab)
        target = make_targets(hungarian(cost), seq, vocab, h, w)
        loss_vat(arrays["probs"], target.grid)
        loss_pgd(arrays["self_probs"], arrays["left"], arrays["right"], gt_targets(seq))
    except HmeGraphError:
        return
    assert all(np.isfinite(a).all() for a in arrays.values())
