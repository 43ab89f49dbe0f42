"""Token-to-cell assignment: positions, cost windows, Hungarian, losses."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmegraph import (
    EvenKernel,
    GridTooSmall,
    HmeGraphError,
    Infeasible,
    NonFinite,
    ShapeMismatch,
    StepMismatch,
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
from hmegraph.assignment import BLOCK_COST


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
        with pytest.raises(ShapeMismatch):
            loss_pgd(sp, left, right, (bad[0], [99] * 3, bad[2]))

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
