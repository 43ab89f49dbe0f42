"""Synthetic sample generation, layout geometry, noise bookkeeping, oracles."""

import dataclasses
import hashlib

import numpy as np
import pytest

from hmegraph import (
    GridTooSmall,
    HmeGraphError,
    IllNested,
    Infeasible,
    NoPath,
    NoiseSpec,
    TooLarge,
    coverage_corpus,
    decode_with_graph,
    default_vocab,
    gen_expression,
    layout_and_render,
    make_sample,
    oracle_edit,
    oracle_hungarian,
    oracle_longest_path,
    parse_latex,
)
from hmegraph.decode import ExprGraph, Node
from hmegraph.tokens import ROLE_HSE, ROLE_IRS


class TestGenExpression:
    def test_deterministic(self):
        assert gen_expression(5) == gen_expression(5)
        assert gen_expression(5) != gen_expression(6)

    def test_parses(self, vocab):
        for seed in range(60):
            parse_latex(gen_expression(seed), vocab)

    def test_depth_zero_is_single_atom(self, vocab):
        for seed in range(20):
            s = gen_expression(seed, max_depth=0)
            seq = parse_latex(s, vocab)
            assert 1 <= len(seq) <= 5  # atoms joined by binary operators


class TestCorpus:
    def test_size_and_parseability(self, vocab):
        corpus = coverage_corpus()
        assert len(corpus) >= 200
        for s in corpus:
            parse_latex(s, vocab)

    def test_every_structural_symbol_covered(self, vocab):
        roles = set()
        for sym, role in zip(vocab.symbols, vocab.roles):
            if role in (ROLE_HSE, ROLE_IRS):
                roles.add(sym)
        blob = " ".join(coverage_corpus())
        for sym in roles:
            assert f"{sym} " in blob or f" {sym}" in blob, sym

    def test_default_vocab_cached(self):
        assert default_vocab() is default_vocab()


class TestLayout:
    def test_script_geometry(self, vocab):
        sample = make_sample("x ^ { 2 }", vocab, (4, 6))
        x_cell, hat_cell, two_cell, end_cell = sample.cells
        assert hat_cell[0] == x_cell[0] - 1  # superscript one row up
        assert two_cell == (hat_cell[0], hat_cell[1] + 1)
        assert end_cell == hat_cell  # END rides its owner's cell

    def test_subscript_geometry(self, vocab):
        sample = make_sample("x _ { i }", vocab, (4, 6))
        x_cell, sub_cell, i_cell, _ = sample.cells
        assert sub_cell[0] == x_cell[0] + 1
        assert i_cell == (sub_cell[0], sub_cell[1] + 1)

    def test_frac_arms_straddle_bar(self, vocab):
        sample = make_sample("\\frac { a } { b }", vocab, (4, 6))
        frac_cell, a_cell, end1, b_cell, end2 = sample.cells
        assert a_cell[0] == frac_cell[0] - 1
        assert b_cell[0] == frac_cell[0] + 1
        assert end1 == frac_cell and end2 == frac_cell

    def test_cells_unique_and_in_bounds(self, vocab):
        h, w = 12, 48
        kept = 0
        for seed in range(40):
            try:
                sample = make_sample(gen_expression(seed), vocab, (h, w))
            except GridTooSmall:  # ~6% of seeds are too dense to lay out
                continue
            kept += 1
            placed = [
                c
                for c, cid in zip(sample.cells, sample.seq)
                if vocab.is_predictable(cid)
            ]
            assert len(set(placed)) == len(placed)
            assert all(0 <= r < h and 0 <= c < w for r, c in placed)
        assert kept >= 30

    def test_grid_too_small(self, vocab):
        with pytest.raises(GridTooSmall):
            make_sample("\\frac { \\frac { a } { b } } { c }", vocab, (3, 3))

    @pytest.mark.parametrize("depth", [1000, 5000])
    @pytest.mark.parametrize("head,tail", [("\\frac { ", " } { y }"), ("x ^ { ", " }"),
                                           ("\\sqrt { ", " }")])
    def test_deep_label_too_large(self, vocab, depth, head, tail):
        """Layout depth is bounded by memory, not by the interpreter stack."""
        with pytest.raises(GridTooSmall):
            make_sample(head * depth + "x" + tail * depth, vocab, (14, 56))

    def test_indexed_sqrt_rejected(self, vocab):
        seq = parse_latex("\\sqrt [ 3 ] { x }", vocab)
        with pytest.raises(IllNested):
            layout_and_render(seq, (8, 16), vocab)


# The noise profiles of the perfbench decode workloads.
_DIGEST_NOISES = (
    NoiseSpec(),
    NoiseSpec(flip_prob=0.1),
    NoiseSpec(spurious_prob=0.02),
    NoiseSpec(score_temperature=0.3),
    NoiseSpec(conn_flip_prob=0.1),
    NoiseSpec(conn_flip_prob=0.3),
)


def _outcome(label, vocab, dims, noise, seed) -> bytes:
    """Every SynthSample field of one generation, or its error class and message."""
    try:
        sample = make_sample(label, vocab, dims, noise=noise, seed=seed)
    except HmeGraphError as exc:
        return repr((type(exc).__name__, str(exc))).encode()
    parts = []
    for f in dataclasses.fields(sample):
        value = getattr(sample, f.name)
        if isinstance(value, np.ndarray):
            parts.append(repr((value.shape, value.dtype.str)).encode() + value.tobytes())
        else:
            parts.append(repr(value).encode())
    return b"\x00".join(parts)


def test_render_digest(vocab):
    """The generator's output is pinned byte for byte, errors included."""
    corpus = coverage_corpus()
    cases = [(label, (14, 56), seed) for seed, label in enumerate(corpus)]
    cases += [(label, (24, 160), seed) for seed, label in enumerate(corpus[:40])]
    digest = hashlib.sha256()
    for label, dims, seed in cases:
        for noise in _DIGEST_NOISES:
            outcome = _outcome(label, vocab, dims, noise, seed)
            digest.update(len(outcome).to_bytes(8, "little") + outcome)
    assert len(corpus) == 218
    assert digest.hexdigest() == (
        "4ca389d8a7fc55cf334bd033c7cbb9fb30e24ba4ba572af1da53fc0ef959513d"
    )


class TestTensors:
    def test_grid_rows_are_distributions(self, vocab):
        sample = make_sample("\\frac { a } { b } = c", vocab, (10, 24))
        sums = sample.probs.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_attention_marks_cells(self, vocab):
        sample = make_sample("x + y", vocab, (6, 12))
        assert sample.attn.shape[0] == len(sample.seq)
        for pos, (r, c) in enumerate(sample.cells):
            assert sample.attn[pos, r, c] == 1.0
            assert sample.attn[pos].sum() == 1.0

    def test_nonblank_count_matches_tokens(self, vocab):
        kept = 0
        for seed in range(30):
            try:
                sample = make_sample(gen_expression(seed), vocab, (12, 48))
            except GridTooSmall:
                continue
            kept += 1
            predictable = sum(
                1 for cid in sample.seq if vocab.is_predictable(cid)
            )
            grid_classes = np.argmax(sample.probs, axis=0)
            nonblank = int(np.sum(grid_classes != vocab.none_id))
            assert nonblank == predictable
        assert kept >= 22

    def test_matrix_shapes_track_expansion(self, vocab):
        sample = make_sample("\\frac { a } { b }", vocab, (6, 12))
        n = sample.self_probs.shape[0]
        assert n == len(sample.seq)  # one node per canonical token here
        assert sample.left.shape == (n + 2, n + 2)
        assert sample.right.shape == (n + 2, n + 2)
        assert np.allclose(sample.left.sum(axis=1), 1.0, atol=1e-5)
        assert np.allclose(sample.right.sum(axis=1), 1.0, atol=1e-5)


class TestNoise:
    def test_zero_noise_decodes_exactly(self, vocab):
        kept = 0
        for seed in range(50):
            s = gen_expression(seed)
            try:
                sample = make_sample(s, vocab, (12, 48), seed=seed)
            except GridTooSmall:
                continue
            kept += 1
            res = decode_with_graph(
                sample.probs, sample.self_probs, sample.left, sample.right, vocab
            )[0]
            assert res.latex == s
        assert kept >= 40

    def test_flips_recorded_and_recovered(self, vocab):
        noise = NoiseSpec(flip_prob=1.0)
        sample = make_sample("x + y", vocab, (6, 12), noise=noise, seed=3)
        assert len(sample.flipped) == 3
        grid_classes = np.argmax(sample.probs, axis=0)
        truth = dict(zip(sample.cells, sample.seq))
        for cell in sample.flipped:
            assert grid_classes[cell] != truth[cell]
        res = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, vocab
        )[0]
        assert res.latex == "x + y"

    def test_structural_tokens_never_flip(self, vocab):
        noise = NoiseSpec(flip_prob=1.0)
        sample = make_sample("\\frac { a } { b }", vocab, (6, 12), noise=noise, seed=1)
        frac_cell = sample.cells[0]
        assert frac_cell not in sample.flipped
        grid_classes = np.argmax(sample.probs, axis=0)
        assert grid_classes[frac_cell] == vocab.id_of("\\frac")

    def test_spurious_recorded_and_recovered(self, vocab):
        noise = NoiseSpec(spurious_prob=0.2)
        sample = make_sample("a + b", vocab, (6, 12), noise=noise, seed=5)
        assert sample.spurious
        occupied = set(
            c for c, cid in zip(sample.cells, sample.seq) if vocab.is_predictable(cid)
        )
        assert not occupied & set(sample.spurious)
        res = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, vocab
        )[0]
        assert res.latex == "a + b"

    def test_temperature_keeps_argmax(self, vocab):
        noise = NoiseSpec(score_temperature=0.5)
        sample = make_sample("x ^ { 2 }", vocab, (6, 12), noise=noise, seed=2)
        crisp = make_sample("x ^ { 2 }", vocab, (6, 12), seed=2)
        assert np.array_equal(
            np.argmax(sample.left, axis=1), np.argmax(crisp.left, axis=1)
        )
        assert np.allclose(sample.left.sum(axis=1), 1.0, atol=1e-5)
        assert sample.left.max() < 1.0
        res = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, vocab
        )[0]
        assert res.latex == "x ^ { 2 }"

    def test_conn_flips_recorded(self, vocab):
        noise = NoiseSpec(conn_flip_prob=1.0)
        sample = make_sample("x + y + z", vocab, (6, 12), noise=noise, seed=4)
        assert sample.conn_flipped
        for idx, side in sample.conn_flipped:
            m = sample.left if side == "left" else sample.right
            row = np.sort(m[idx])[::-1]
            assert row[0] == pytest.approx(0.6)
            assert row[1] == pytest.approx(0.4)

    def test_conn_flips_recovered_with_both_heads(self, vocab):
        noise = NoiseSpec(conn_flip_prob=0.5)
        good = 0
        for seed in range(40):
            s = gen_expression(seed, max_depth=1)
            sample = make_sample(s, vocab, (10, 32), noise=noise, seed=seed)
            res = decode_with_graph(
                sample.probs, sample.self_probs, sample.left, sample.right, vocab
            )[0]
            good += res.latex == s
        assert good == 40

    def test_determinism(self, vocab):
        noise = NoiseSpec(flip_prob=0.3, spurious_prob=0.05, conn_flip_prob=0.2)
        a = make_sample("x + y", vocab, (8, 16), noise=noise, seed=11)
        b = make_sample("x + y", vocab, (8, 16), noise=noise, seed=11)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.left, b.left)
        assert a.flipped == b.flipped
        assert a.spurious == b.spurious
        assert a.conn_flipped == b.conn_flipped


class TestOracles:
    def test_hungarian_hand_case(self):
        cost = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert oracle_hungarian(cost) == [(0, 1), (1, 0)]

    def test_hungarian_prefers_lexicographic_ties(self):
        cost = np.zeros((2, 3))
        assert oracle_hungarian(cost) == [(0, 0), (1, 1)]

    def test_hungarian_bounds(self):
        with pytest.raises(TooLarge):
            oracle_hungarian(np.zeros((8, 9)))
        with pytest.raises(TooLarge):
            oracle_hungarian(np.zeros((2, 10)))
        with pytest.raises(Infeasible):
            oracle_hungarian(np.zeros((3, 2)))

    def test_longest_path_hand_case(self):
        nodes = {1: Node(0, 0, 0, index=1), 2: Node(0, 0, 1, index=2)}
        edges = {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 0.5, (2, 3): 3.0, (1, 2): 0.125}
        w, path = oracle_longest_path(ExprGraph(nodes, edges, n_slots=2))
        assert w == 4.125  # 0 -> 1 -> 2 -> 3 beats both two-edge routes
        assert path == [0, 1, 2, 3]

    def test_longest_path_bounds_and_nopath(self):
        nodes = {i: Node(0, 0, i, index=i) for i in range(1, 12)}
        with pytest.raises(TooLarge):
            oracle_longest_path(ExprGraph(nodes, {}, n_slots=11))
        with pytest.raises(NoPath):
            oracle_longest_path(ExprGraph({}, {}, n_slots=0))

    def test_edit_bounds(self):
        with pytest.raises(TooLarge):
            oracle_edit(list(range(13)), [])
        assert oracle_edit([1, 2], [2]) == 1
