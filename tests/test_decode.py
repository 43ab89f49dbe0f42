"""Graph decoding: extraction, expansion, corrections, pruning, best path."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmegraph import (
    CycleDetected,
    GridTooSmall,
    HmeGraphError,
    IllNested,
    NodeCountMismatch,
    NoiseSpec,
    NonFinite,
    NonStochasticRow,
    NoPath,
    ShapeMismatch,
    apply_corrections,
    build_cost,
    build_graph,
    decode_with_graph,
    default_vocab,
    emit_latex,
    estimate_positions,
    expand_imaginary,
    gen_expression,
    gt_targets,
    hungarian,
    longest_path,
    loss_pgd,
    loss_vat,
    make_sample,
    make_targets,
    oracle_longest_path,
    oracle_prune,
    parse_latex,
    prune_and_acyclify,
    vat_extract,
)
from hmegraph import decode
from hmegraph.decode import ExprGraph, Node
from hmegraph.tokens import (
    END_SYMBOL,
    EOS_SYMBOL,
    NONE_SYMBOL,
    ROLE_END,
    ROLE_EOS,
    ROLE_NONE,
    ROLE_SOS,
    SOS_SYMBOL,
    TokenVocab,
    repair_groups,
)


def grid_for(vocab, placed, h, w):
    P = np.zeros((vocab.grid_classes, h, w), dtype=np.float32)
    P[vocab.none_id] = 1.0
    for (r, c), cid in placed.items():
        P[:, r, c] = 0.0
        P[cid, r, c] = 1.0
    return P


def plain_nodes(vocab, cids):
    return [Node(cid, 0, i) for i, cid in enumerate(cids)]


def dyadic(rng):
    return rng.randrange(0, 4096) / 1024.0


def random_dag(rng, vocab, max_nodes=8):
    """Random forward-edge graph; may or may not connect start to end."""
    n = rng.randint(1, max_nodes)
    cids = [rng.randrange(vocab.num_predictable) for _ in range(n)]
    nodes = {i + 1: Node(cids[i], 0, i, index=i + 1) for i in range(n)}
    edges = {}
    for a in range(0, n + 1):
        for b in range(a + 1, n + 2):
            if a == 0 and b == n + 1:
                continue
            if rng.random() < 0.4:
                edges[(a, b)] = dyadic(rng)
    return ExprGraph(nodes, edges, n_slots=n)


class TestVatExtract:
    def test_raster_order_skips_blank(self, vocab):
        x, plus, y = (vocab.id_of(s) for s in "x+y")
        P = grid_for(vocab, {(0, 2): y, (0, 0): x, (0, 1): plus}, 2, 3)
        nodes = vat_extract(P, vocab)
        assert [(n.class_id, n.row, n.col) for n in nodes] == [
            (x, 0, 0),
            (plus, 0, 1),
            (y, 0, 2),
        ]

    def test_empty_grid(self, vocab):
        P = grid_for(vocab, {}, 3, 3)
        assert vat_extract(P, vocab) == []

    def test_logits_match_probabilities(self, vocab):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(vocab.grid_classes, 3, 4)).astype(np.float32)
        probs = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        a = vat_extract(logits, vocab)
        b = vat_extract(probs, vocab)
        assert [(n.class_id, n.row, n.col) for n in a] == [
            (n.class_id, n.row, n.col) for n in b
        ]

    def test_symbol_tying_none_wins(self, vocab):
        """Blank needs none strictly above every symbol; a tie goes to
        the lower id, which is always a symbol's."""
        x, y = vocab.id_of("x"), vocab.id_of("y")
        P = np.zeros((vocab.grid_classes, 1, 3), dtype=np.float32)
        P[vocab.none_id] = 0.5
        P[x, 0, 0] = 0.5  # ties none
        P[y, 0, 1] = 0.4  # below none: blank
        P[[x, y], 0, 2] = 0.5  # two symbols tie none: the lower id wins
        nodes = vat_extract(P, vocab)
        assert [(n.class_id, n.col) for n in nodes] == [(x, 0), (min(x, y), 2)]

    def test_int_grid_with_ties(self, vocab):
        x, y = vocab.id_of("x"), vocab.id_of("y")
        P = np.zeros((vocab.grid_classes, 2, 2), dtype=np.int64)
        P[vocab.none_id] = 3
        P[[x, y], 0, 0] = 3  # ties none and each other
        P[y, 1, 1] = 4
        P[x, 0, 1] = 2  # below none: blank
        nodes = vat_extract(P, vocab)
        assert [(n.class_id, n.row, n.col) for n in nodes] == [
            (min(x, y), 0, 0),
            (y, 1, 1),
        ]
        assert all(type(n.class_id) is int for n in nodes)

    def test_vocab_without_symbols(self):
        vocab = TokenVocab(
            [NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL],
            [ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS],
        )
        assert vocab.grid_classes == 1
        assert vat_extract(np.ones((1, 2, 3)), vocab) == []
        assert vat_extract(np.zeros((1, 2, 3), dtype=np.int64), vocab) == []

    def test_shape_error(self, vocab):
        with pytest.raises(ShapeMismatch):
            vat_extract(np.zeros((3, 3)), vocab)
        with pytest.raises(ShapeMismatch):
            vat_extract(np.zeros((vocab.grid_classes + 2, 3, 3)), vocab)


def loop_vat_extract(P, vocab):
    """Reference: one cell at a time in raster order."""
    classes = np.argmax(P, axis=0)
    nodes = []
    for r, c in np.ndindex(classes.shape):
        cid = int(classes[r, c])
        if cid != vocab.none_id:
            nodes.append(Node(cid, r, c))
    return nodes


@st.composite
def extraction_grids(draw):
    """Grids in three dtypes with argmax ties, blank cells and empty axes."""
    vocab = default_vocab()
    h, w = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64]))
    if draw(st.booleans()):
        P = rng.integers(0, 3, (vocab.grid_classes, h, w))  # ties in most cells
    else:
        P = rng.normal(size=(vocab.grid_classes, h, w))
    blank = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    P[vocab.none_id][blank] = 3
    return P.astype(dtype)


@settings(max_examples=200, deadline=None)
@given(P=extraction_grids())
def test_vat_extract_matches_cell_loop(P):
    vocab = default_vocab()
    # repr tells a numpy integer from a Python int.
    assert repr(vat_extract(P, vocab)) == repr(loop_vat_extract(P, vocab))


class TestExpandImaginary:
    def test_frac_gains_two_ends(self, vocab):
        frac, x = vocab.id_of("\\frac"), vocab.id_of("x")
        out = expand_imaginary(plain_nodes(vocab, [frac, x]), vocab)
        assert [n.class_id for n in out] == [frac, vocab.end_id, vocab.end_id, x]
        assert [n.index for n in out] == [1, 2, 3, 4]
        assert out[1].parent == 1 and out[2].parent == 1
        assert (out[1].row, out[1].col) == (out[0].row, out[0].col)
        assert out[3].parent is None

    def test_no_structural_no_change(self, vocab):
        cids = [vocab.id_of(s) for s in "x+y"]
        out = expand_imaginary(plain_nodes(vocab, cids), vocab)
        assert [n.class_id for n in out] == cids
        assert [n.index for n in out] == [1, 2, 3]


class TestApplyCorrections:
    def one_hot_rows(self, vocab, votes):
        rows = np.zeros((len(votes), vocab.correction_classes), dtype=np.float32)
        for i, v in enumerate(votes):
            rows[i, v] = 1.0
        return rows

    def test_relabel(self, vocab):
        x, y = vocab.id_of("x"), vocab.id_of("y")
        nodes = expand_imaginary(plain_nodes(vocab, [x]), vocab)
        out = apply_corrections(nodes, self.one_hot_rows(vocab, [y]), vocab)
        assert [n.class_id for n in out] == [y]
        assert out[0].index == 1

    def test_delete_keeps_positions(self, vocab):
        cids = [vocab.id_of(s) for s in "x+y"]
        nodes = expand_imaginary(plain_nodes(vocab, cids), vocab)
        votes = [cids[0], vocab.none_id, cids[2]]
        out = apply_corrections(nodes, self.one_hot_rows(vocab, votes), vocab)
        assert [(n.class_id, n.index) for n in out] == [(cids[0], 1), (cids[2], 3)]

    def test_deleting_owner_cascades_to_ends(self, vocab):
        frac, x = vocab.id_of("\\frac"), vocab.id_of("x")
        nodes = expand_imaginary(plain_nodes(vocab, [frac, x]), vocab)
        votes = [vocab.none_id, vocab.end_id, vocab.end_id, x]
        out = apply_corrections(nodes, self.one_hot_rows(vocab, votes), vocab)
        assert [(n.class_id, n.index) for n in out] == [(x, 4)]

    def test_row_count_mismatch(self, vocab):
        nodes = plain_nodes(vocab, [vocab.id_of("x")])
        with pytest.raises(NodeCountMismatch):
            apply_corrections(nodes, np.zeros((2, vocab.correction_classes)), vocab)

    def test_narrow_rows(self, vocab):
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        with pytest.raises(ShapeMismatch):
            apply_corrections(nodes, np.zeros((1, 3)), vocab)


class TestBuildGraph:
    def stochastic(self, rng, n):
        m = rng.dirichlet(np.ones(n + 2), size=n + 2)
        return m.astype(np.float64)

    def test_edge_formula_and_masks(self, vocab):
        rng = np.random.default_rng(11)
        cids = [vocab.id_of(s) for s in "xy"]
        nodes = expand_imaginary(plain_nodes(vocab, cids), vocab)
        left, right = self.stochastic(rng, 2), self.stochastic(rng, 2)
        g = build_graph(nodes, left, right, alpha_l2r=0.7, alpha_r2l=0.3)
        for (i, j), w in g.edges.items():
            assert w == pytest.approx(0.7 * right[i, j] + 0.3 * left[j, i])
        assert all(i != j for i, j in g.edges)
        assert all(j != 0 for _, j in g.edges)
        assert all(i != g.eos for i, _ in g.edges)
        assert (0, g.eos) not in g.edges
        # 2 real nodes: sos->each, each->each (both directions), each->eos.
        assert len(g.edges) == 2 + 2 + 2

    def test_deleted_nodes_keep_slots(self, vocab):
        cids = [vocab.id_of(s) for s in "xy"]
        nodes = expand_imaginary(plain_nodes(vocab, cids), vocab)
        rng = np.random.default_rng(3)
        left, right = self.stochastic(rng, 2), self.stochastic(rng, 2)
        g = build_graph([nodes[1]], left, right)
        assert g.eos == 3
        assert set(g.edges) == {(0, 2), (2, 3)}

    @staticmethod
    def loop_edges(nodes, left, right, alpha_l2r, alpha_r2l):
        """Reference: one pair at a time, sources and targets ascending."""
        eos = len(left) - 1
        ids = sorted(node.index for node in nodes)
        edges = {}
        for i in [0] + ids:
            for j in ids + [eos]:
                if i != j and (i, j) != (0, eos):
                    edges[(i, j)] = alpha_l2r * float(right[i, j]) + alpha_r2l * float(left[j, i])
        return edges

    @pytest.mark.parametrize("alpha", [(1, 1), (1, 0), (0, 1), (0.3, 0.7)])
    def test_matches_pair_loop(self, vocab, alpha):
        """Same edges, in the same insertion order, with the same weights."""
        rng = np.random.default_rng(5)
        for case in range(120):
            n = case % 12  # n = 0: the 2x2 matrices give no edges
            nodes = [Node(0, 0, i, index=i) for i in range(1, n + 1) if rng.random() < 0.8]
            dtype = np.float32 if case % 2 else np.float64
            left, right = (self.stochastic(rng, n).astype(dtype) for _ in range(2))
            g = build_graph(nodes, left, right, alpha_l2r=alpha[0], alpha_r2l=alpha[1])
            want = self.loop_edges(nodes, left, right, *alpha)
            assert [(e, repr(w)) for e, w in g.edges.items()] == [
                (e, repr(w)) for e, w in want.items()
            ]
            if n == 0:
                assert g.edges == {}

    def test_non_stochastic_rows(self, vocab):
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        bad = np.full((3, 3), 0.5)
        good = np.full((3, 3), 1.0 / 3)
        with pytest.raises(NonStochasticRow) as exc:
            build_graph(nodes, bad, good)
        assert exc.value.row == 0
        negative = good.copy()
        negative[1] = [-0.2, 0.9, 0.3]  # sums to 1 but holds a negative
        with pytest.raises(NonStochasticRow):
            build_graph(nodes, negative, good)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_row_is_not_stochastic(self, vocab):
        """Finite float32 entries whose row sum overflows are not NonFinite."""
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        good = np.full((3, 3), 1.0 / 3, dtype=np.float32)
        big = good.copy()
        big[1] = [3e38, 3e38, 0.0]
        with pytest.raises(NonStochasticRow) as exc:
            build_graph(nodes, big, good)
        assert type(exc.value) is NonStochasticRow
        assert (exc.value.row, exc.value.total) == (1, np.inf)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_row_summing_to_nan_is_not_stochastic(self, vocab):
        """Finite float32 entries whose partial sums overflow both ways sum to NaN."""
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")] * 14), vocab)
        good = np.full((16, 16), 1.0 / 16, dtype=np.float32)
        bad = good.copy()
        bad[3, [0, 8]] = 3e38
        bad[3, [1, 9]] = -3e38
        with pytest.raises(NonStochasticRow) as exc:
            build_graph(nodes, bad, good)
        assert exc.value.row == 3
        assert math.isnan(exc.value.total)

    def test_row_of_both_infinities_is_non_finite(self, vocab):
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        good = np.full((3, 3), 1.0 / 3)
        bad = good.copy()
        bad[2] = [np.inf, 0.5, -np.inf]
        with pytest.raises(NonFinite) as exc:
            build_graph(nodes, good, bad)
        assert exc.value.index == 6
        assert "right neighbor scores" in str(exc.value)

    def test_left_fault_before_right(self, vocab):
        """An off-stochastic left matrix is named before a NaN in right."""
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        good = np.full((3, 3), 1.0 / 3)
        off, nan = good.copy(), good.copy()
        off[1] = [0.5, 0.5, 0.5]
        nan[0, 1] = np.nan
        with pytest.raises(NonStochasticRow) as exc:
            build_graph(nodes, off, nan)
        assert exc.value.row == 1

    def test_shape_errors(self, vocab):
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        with pytest.raises(NodeCountMismatch):
            build_graph(nodes, np.ones((3, 4)), np.ones((3, 4)))
        ok = np.full((3, 3), 1.0 / 3)
        with pytest.raises(NodeCountMismatch):
            build_graph([Node(0, 0, 0, index=9)], ok, ok)


class TestPrune:
    def test_threshold_and_cycle_break(self, vocab):
        nodes = {1: Node(0, 0, 0, index=1), 2: Node(1, 0, 1, index=2)}
        edges = {(0, 1): 0.9, (1, 2): 0.9, (2, 1): 0.6, (2, 3): 0.9, (1, 3): 0.1}
        g = prune_and_acyclify(ExprGraph(nodes, edges, n_slots=2), epsilon=0.5)
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_weak_bridge_survives(self, vocab):
        nodes = {1: Node(0, 0, 0, index=1)}
        edges = {(0, 1): 0.3, (1, 2): 0.9}
        g = prune_and_acyclify(ExprGraph(nodes, edges, n_slots=1), epsilon=0.5)
        assert (0, 1) in g.edges

    def test_unreachable_end(self, vocab):
        nodes = {1: Node(0, 0, 0, index=1)}
        g = ExprGraph(nodes, {(0, 1): 0.9}, n_slots=1)
        with pytest.raises(NoPath):
            prune_and_acyclify(g)

    def test_input_not_mutated(self, vocab):
        nodes = {1: Node(0, 0, 0, index=1), 2: Node(1, 0, 1, index=2)}
        edges = {(0, 1): 0.9, (1, 2): 0.9, (2, 1): 0.6, (2, 3): 0.9}
        g = ExprGraph(nodes, dict(edges), n_slots=2)
        prune_and_acyclify(g)
        assert g.edges == edges


@pytest.mark.parametrize("stage", [prune_and_acyclify, longest_path])
@pytest.mark.parametrize("n_slots, bad, w", [
    (1, (1, 5), 0.9),
    (1, (-1, 1), 0.9),  # -1 would index the end vertex
    (1, (1, -3), 0.9),
    (1, (7, 1), 0.2),  # weak, and off every path from the start
    (2, (1, 2), 0.9),  # slot 2 holds no node
], ids=["past_end", "negative_src", "negative_dst", "weak_stray", "empty_slot"])
def test_bad_edge_end_named(vocab, stage, n_slots, bad, w):
    """An edge end that is neither the start, the end, nor a node's
    position raises NodeCountMismatch naming the edge."""
    edges = {(0, 1): 0.9, (1, n_slots + 1): 0.9, bad: w}
    graph = ExprGraph({1: Node(0, 0, 0, index=1)}, edges, n_slots)
    args = (graph, vocab) if stage is longest_path else (graph,)
    with pytest.raises(NodeCountMismatch, match=re.escape(f"edge {bad}")):
        stage(*args)


def dyadic_stochastic(rng, n):
    """Rows of eighths: exact sums, and many ties between weights."""
    m = np.zeros((n, n))
    for row in m:
        for _ in range(8):
            row[rng.randrange(n)] += 0.125
    return m


def random_prune_case(rng):
    """A graph for pruning: dense from build_graph, or sparse with cycles.

    Dense graphs use one-sided or mixed alpha over rows of eighths and
    delete some slots; sparse ones may leave the end unreachable or reach
    it through weak edges only.
    """
    n = rng.randint(1, 12)
    alive = [i for i in range(1, n + 1) if rng.random() < 0.85]
    if rng.random() < 0.5:
        nodes = [Node(0, 0, i, index=i) for i in alive]
        alpha = rng.choice([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 1.0)])
        left, right = dyadic_stochastic(rng, n + 2), dyadic_stochastic(rng, n + 2)
        return build_graph(nodes, left, right, alpha_l2r=alpha[0], alpha_r2l=alpha[1])
    density = rng.uniform(0.1, 0.5)
    verts = [0] + alive + [n + 1]
    edges = {
        (a, b): rng.randrange(0, 9) / 8.0
        for a in verts[:-1]
        for b in verts[1:]
        if a != b and (a, b) != (0, n + 1) and rng.random() < density
    }
    nodes = {i: Node(0, 0, i, index=i) for i in alive}
    return ExprGraph(nodes, edges, n_slots=n)


def strong_reaches_end(graph, eps):
    """Whether edges at or above `eps` alone lead from start to end."""
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for (s, d), w in graph.edges.items():
            if s == u and w >= eps and d not in reached:
                reached.add(d)
                frontier.append(d)
    return graph.eos in reached


def counted_searches(monkeypatch):
    """Patch `_witness_path` to count its calls; returns the counter list,
    whose one entry is reset to 0 by the caller between decodes."""
    searches = [0]
    search = decode._witness_path

    def counted(*args):
        searches[0] += 1
        return search(*args)

    monkeypatch.setattr(decode, "_witness_path", counted)
    return searches


class TestPruneMatchesOracle:
    def test_random_graphs(self, vocab):
        rng = random.Random(20241018)
        seen = {"nopath": 0, "weak_kept": 0, "cycle_broken": 0, "strong_misses_end": 0}
        for trial in range(1200):
            g = random_prune_case(rng)
            items = list(g.edges.items())
            rng.shuffle(items)
            shuffled = ExprGraph(g.nodes, dict(items), g.n_slots)
            eps = rng.choice([0.25, 0.5, 0.75])
            try:
                want = oracle_prune(g, eps)
            except NoPath:
                for graph in (g, shuffled):
                    with pytest.raises(NoPath):
                        prune_and_acyclify(graph, eps)
                seen["nopath"] += 1
                continue
            got = prune_and_acyclify(g, eps).edges
            # Insertion order changes neither the decisions nor the kept order.
            assert list(prune_and_acyclify(shuffled, eps).edges.items()) == list(got.items())
            assert set(got) == set(want), f"trial {trial}"
            assert all(got[e] == g.edges[e] for e in got)
            seen["weak_kept"] += any(w < eps for w in got.values())
            seen["cycle_broken"] += any(
                w >= eps and e not in got for e, w in g.edges.items()
            )
            # Where the bottleneck rule decides: only weak edges reach the end.
            seen["strong_misses_end"] += not strong_reaches_end(g, eps)
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equal_weights(self, vocab, n):
        """Uniform rows weigh every edge the same, so only (src, dst) ranks
        the weak edges; the decisions still match the oracle's."""
        rng = random.Random(n)
        rows = np.full((n + 2, n + 2), 1.0 / (n + 2))
        for alive in [range(1, n + 1), range(1, n + 1, 2)]:  # all slots, every other one
            nodes = [Node(0, 0, i, index=i) for i in alive]
            for alpha in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
                g = build_graph(nodes, rows, rows, alpha_l2r=alpha[0], alpha_r2l=alpha[1])
                assert len(set(g.edges.values())) == 1
                items = list(g.edges.items())
                rng.shuffle(items)
                shuffled = ExprGraph(g.nodes, dict(items), g.n_slots)
                want = oracle_prune(g, 0.75)  # every edge weighs at most 2/3
                got = prune_and_acyclify(g, 0.75).edges
                assert list(prune_and_acyclify(shuffled, 0.75).edges.items()) == list(got.items())
                assert set(got) == set(want), (list(alive), alpha)

    def test_search_count_gate(self, vocab, monkeypatch):
        """Witness searches per decode on the one-sided conn-flip ablation."""
        searches = counted_searches(monkeypatch)
        worst = 0
        for alphas in [(1.0, 0.0), (0.0, 1.0)]:
            seed, decoded = 50000, 0
            while decoded < 500:
                latex = gen_expression(seed, max_depth=2, vocab=vocab)
                seed += 1
                try:
                    sample = make_sample(latex, vocab, (14, 56),
                                         noise=NoiseSpec(conn_flip_prob=0.30), seed=seed)
                except GridTooSmall:
                    continue
                searches[0] = 0
                decode_with_graph(sample.probs, sample.self_probs, sample.left,
                                  sample.right, vocab,
                                  alpha_l2r=alphas[0], alpha_r2l=alphas[1])
                worst = max(worst, searches[0])
                decoded += 1
        assert 1 <= worst <= 32

    def test_worst_case_search_gate(self, vocab, monkeypatch):
        """Uniform neighbor rows make every edge weak and equal; the number
        of witness searches does not grow with the node count.  A
        temperature sample with no strong edge stays within its count too."""
        searches = counted_searches(monkeypatch)
        x = vocab.id_of("x")
        counts = []
        for n in (40, 80, 160, 320):
            P = grid_for(vocab, {(0, c): x for c in range(n)}, 1, n)
            self_probs = np.zeros((n, vocab.correction_classes))
            self_probs[:, x] = 1.0
            rows = np.full((n + 2, n + 2), 1.0 / (n + 2))
            searches[0] = 0
            decode_with_graph(P, self_probs, rows, rows, vocab)
            counts.append(searches[0])
        assert len(set(counts)) == 1 and counts[0] <= 3, counts

        latex = gen_expression(1259, max_depth=2, vocab=vocab)
        sample = make_sample(latex, vocab, (14, 56),
                             noise=NoiseSpec(score_temperature=0.3), seed=1260)
        assert (sample.right + sample.left.T).max() < 0.5  # no strong edge
        searches[0] = 0
        result, _ = decode_with_graph(sample.probs, sample.self_probs, sample.left,
                                      sample.right, vocab)
        assert searches[0] <= 89
        assert result.latex == latex


def dense_decode_inputs(rng, vocab):
    """decode_with_graph inputs over one grid row: every pair scored in
    rows of eighths, some slots deleted (structural ones take their ENDs
    along), and a one-sided or mixed alpha."""
    symbols = [vocab.id_of(s) for s in ["x", "y", "+", "2", "^", "\\frac"]]
    width = rng.randint(1, 10)
    placed = {(0, c): rng.choice(symbols) for c in range(width) if rng.random() < 0.8}
    P = grid_for(vocab, placed, 1, width)
    nodes = expand_imaginary(vat_extract(P, vocab), vocab)
    self_probs = np.zeros((len(nodes), vocab.correction_classes))
    drop = rng.choice([0.1, 0.5])
    for i, node in enumerate(nodes):
        self_probs[i, vocab.none_id if rng.random() < drop else node.class_id] = 1.0
    n = len(nodes) + 2
    left, right = dyadic_stochastic(rng, n), dyadic_stochastic(rng, n)
    alpha = rng.choice([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 1.0)])
    return P, self_probs, left, right, alpha


def bench_samples(vocab, noises, count, seed):
    """The first `count` samples from `seed` on that fit the benchmark's
    14x56 grid; sample k gets noise ``noises[k % len(noises)]``."""
    k = 0
    while k < count:
        latex = gen_expression(seed, max_depth=2, vocab=vocab)
        seed += 1
        try:
            sample = make_sample(latex, vocab, (14, 56), noise=noises[k % len(noises)], seed=seed)
        except GridTooSmall:
            continue
        yield sample
        k += 1


class TestDecodePruneMatchesAdapter:
    """decode_with_graph prunes from the weight block; prune_and_acyclify
    on build_graph's edge dict is the inspection view of the same core."""

    def test_same_kept_edges(self, vocab):
        rng = random.Random(20261018)
        cases = [dense_decode_inputs(rng, vocab) for _ in range(1100)]
        flips = bench_samples(vocab, [NoiseSpec(conn_flip_prob=0.30)], 100, 70000)
        cases += [(s.probs, s.self_probs, s.left, s.right, [(1.0, 0.0), (0.0, 1.0)][k % 2])
                  for k, s in enumerate(flips)]
        seen = {"nopath": 0, "weak_kept": 0, "cycle_broken": 0}
        for trial, (P, self_probs, left, right, alpha) in enumerate(cases):
            eps = rng.choice([0.25, 0.5, 0.75])
            kept = apply_corrections(expand_imaginary(vat_extract(P, vocab), vocab),
                                     self_probs, vocab)
            graph = build_graph(kept, left, right, alpha_l2r=alpha[0], alpha_r2l=alpha[1])
            args = (P, self_probs, left, right, vocab, eps, *alpha)
            try:
                want_graph = prune_and_acyclify(graph, eps)
            except NoPath:
                with pytest.raises(NoPath):
                    decode_with_graph(*args)
                seen["nopath"] += 1
                continue
            want = want_graph.edges
            result, pruned = decode_with_graph(*args)
            got = pruned.edges
            assert [(e, repr(w)) for e, w in got.items()] == [
                (e, repr(w)) for e, w in want.items()
            ], f"trial {trial}"
            assert list(pruned.nodes.items()) == list(want_graph.nodes.items()), f"trial {trial}"
            assert pruned.n_slots == want_graph.n_slots
            want_result = longest_path(want_graph, vocab)
            assert (result.path, repr(result.weight), result.latex) == (
                want_result.path, repr(want_result.weight), want_result.latex
            ), f"trial {trial}"
            seen["weak_kept"] += any(w < eps for w in got.values())
            seen["cycle_broken"] += any(
                w >= eps and e not in got for e, w in graph.edges.items()
            )
        assert min(seen.values()) >= 50, seen

    def test_decode_builds_no_edge_dict(self, vocab, monkeypatch):
        """Decoding the benchmark's default profiles never builds the dense
        edge dict nor prunes through it."""

        def refuse(*args, **kwargs):
            raise AssertionError("dense edge dict on the decode path")

        monkeypatch.setattr(decode, "build_graph", refuse)
        monkeypatch.setattr(decode, "prune_and_acyclify", refuse)
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        for k, sample in enumerate(bench_samples(vocab, profiles, 100, 80000)):
            result, _ = decode_with_graph(sample.probs, sample.self_probs,
                                          sample.left, sample.right, vocab)
            if k % 5 == 0:  # quiet
                assert result.latex == emit_latex(sample.seq, vocab)

    def test_decode_builds_each_node_once(self, vocab, monkeypatch):
        """Decoding the benchmark's default profiles builds a Node only for
        a node that survives corrections, and never through the public
        stage functions."""
        built = 0

        class CountedNode(Node):
            def __init__(self, *args, **kwargs):
                nonlocal built
                built += 1
                super().__init__(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("public stage function on the decode path")

        monkeypatch.setattr(decode, "Node", CountedNode)
        for name in ("vat_extract", "expand_imaginary", "apply_corrections"):
            monkeypatch.setattr(decode, name, refuse)
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        samples = list(bench_samples(vocab, profiles, 100, 85000))
        deleted = 0
        for sample in samples:
            built = 0
            _, pruned = decode_with_graph(sample.probs, sample.self_probs,
                                          sample.left, sample.right, vocab)
            assert built == len(pruned.nodes)
            deleted += pruned.n_slots - len(pruned.nodes)
        assert deleted > 0  # some profile deletes nodes, so the count is not the slot count

    def test_decode_uses_vocab_tables(self, vocab, monkeypatch):
        """Decoding reads class roles and group counts from the vocabulary's
        tables after one range check per sequence, never through the
        per-id checked lookups."""
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        samples = list(bench_samples(vocab, profiles, 100, 90000))
        quiet = [emit_latex(s.seq, vocab) for s in samples[::5]]

        def refuse(*args, **kwargs):
            raise AssertionError("per-id vocabulary lookup on the decode path")

        for name in ("role_of", "symbol_of", "is_structural", "group_count"):
            monkeypatch.setattr(TokenVocab, name, refuse)
        decoded = [decode_with_graph(s.probs, s.self_probs, s.left, s.right, vocab)[0].latex
                   for s in samples]
        assert decoded[::5] == quiet


class TestLongestPath:
    def test_matches_oracle_exactly(self, vocab):
        rng = random.Random(20240820)
        connected = 0
        for _ in range(300):
            g = random_dag(rng, vocab)
            try:
                want_w, _ = oracle_longest_path(g)
            except NoPath:
                with pytest.raises(NoPath):
                    longest_path(g, vocab)
                continue
            got = longest_path(g, vocab)
            connected += 1
            assert got.weight == want_w
            assert got.path[0] == 0 and got.path[-1] == g.eos
            walked = sum(g.edges[e] for e in zip(got.path, got.path[1:]))
            assert walked == got.weight
        assert connected > 150

    def test_deterministic_tie_break(self, vocab):
        # Two equal-weight routes to the end: the smaller predecessor wins.
        nodes = {
            1: Node(vocab.id_of("x"), 0, 0, index=1),
            2: Node(vocab.id_of("y"), 0, 1, index=2),
        }
        edges = {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
        got = longest_path(ExprGraph(nodes, edges, n_slots=2), vocab)
        assert got.path == [0, 1, 3]
        assert got.latex == "x"

    def test_cycle_detected(self, vocab):
        nodes = {1: Node(0, 0, 0, index=1), 2: Node(1, 0, 1, index=2)}
        edges = {(0, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0}
        with pytest.raises(CycleDetected):
            longest_path(ExprGraph(nodes, edges, n_slots=2), vocab)

    def test_renders_latex(self, vocab):
        frac, x, y = vocab.id_of("\\frac"), vocab.id_of("x"), vocab.id_of("y")
        nodes = expand_imaginary(plain_nodes(vocab, [frac, x, y]), vocab)
        graph_nodes = {n.index: n for n in nodes}
        chain = [0, 1, 4, 2, 5, 3, len(nodes) + 1]  # frac x END y END
        edges = {e: 1.0 for e in zip(chain, chain[1:])}
        got = longest_path(ExprGraph(graph_nodes, edges, n_slots=len(nodes)), vocab)
        assert got.latex == "\\frac { x } { y }"

    def test_bracket_ending_sqrt_index_refused(self, vocab):
        # sqrt ] END x END: the only nesting makes `]` the whole index.
        cids = [vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.end_id, vocab.id_of("x"), vocab.end_id]
        nodes = {i: Node(cid, 0, i, index=i) for i, cid in enumerate(cids, 1)}
        chain = range(len(cids) + 2)
        edges = {e: 1.0 for e in zip(chain, chain[1:])}
        with pytest.raises(IllNested, match="position 1"):
            longest_path(ExprGraph(nodes, edges, n_slots=len(cids)), vocab)


class TestRepair:
    def test_drops_unopened_ends(self, vocab):
        x = vocab.id_of("x")
        assert repair_groups([vocab.end_id, x], vocab) == [x]

    def test_closes_open_groups(self, vocab):
        frac, x = vocab.id_of("\\frac"), vocab.id_of("x")
        assert repair_groups([frac, x], vocab) == [frac, x, vocab.end_id, vocab.end_id]

    def test_sqrt_interval(self, vocab):
        sq, a, b = vocab.id_of("\\sqrt"), vocab.id_of("a"), vocab.id_of("b")
        end = vocab.end_id
        # Two ENDs are feasible for one \sqrt (indexed reading): kept as is.
        assert repair_groups([sq, a, end, b, end], vocab) == [sq, a, end, b, end]
        # Three are not: the third is dropped.
        assert repair_groups([sq, a, end, b, end, end], vocab) == [sq, a, end, b, end]

    def test_wellformed_untouched(self, vocab):
        seq = parse_latex("\\frac { x } { y } + 1", vocab)
        assert repair_groups(seq, vocab) == seq


class TestPipeline:
    def test_end_to_end_sample(self, vocab):
        s = "\\frac { a } { b } = c"
        sample = make_sample(s, vocab, (10, 30))
        result, graph = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, vocab
        )
        assert result.latex == s
        assert decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, vocab
        )[0].latex == s
        path_edges = set(zip(result.path, result.path[1:]))
        assert path_edges <= set(graph.edges)

    def test_empty_grid_no_path(self, vocab):
        P = grid_for(vocab, {}, 4, 4)
        sp = np.zeros((0, vocab.correction_classes), dtype=np.float32)
        m = np.eye(2, dtype=np.float32)
        with pytest.raises(NoPath):
            decode_with_graph(P, sp, m, m, vocab)

    # id: (entry point, array, where the bad value goes, the value, error)
    FAULTS = {
        "grid_nan": ("decode", "probs", (0, 0, 0), np.nan, NonFinite),
        "correction_nan": ("decode", "self_probs", 1, np.nan, NonFinite),
        "left_nan": ("decode", "left", 2, np.nan, NonFinite),
        "right_nan": ("decode", "right", 2, np.nan, NonFinite),
        "correction_too_wide": ("decode", None, None, None, ShapeMismatch),
        "attention_inf": ("positions", "attn", (1, 2, 3), np.inf, NonFinite),
        "attention_rank": ("positions", None, None, None, ShapeMismatch),
        "attention_no_cells": ("positions", None, None, None, ShapeMismatch),
        "cost_grid_unread_nan": ("cost", "probs", (3, 7, 9), np.nan, NonFinite),
        "cost_grid_channels": ("cost", None, None, None, ShapeMismatch),
        "cost_position_off_grid": ("cost", None, None, None, ShapeMismatch),
        "cost_matrix_neg_inf": ("hungarian", "cost", (1, 5), -np.inf, NonFinite),
        "cost_matrix_nan": ("hungarian", "cost", (0, 0), np.nan, NonFinite),
        "vat_target_cell_nan": ("vat", "probs", None, np.nan, NonFinite),
        "pgd_correction_nan": ("pgd", "self_probs", (2, 4), np.nan, NonFinite),
        "pgd_right_inf": ("pgd", "right", (1, 3), np.inf, NonFinite),
        "pgd_left_rows": ("pgd", None, None, None, NodeCountMismatch),
    }

    @pytest.mark.parametrize(
        "fault,error", [(fault, spec[-1]) for fault, spec in FAULTS.items()]
    )
    def test_input_fault_named(self, vocab, fault, error):
        """Each entry point raises the class that names the fault; NonFinite
        also carries the flat position of the first bad value."""
        entry, name, where, value, _ = self.FAULTS[fault]
        sample = make_sample("x + 1", vocab, (8, 16))
        seq = sample.seq
        arrays = {
            key: getattr(sample, key).copy()
            for key in ("probs", "self_probs", "left", "right", "attn")
        }
        positions = estimate_positions(sample.attn, seq, vocab)
        arrays["cost"] = build_cost(sample.probs, positions, seq, vocab)
        target_grid = make_targets(
            hungarian(arrays["cost"]), seq, vocab, *sample.probs.shape[1:]
        ).grid
        if entry == "vat":
            # A cell whose target class is read by the loss.
            where = (int(target_grid[0, 0]), 0, 0)
        if name is not None:
            arrays[name][where] = value
        elif fault == "correction_too_wide":
            # An extra class column that wins every vote.
            sp = arrays["self_probs"]
            arrays["self_probs"] = np.hstack([sp, np.full((len(sp), 1), 2.0, dtype=sp.dtype)])
        elif fault == "attention_rank":
            arrays["attn"] = arrays["attn"][0]
        elif fault == "attention_no_cells":
            arrays["attn"] = arrays["attn"][:, :0]
        elif fault == "cost_grid_channels":
            arrays["probs"] = arrays["probs"][1:]
        elif fault == "cost_position_off_grid":
            # As a slice start, row -4 would wrap around to the grid's end.
            positions = [(-4, 0)] + positions[1:]
        elif fault == "pgd_left_rows":
            arrays["left"] = arrays["left"][:-1]
        calls = {
            "decode": lambda a: decode_with_graph(
                a["probs"], a["self_probs"], a["left"], a["right"], vocab
            ),
            "positions": lambda a: estimate_positions(a["attn"], seq, vocab),
            "cost": lambda a: build_cost(a["probs"], positions, seq, vocab),
            "hungarian": lambda a: hungarian(a["cost"]),
            "vat": lambda a: loss_vat(a["probs"], target_grid),
            "pgd": lambda a: loss_pgd(
                a["self_probs"], a["left"], a["right"], gt_targets(seq)
            ),
        }
        with pytest.raises(error) as exc:
            calls[entry](arrays)
        assert type(exc.value) is error
        if error is NonFinite:
            marked = np.zeros(arrays[name].shape, dtype=bool)
            marked[where] = True
            assert exc.value.index == int(np.flatnonzero(marked)[0])

    def test_matrix_size_mismatch(self, vocab):
        s = "x + y"
        sample = make_sample(s, vocab, (8, 16))
        with pytest.raises(NodeCountMismatch):
            decode_with_graph(
                sample.probs, sample.self_probs[:-1], sample.left, sample.right, vocab
            )
        with pytest.raises(NodeCountMismatch):
            decode_with_graph(
                sample.probs,
                sample.self_probs,
                sample.left[:-1, :-1],
                sample.right,
                vocab,
            )


BAD_VALUES = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def decode_inputs(draw):
    """Small decode inputs: a one-hot grid, one-hot correction rows and
    row-stochastic neighbor scores, with NaN or infinity planted at drawn
    positions or one array cut short."""
    vocab = default_vocab()
    h, w = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    symbols = ["x", "1", "+", "\\frac", "\\sqrt", "^"]
    ids = [vocab.none_id] + [vocab.id_of(s) for s in symbols]
    cells = draw(st.lists(st.sampled_from(ids), min_size=h * w, max_size=h * w))
    P = np.zeros((vocab.grid_classes, h, w), dtype=np.float32)
    P[cells, np.arange(h * w) // w, np.arange(h * w) % w] = 1.0
    n = len(expand_imaginary(vat_extract(P, vocab), vocab))
    votes = draw(st.lists(st.sampled_from(ids + [vocab.end_id]), min_size=n, max_size=n))
    sp = np.zeros((n, vocab.correction_classes), dtype=np.float32)
    sp[np.arange(n), votes] = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = (rng.integers(0, 5, (n + 2, n + 2)) + 0.25 for _ in range(2))
    arrays = {"P": P, "sp": sp, "left": left / left.sum(axis=1, keepdims=True),
              "right": right / right.sum(axis=1, keepdims=True)}
    for name, pos, value in draw(st.lists(
        st.tuples(st.sampled_from(sorted(arrays)), st.integers(0, 10**6), BAD_VALUES),
        max_size=2,
    )):
        if arrays[name].size:
            arrays[name].flat[pos % arrays[name].size] = value
    cut = draw(st.sampled_from([None, None, None, "sp", "left", "right"]))
    if cut is not None:
        arrays[cut] = arrays[cut][:-1]
    return arrays


@settings(max_examples=300, deadline=None)
@given(
    inputs=decode_inputs(),
    epsilon=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]),
)
def test_decode_names_fault_or_round_trips(inputs, epsilon, alpha):
    vocab = default_vocab()
    try:
        result, _ = decode_with_graph(
            inputs["P"], inputs["sp"], inputs["left"], inputs["right"], vocab,
            epsilon=epsilon, alpha_l2r=alpha[0], alpha_r2l=alpha[1],
        )
    except HmeGraphError:
        return
    assert all(np.isfinite(a).all() for a in inputs.values())
    assert emit_latex(parse_latex(result.latex, vocab), vocab) == result.latex
