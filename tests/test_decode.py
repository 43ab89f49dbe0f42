"""Graph decoding: extraction, expansion, corrections, pruning, best path."""

import heapq
import json
import math
import random
import re
import warnings
from bisect import insort

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
    coverage_corpus,
    decode_with_graph,
    default_vocab,
    emit_latex,
    estimate_positions,
    expand_imaginary,
    export_dot,
    gen_expression,
    group_structure,
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
    teacher_matrices,
    vat_extract,
)
from hmegraph import decode, errors, tokens
from hmegraph.decode import ExprGraph, Node
from hmegraph.errors import as_array
from hmegraph.tokens import (
    END_SYMBOL,
    EOS_SYMBOL,
    NONE_SYMBOL,
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


def test_node_is_an_immutable_tuple():
    node = Node(3, 1, 2)
    assert (node.index, node.parent) == (0, None)
    assert node == (3, 1, 2, 0, None) and hash(node) == hash((3, 1, 2, 0, None))
    assert {node: 1}[Node(3, 1, 2, index=0)] == 1
    assert repr(node) == "Node(class_id=3, row=1, col=2, index=0, parent=None)"
    with pytest.raises(AttributeError):
        node.index = 5


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
        vocab = TokenVocab([NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL])
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
    """Grids in four dtypes with argmax ties, blank cells and empty axes.
    Values are integers (ties in most cells), signed normal draws, or
    non-negative draws, which pass on one read; a float grid may hold -0.0
    or subnormals, and any grid may be byte-swapped or a strided view."""
    vocab = default_vocab()
    h, w = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64, np.int64]))
    shape = (vocab.grid_classes, h, w)
    P = draw(st.sampled_from([
        lambda: rng.integers(0, 3, shape), lambda: rng.normal(size=shape), lambda: rng.random(shape),
    ]))()
    blank = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    P[vocab.none_id][blank] = 3
    P = P.astype(dtype)
    if dtype is not np.int64:
        cells = rng.random(shape) < 0.3
        planted = draw(st.sampled_from([None, "-0.0", "subnormal"]))
        if planted == "-0.0":
            P[cells] = -0.0
        elif planted == "subnormal":  # ordered by their bits as by their values
            P[cells] = np.finfo(dtype).smallest_subnormal * rng.integers(1, 4, cells.sum())
    form = draw(st.sampled_from(["contiguous", "byte-swapped", "strided"]))
    if form == "byte-swapped":
        return P.astype(P.dtype.newbyteorder())
    if form == "strided":
        return np.repeat(P, 2, axis=2)[:, :, ::-2]  # reversed columns, stride -2
    return P


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

    def test_mixed_dtype_and_order_pairs(self, vocab):
        """A float32 C-ordered matrix paired with a float64 Fortran-ordered
        one, either way round, gives the edges of the same pair in one
        dtype: each matrix sums its own rows."""
        rng = np.random.default_rng(23)
        for n in (0, 1, 5, 11):
            nodes = [Node(0, 0, i, index=i) for i in range(1, n + 1)]
            left, right = (self.stochastic(rng, n).astype(np.float32) for _ in range(2))
            want = [(e, repr(w)) for e, w in build_graph(nodes, left, right).edges.items()]
            for pair in [(left, np.asfortranarray(right, dtype=np.float64)),
                         (np.asfortranarray(left, dtype=np.float64), right)]:
                got = build_graph(nodes, *pair).edges
                assert [(e, repr(w)) for e, w in got.items()] == want, n

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

    def test_overflowing_row_is_not_stochastic(self, vocab):
        """Finite float32 entries whose row sum overflows are not NonFinite.
        The diagnosis warns of the overflow, as a plain row sum does, and of
        nothing else."""
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")]), vocab)
        good = np.full((3, 3), 1.0 / 3, dtype=np.float32)
        big = good.copy()
        big[1] = [3e38, 3e38, 0.0]
        overflow = pytest.warns(RuntimeWarning, match="overflow encountered")
        with pytest.raises(NonStochasticRow) as exc, overflow:
            build_graph(nodes, big, good)
        assert type(exc.value) is NonStochasticRow
        assert (exc.value.row, exc.value.total) == (1, np.inf)

    def test_row_summing_to_nan_is_not_stochastic(self, vocab):
        """Finite float32 entries whose partial sums overflow both ways sum
        to NaN.  Only the overflow warns: inf - inf in the sum does not."""
        nodes = expand_imaginary(plain_nodes(vocab, [vocab.id_of("x")] * 14), vocab)
        good = np.full((16, 16), 1.0 / 16, dtype=np.float32)
        bad = good.copy()
        bad[3, [0, 8]] = 3e38
        bad[3, [1, 9]] = -3e38
        overflow = pytest.warns(RuntimeWarning, match="overflow encountered")
        with pytest.raises(NonStochasticRow) as exc, overflow:
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

    @staticmethod
    def diagnose(left, right):
        """Reference: every neighbor matrix checked on its own, left first."""
        n = max(len(left) - 2, 0)
        with np.errstate(invalid="ignore"):
            for name, m in (("left", left), ("right", right)):
                as_array(m, (n + 2, n + 2), f"{name} neighbor scores", counts=(0, 1),
                         finite=False)
                sums = m.sum(axis=1)
                if not np.isfinite(sums).all():
                    as_array(m, None, f"{name} neighbor scores")
                if np.abs(sums - 1.0).max() > decode.ROW_SUM_TOL or m.min() < -decode.ROW_SUM_TOL:
                    off = (np.abs(sums - 1.0) > decode.ROW_SUM_TOL) | np.any(
                        m < -decode.ROW_SUM_TOL, axis=1)
                    bad = int(np.argmax(off))
                    raise NonStochasticRow(bad, float(sums[bad]))

    @staticmethod
    def plant(m, fault, row):
        if fault == "nan":
            m[row, 3] = np.nan
        elif fault in ("inf", "-inf"):
            m[row, 1] = float(fault)
        elif fault == "off_sum":
            m[row] *= 1.5
        elif fault == "negative":  # the row still sums to 1
            m[row, :2] = [-0.25, m[row, 0] + m[row, 1] + 0.25]
        elif fault == "overflow":  # finite entries whose sum overflows
            m[row, :2] = np.finfo(m.dtype).max
        return m

    @staticmethod
    def outcome(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                fn()
                raised = None
            except (NonFinite, NonStochasticRow) as err:
                raised = (type(err), str(err), getattr(err, "index", None),
                          getattr(err, "row", None), repr(getattr(err, "total", None)))
        return raised, [(w.category, str(w.message)) for w in caught]

    def test_faults_named_as_by_each_matrix_alone(self):
        """NaN, either infinity, an off-sum row, a negative entry or an
        overflowing sum, in left, right or both: the same class, message,
        row or index, and the same warnings as checking each matrix alone."""
        faults = [None, "nan", "inf", "-inf", "off_sum", "negative", "overflow"]
        nodes = [Node(0, 0, i, index=i) for i in range(1, 5)]
        rng = np.random.default_rng(19)
        seen = set()
        for dtypes in [(np.float64, np.float64), (np.float32, np.float32),
                       (np.float32, np.float64)]:
            for order in "CF":
                for lf in faults:
                    for rf in faults:
                        left, right = (
                            np.asarray(self.plant(self.stochastic(rng, 4).astype(dt), f, row),
                                       order=order)
                            for dt, f, row in zip(dtypes, (lf, rf), (2, 4)))
                        got = self.outcome(lambda: build_graph(nodes, left, right))
                        want = self.outcome(lambda: self.diagnose(left, right))
                        assert got == want, (dtypes, order, lf, rf)
                        seen.add(want[0] and want[0][0])
                        assert (want[0] is None) == (lf is rf is None)
        assert seen == {None, NonFinite, NonStochasticRow}


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


GRAPH_READERS = {
    "prune_and_acyclify": lambda graph, vocab: prune_and_acyclify(graph),
    "longest_path": lambda graph, vocab: longest_path(graph, vocab),
    "export_dot": lambda graph, vocab: export_dot(graph, vocab),
}


@pytest.mark.parametrize("reader", sorted(GRAPH_READERS))
@pytest.mark.parametrize("n_slots, edges", [(-5, {}), (-2, {(0, -1): 0.9}), (-1, {})],
                         ids=["empty", "edge_to_end", "end_is_start"])
def test_negative_n_slots_named(vocab, reader, n_slots, edges):
    """A negative n_slots, which would put the end at or before the start,
    raises NodeCountMismatch naming it in every graph reader."""
    with pytest.raises(NodeCountMismatch, match=re.escape(f"n_slots is {n_slots}")):
        GRAPH_READERS[reader](ExprGraph({}, edges, n_slots), vocab)


@pytest.mark.parametrize("reader", sorted(GRAPH_READERS))
@pytest.mark.parametrize("key", [(2, 1.0), (0, 1, 2), (1,), 5, "ab", (None, 2)],
                         ids=["float_end", "triple", "single", "int", "str", "none_end"])
def test_bad_edge_key_named(vocab, reader, key):
    """An edge key that is not a pair of integers raises ShapeMismatch
    naming the key in every graph reader, even when each of its ends is a
    valid position.  Keys of numpy integers read as the pairs of ints they
    equal, to the same result."""
    nodes = {1: Node(0, 0, 0, index=1), 2: Node(0, 0, 1, index=2)}
    edges = {(0, 1): 0.9, (1, 2): 0.8, (2, 3): 0.7}
    read = GRAPH_READERS[reader]
    with pytest.raises(ShapeMismatch, match=re.escape(f"edge key {key!r}")) as exc:
        read(ExprGraph(nodes, {**edges, key: 0.5}, 2), vocab)
    assert type(exc.value) is ShapeMismatch
    numpy_keys = {(np.int64(s), np.int64(d)): w for (s, d), w in edges.items()}
    want = read(ExprGraph(nodes, edges, 2), vocab)
    assert read(ExprGraph(nodes, numpy_keys, 2), vocab) == want


def test_numpy_keyed_path_is_ints(vocab):
    """A graph keyed by numpy integers gives a path of Python ints, which
    serializes as JSON; an equality check on the path cannot tell an
    ``np.int64`` entry from an int."""
    nodes = {1: Node(0, 0, 0, index=1), 2: Node(0, 0, 1, index=2)}
    edges = {(0, 1): 0.9, (1, 2): 0.8, (2, 3): 0.7, (0, 2): 0.2}
    for int_type in (np.int64, np.int32, np.uint8):
        keyed = {(int_type(s), int_type(d)): w for (s, d), w in edges.items()}
        result = longest_path(ExprGraph(nodes, keyed, 2), vocab)
        assert [type(v) for v in result.path] == [int] * 4, int_type
        assert json.loads(json.dumps(result.path)) == [0, 1, 2, 3]


def dyadic_stochastic(rng, n):
    """Rows of eighths: exact sums, and many ties between weights."""
    m = np.zeros((n, n))
    for row in m:
        for _ in range(8):
            row[rng.randrange(n)] += 0.125
    return m


def chain_rows(n, links):
    """Neighbor rows over n nodes plus start and end: ``rows[i, i + 1]`` is
    ``links[i]`` for i = 0..n, and the rest of each row is even."""
    rows = np.full((n + 2, n + 2), 1.0 / (n + 2))
    for i, link in enumerate(links):
        rows[i] = (1.0 - link) / (n + 1)
        rows[i, i + 1] = link
    return rows


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


def count_calls(monkeypatch, name, module=decode):
    """Patch `module.<name>` to record the result of each call, None for a
    call that raises; returns the list of results, which the caller clears
    between decodes."""
    results = []
    func = getattr(module, name)

    def recorded(*args):
        i = len(results)
        results.append(None)
        results[i] = func(*args)
        return results[i]

    monkeypatch.setattr(module, name, recorded)
    return results


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
            # Where the weak path search decides: only weak edges reach the end.
            seen["strong_misses_end"] += not strong_reaches_end(g, eps)
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equal_weights(self, vocab, n):
        """Uniform rows weigh every edge the same, so only (src, dst) ranks
        the weak edges; the decisions still match the oracle's.  Up to ten
        nodes, a chain of equal weights and one of descending weights keep
        a weak edge per node, so long paths of weak edges, equal or not,
        are checked too."""
        rng = random.Random(n)
        rows = np.full((n + 2, n + 2), 1.0 / (n + 2))
        cases = [(rows, alpha) for alpha in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]]
        if n <= 10:
            cases += [(chain_rows(n, [0.4] * (n + 1)), (1.0, 0.0)),
                      (chain_rows(n, [0.45 - 0.02 * i for i in range(n + 1)]), (1.0, 0.0))]
        for alive in [range(1, n + 1), range(1, n + 1, 2)]:  # all slots, every other one
            nodes = [Node(0, 0, i, index=i) for i in alive]
            for right, alpha in cases:
                g = build_graph(nodes, rows, right, alpha_l2r=alpha[0], alpha_r2l=alpha[1])
                if right is rows:
                    assert len(set(g.edges.values())) == 1
                items = list(g.edges.items())
                rng.shuffle(items)
                shuffled = ExprGraph(g.nodes, dict(items), g.n_slots)
                want = oracle_prune(g, 0.75)  # every edge weighs at most 2/3
                got = prune_and_acyclify(g, 0.75).edges
                assert list(prune_and_acyclify(shuffled, 0.75).edges.items()) == list(got.items())
                assert set(got) == set(want), (list(alive), alpha)

    def test_search_count_gate(self, vocab, monkeypatch):
        """Path searches per decode on the one-sided conn-flip ablation."""
        searches = count_calls(monkeypatch, "_find_path")
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
                searches.clear()
                decode_with_graph(sample.probs, sample.self_probs, sample.left,
                                  sample.right, vocab,
                                  alpha_l2r=alphas[0], alpha_r2l=alphas[1])
                worst = max(worst, len(searches))
                decoded += 1
        assert 1 <= worst <= 24

    def test_worst_case_search_gate(self, vocab, monkeypatch):
        """With no strong edge, and so no cycle to break, a decode makes
        exactly two path searches however many weak edges it keeps: one
        over strong edges, one over all.  It reads at most N + 2 rows of
        the weak key matrix one at a time.  The inputs: a chain of weak
        edges and uniform rows over N = 40 to 320 nodes, and an 87-node
        temperature sample that still decodes to its label."""
        searches = count_calls(monkeypatch, "_find_path")
        find_path, rows_read = decode._find_path, [0]

        class CountedRows(np.ndarray):
            def __getitem__(self, key):
                rows_read[0] += isinstance(key, int)  # one vertex's row
                return super().__getitem__(key)

        def counted(live, key=None):
            return find_path(live, None if key is None else key.view(CountedRows))

        monkeypatch.setattr(decode, "_find_path", counted)

        def gate(n, *args, **kwargs):
            searches.clear()
            rows_read[0] = 0
            result, _ = decode_with_graph(*args, vocab, **kwargs)
            assert len(searches) == 2, n
            assert rows_read[0] <= n + 2, (n, rows_read)
            return result

        x = vocab.id_of("x")
        for n in (40, 80, 160, 320):
            P = grid_for(vocab, {(0, c): x for c in range(n)}, 1, n)
            self_probs = np.zeros((n, vocab.correction_classes))
            self_probs[:, x] = 1.0
            rows = np.full((n + 2, n + 2), 1.0 / (n + 2))
            gate(n, P, self_probs, rows, rows)
            chain = gate(n, P, self_probs, rows, chain_rows(n, [0.4] * (n + 1)),
                         alpha_l2r=1.0, alpha_r2l=0.0)
            assert chain.path == list(range(n + 2))

        latex = gen_expression(1259, max_depth=2, vocab=vocab)
        sample = make_sample(latex, vocab, (14, 56),
                             noise=NoiseSpec(score_temperature=0.3), seed=1260)
        assert (sample.right + sample.left.T).max() < 0.5  # no strong edge
        n = len(sample.self_probs)
        assert n == 87
        result = gate(n, sample.probs, sample.self_probs, sample.left, sample.right)
        assert result.latex == latex


def frozen_prune(weights, valid, epsilon):
    """`decode._prune` as it stood before weak rows were ranked only where
    the path search reads them and before the cycle phase resumed its
    search: a reference the rewrite must match edge for edge.  Returns
    the kept edges, successor and weight lists, and the postorder of the
    last depth-first pass."""
    n = len(weights)
    below = weights < epsilon

    def rows(src, values):
        bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
        values = values.tolist()
        return [values[i:j] for i, j in zip(bounds, bounds[1:])]

    def find_path(live, pos=None, dst=None):
        end, none = len(live) - 1, len(dst or ())
        pred = [-1] * len(live)
        first = [none] * len(live) if pos is None else pos.min(axis=1).tolist()
        pred[0] = 0
        reached, heap, rest = [0], [], {}
        while True:
            for u in reached:
                for x in live[u]:
                    if pred[x] < 0:
                        pred[x] = u
                        reached.append(x)
                if first[u] < none:
                    heapq.heappush(heap, (first[u], u))
            if pred[end] >= 0:
                break
            while heap:
                p, u = heapq.heappop(heap)
                if u not in rest:
                    row = pos[u]
                    rest[u] = iter(np.sort(row[row < none])[1:].tolist())
                if (q := next(rest[u], None)) is not None:
                    heapq.heappush(heap, (q, u))
                v = dst[p]
                if pred[v] < 0:
                    pred[v] = u
                    reached = [v]
                    break
            else:
                return None
        path, v = set(), end
        while v:
            path.add((pred[v], v))
            v = pred[v]
        return path

    def find_cycle(succ):
        color = [0] * len(succ)
        order = []
        for start in range(len(succ)):
            if color[start]:
                continue
            color[start] = 1
            stack = [(start, iter(succ[start]))]
            while stack:
                u, it = stack[-1]
                for v in it:
                    if color[v] == 1:
                        on_stack = [frame[0] for frame in stack]
                        tail = on_stack[on_stack.index(v):]
                        return [(u, v), *zip(tail, tail[1:])], order
                    if color[v] == 0:
                        color[v] = 1
                        stack.append((v, iter(succ[v])))
                        break
                else:
                    color[u] = 2
                    order.append(u)
                    stack.pop()
        return None, order

    live = rows(*np.nonzero(valid & ~below))
    witness = find_path(live)
    if witness is None:
        src, dst = np.nonzero(valid & below)
        by_rank = np.argsort(weights[src, dst], kind="stable")[::-1]
        pos = np.full((n, n), len(by_rank))
        pos[src[by_rank], dst[by_rank]] = np.arange(len(by_rank))
        witness = find_path(live, pos, dst[by_rank].tolist())
        if witness is None:
            raise NoPath("virtual end unreachable before pruning")
        for s, d in witness:
            if d not in live[s]:
                insort(live[s], d)
    cycle, order = find_cycle(live)
    while cycle is not None:
        for _, (s, d) in sorted((weights.item(e), e) for e in cycle):
            live[s].remove(d)
            if (s, d) not in witness:
                break
            found = find_path(live)
            if found is not None:
                witness = found
                break
            insort(live[s], d)
        cycle, order = find_cycle(live)
    edges = {(s, d): weights.item(s, d) for s, out in enumerate(live) for d in out}
    return edges, live, [[weights.item(s, d) for d in out] for s, out in enumerate(live)], order


def random_weight_matrix(rng):
    """A weight matrix and edge mask over up to 30 nodes plus start and
    end, as `_prune` takes them, and the positions holding a node: weights
    in eighths, so that weak edges tie, at a density that leaves some ends
    unreachable, some reached by weak edges only and many graphs with
    cycles.  `rng` is a numpy Generator."""
    n = int(rng.integers(1, 31))
    alive = rng.random(n + 2) < 0.85
    alive[[0, n + 1]] = True
    valid = (rng.random((n + 2, n + 2)) < rng.uniform(0.05, 0.5)) & alive[:, None] & alive
    valid[:, 0] = valid[n + 1] = valid[0, n + 1] = False
    np.fill_diagonal(valid, False)
    weights = np.where(valid, rng.integers(0, 9, (n + 2, n + 2)) / 8.0, 0.0)
    return weights, valid, np.flatnonzero(alive[1:-1]) + 1


def strong_cycle_chain(n, back=0.8):
    """`_prune` inputs for a chain 0 -> 1 -> ... -> n + 1 of strong edges
    (0.9) with a strong edge back from each node to the one before it
    (`back`), so n - 1 two-cycles."""
    weights = np.zeros((n + 2, n + 2))
    for i in range(n + 1):
        weights[i, i + 1] = 0.9
    for i in range(1, n):
        weights[i + 1, i] = back
    return weights, weights > 0


def bypass_cycle_chain(n):
    """`_prune` inputs for a chain 0 -> 1 -> ... -> n + 1 of strong edges
    (0.8), a strong edge back from each node to the one before it (0.9)
    and a strong bypass i -> i + 2 (0.6) over each node: each two-cycle's
    lightest edge lies on the witness, and its removal leaves a path."""
    weights, _ = strong_cycle_chain(n, 0.9)
    for i in range(n + 1):
        weights[i, i + 1] = 0.8
    for i in range(n):
        weights[i, i + 2] = 0.6
    return weights, weights > 0


class TestCyclePhase:
    def test_matches_frozen_prune(self, vocab):
        """On 20,000 random graphs the kept edges, in order and weight, the
        successor lists and the best path match the reference's.  The
        postorders may differ: the best path does not depend on them."""
        rng = np.random.default_rng(20261019)
        x = vocab.id_of("x")
        seen = {"nopath": 0, "weak_kept": 0, "cycle_broken": 0, "strong_reaches_end": 0}
        for trial in range(20000):
            weights, valid, nodes = random_weight_matrix(rng)
            eps = float(rng.choice([0.25, 0.5, 0.75]))
            try:
                want = frozen_prune(weights, valid, eps)
            except NoPath:
                with pytest.raises(NoPath):
                    decode._prune(weights, valid, eps)
                seen["nopath"] += 1
                continue
            edges, live, order = decode._prune(weights, valid, eps)
            assert [(e, repr(w)) for e, w in edges.items()] == [
                (e, repr(w)) for e, w in want[0].items()], f"trial {trial}"
            assert live == want[1], f"trial {trial}"
            nodes = {i: Node(x, 0, i, index=i) for i in nodes.tolist()}
            got_path = decode._best_path(nodes, live, edges, order, vocab)
            want_path = decode._best_path(nodes, want[1], want[0], want[3], vocab)
            assert (got_path.path, repr(got_path.weight), got_path.latex) == (
                want_path.path, repr(want_path.weight), want_path.latex), f"trial {trial}"
            # A weak edge is kept exactly when strong edges alone miss the end.
            weak_kept = any(w < eps for w in edges.values())
            seen["weak_kept"] += weak_kept
            seen["strong_reaches_end"] += not weak_kept
            strong = zip(*np.nonzero(valid & (weights >= eps)))
            seen["cycle_broken"] += any(e not in edges for e in strong)
        assert min(seen.values()) >= 1000, seen

    @pytest.mark.parametrize("back", [0.8, 0.95, pytest.param(None, id="bypass")])
    def test_linear_frames_on_cycle_chain(self, vocab, monkeypatch, back):
        """On a chain of N - 1 strong two-cycles, N = 40 to 640, the cycle
        phase pushes at most 2 (V + E) depth-first frames over a whole
        prune, where a search restarted after each removal pushed about
        N ** 2 / 2, and pruning makes at most N + 1 path searches.  The
        chain keeps exactly its forward edges, whether the back edges are
        the lighter (each removal off the witness) or the heavier (each
        removal tried on it first, and undone).  With bypasses
        (`bypass_cycle_chain`) each removal on the witness succeeds, and
        the kept edges are the reference's; each of its searches is
        O(V + E), the baseline that a local witness repair would cut."""
        frames = [0]

        def counted_iter(successors):
            frames[0] += 1
            return iter(successors)

        searches = count_calls(monkeypatch, "_find_path")
        monkeypatch.setattr(decode, "iter", counted_iter, raising=False)
        for n in (40, 80, 160, 320, 640):
            if back is None:
                weights, valid = bypass_cycle_chain(n)
                want = list(frozen_prune(weights, valid, 0.5)[0])
            else:
                weights, valid = strong_cycle_chain(n, back)
                want = [(i, i + 1) for i in range(n + 1)]
            frames[0] = 0
            searches.clear()
            edges = decode._prune(weights, valid, 0.5)[0]
            assert list(edges) == want
            assert frames[0] <= 2 * ((n + 2) + int(valid.sum())), (n, frames[0])
            assert len(searches) <= n + 1, (n, len(searches))


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

    def test_decode_operation_counts(self, vocab, monkeypatch):
        """Decoding the benchmark's default profiles never builds the dense
        edge dict nor prunes through it, takes the path from pruning's
        lists without `longest_path` or a second edge-end check, and makes
        one depth-first search, which meets exactly one cycle per removed
        cycle edge."""

        def refuse(*args, **kwargs):
            raise AssertionError("dict-based stage on the decode path")

        for name in ("build_graph", "prune_and_acyclify", "longest_path", "_check_graph"):
            monkeypatch.setattr(decode, name, refuse)
        searches, cycles, cuts = [], [], []
        acyclic_order = decode._acyclic_order

        def recorded(succ, cut):
            searches.append(succ)

            def counted(cycle):
                cycles.append(cycle)
                cuts.append(cut(cycle))
                return cuts[-1]

            return acyclic_order(succ, counted)

        monkeypatch.setattr(decode, "_acyclic_order", recorded)
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        removed_total = 0
        for k, sample in enumerate(bench_samples(vocab, profiles, 100, 80000)):
            for seen in (searches, cycles, cuts):
                seen.clear()
            result, pruned = decode_with_graph(sample.probs, sample.self_probs,
                                               sample.left, sample.right, vocab)
            # Every cycle edge missing from the kept edges was removed by
            # the cycle phase, which removes one edge per cycle it meets.
            removed = {e for cycle in cycles for e in cycle} - pruned.edges.keys()
            assert len(searches) == 1, f"sample {k}"
            assert len(cycles) == len(removed) == len(set(cuts)), f"sample {k}"
            assert set(cuts) == removed, f"sample {k}"
            removed_total += len(removed)
            if k % 5 == 0:  # quiet
                assert result.latex == emit_latex(sample.seq, vocab)
        assert removed_total > 0  # some profile breaks cycles

    def test_decode_builds_each_node_once(self, vocab, monkeypatch):
        """Decoding the benchmark's default profiles builds a Node only for
        a node that survives corrections, and never through the public
        stage functions."""
        built = 0

        class CountedNode(Node):
            def __new__(cls, *args, **kwargs):
                nonlocal built
                built += 1
                return super().__new__(cls, *args, **kwargs)

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
        per-id checked lookup."""
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        samples = list(bench_samples(vocab, profiles, 100, 90000))
        quiet = [emit_latex(s.seq, vocab) for s in samples[::5]]

        def refuse(*args, **kwargs):
            raise AssertionError("per-id vocabulary lookup on the decode path")

        monkeypatch.setattr(TokenVocab, "symbol_of", refuse)
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

    @pytest.mark.parametrize("edges", [
        {(2, 3): 1.0, (3, 2): 1.0, (0, 1): 1.0, (1, 4): 1.0},  # off every start path
        {(3, 2): 1.0, (2, 3): 1.0, (1, 2): 1.0, (3, 4): 1.0, (0, 1): 1.0},  # on it, listed backwards
        {(0, 1): 1.0, (1, 1): 1.0, (1, 4): 1.0},  # a self-loop
    ], ids=["unreached", "reached", "self_loop"])
    def test_cycle_detected_anywhere(self, vocab, edges):
        nodes = {i: Node(0, 0, i, index=i) for i in (1, 2, 3)}
        with pytest.raises(CycleDetected):
            longest_path(ExprGraph(nodes, edges, n_slots=3), vocab)

    def test_insertion_order_changes_nothing(self, vocab):
        """The same edges inserted in another order give the same path,
        weight and LaTeX, on dyadic weights and on tie-heavy ones."""
        rng = random.Random(20261019)
        connected = 0
        for trial in range(400):
            g = random_dag(rng, vocab)
            if trial % 2:
                g.edges.update((e, rng.choice([0.5, 1.0])) for e in g.edges)
            items = list(g.edges.items())
            rng.shuffle(items)
            shuffled = ExprGraph(g.nodes, dict(items), g.n_slots)
            try:
                want = longest_path(g, vocab)
            except NoPath:
                with pytest.raises(NoPath):
                    longest_path(shuffled, vocab)
                continue
            got = longest_path(shuffled, vocab)
            connected += 1
            assert (got.path, repr(got.weight), got.latex) == (
                want.path, repr(want.weight), want.latex
            ), f"trial {trial}"
        assert connected > 200

    def test_renders_latex(self, vocab):
        frac, x, y = vocab.id_of("\\frac"), vocab.id_of("x"), vocab.id_of("y")
        nodes = expand_imaginary(plain_nodes(vocab, [frac, x, y]), vocab)
        graph_nodes = {n.index: n for n in nodes}
        chain = [0, 1, 4, 2, 5, 3, len(nodes) + 1]  # frac x END y END
        edges = {e: 1.0 for e in zip(chain, chain[1:])}
        got = longest_path(ExprGraph(graph_nodes, edges, n_slots=len(nodes)), vocab)
        assert got.latex == "\\frac { x } { y }"

    def test_bracket_ending_sqrt_index_renders(self, vocab):
        # sqrt ] END x END: the only nesting makes `]` the whole index, which
        # LaTeX cannot spell; the repair drops it and the index stays, empty.
        cids = [vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.end_id, vocab.id_of("x"), vocab.end_id]
        nodes = {i: Node(cid, 0, i, index=i) for i, cid in enumerate(cids, 1)}
        chain = range(len(cids) + 2)
        edges = {e: 1.0 for e in zip(chain, chain[1:])}
        got = longest_path(ExprGraph(nodes, edges, n_slots=len(cids)), vocab)
        assert (got.path, got.latex) == (list(chain), "\\sqrt [ ] { x }")
        assert parse_latex(got.latex, vocab) == [cids[0], *cids[2:]]


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

    def test_drops_bracket_ending_sqrt_index(self, vocab):
        sq, br, a, b, x = (vocab.id_of(s) for s in ("\\sqrt", "]", "a", "b", "x"))
        end = vocab.end_id
        cases = [
            # The whole index.
            ([sq, br, end, x, end], [sq, end, x, end], "\\sqrt [ ] { x }"),
            # Two strays in one index, and one in each of two indexes.
            ([sq, a, br, b, br, end, x, end], [sq, a, b, end, x, end], "\\sqrt [ a b ] { x }"),
            ([sq, br, end, x, end, sq, br, a, end, b, end], [sq, end, x, end, sq, a, end, b, end],
             "\\sqrt [ ] { x } \\sqrt [ a ] { b }"),
        ]
        for seq, fixed, latex in cases:
            with pytest.raises(IllNested, match=r"'\]' at position"):
                emit_latex(seq, vocab)
            assert repair_groups(seq, vocab) == fixed
            assert emit_latex(fixed, vocab) == latex
            assert parse_latex(latex, vocab) == fixed

    def test_matches_one_walk_per_stray(self, vocab):
        """On seeded random id strings, with none, <sos> and <eos> ids
        among them, the repair equals the loop it replaced, which walked
        once per stray ``]`` and dropped the one `emit_latex` named."""

        def reference(seq):
            lo = hi = 0
            out = []
            for cid in seq:
                a, h = vocab.step_table[cid]
                if hi + h >= 0:
                    lo, hi = max(lo + a, 0), hi + h
                    out.append(cid)
            out.extend([vocab.end_id] * lo)
            while vocab.sqrt_id in out and vocab.bracket_id in out:
                try:
                    emit_latex(out, vocab)
                except IllNested as err:
                    if err.position is not None:
                        del out[err.position]
                        continue
                break
            return out

        sq, br, end = vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.end_id
        pool = [sq, sq, br, br, br, end, end, end]
        rng = random.Random(20261019)
        several = after_fault = 0
        for _ in range(3000):
            seq = [rng.choice(pool + [rng.randrange(vocab.num_predictable)])
                   for _ in range(rng.randint(1, 40))]
            if rng.random() < 0.2:
                seq.insert(rng.randrange(len(seq) + 1), rng.choice(range(vocab.none_id, len(vocab))))
            want = reference(seq)
            assert repair_groups(seq, vocab) == want, seq
            dropped = seq.count(br) - want.count(br)
            several += dropped >= 2
            after_fault += dropped >= 1 and max(want) >= vocab.none_id
        assert several >= 100 and after_fault >= 10, (several, after_fault)


class TestWalkCounts:
    """`tokens._walk` resolves the groups of a sequence and spells it.
    Resolving or rendering walks once.  The repair walks a result that
    holds both \\sqrt and `]` once, however many `]` it drops."""

    def test_resolve_and_emit_walk_once(self, vocab, monkeypatch):
        sq, br, x, end = vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.id_of("x"), vocab.end_id
        seqs = [parse_latex(s, vocab) for s in coverage_corpus()]
        walks = count_calls(monkeypatch, "_walk", tokens)
        for entry in (group_structure, emit_latex):
            for seq in seqs:
                walks.clear()
                entry(seq, vocab)
                assert len(walks) == 1, (entry, seq)
            for bad in ([sq, br, end, x, end], [end], [sq, x]):
                walks.clear()
                with pytest.raises(IllNested):
                    entry(bad, vocab)
                assert len(walks) == 1

    def test_render_walks(self, vocab, monkeypatch):
        """A path renders in one walk plus the repair's, through
        `longest_path` on chains of random ids and through the decode of
        the benchmark's default profiles.  The repair changes only ENDs
        before its walk, so the path's ids tell whether it walks."""
        sq, br = vocab.id_of("\\sqrt"), vocab.id_of("]")

        def expected(seq):
            dropped = seq.count(br) - repair_groups(seq, vocab).count(br)
            return 1 + (sq in seq and br in seq), dropped

        def chain_of(cids):
            nodes = {i: Node(cid, 0, i, index=i) for i, cid in enumerate(cids, 1)}
            chain = range(len(cids) + 2)
            edges = {e: 1.0 for e in zip(chain, chain[1:])}
            return ExprGraph(nodes, edges, n_slots=len(cids))

        rng = random.Random(20261019)
        pool = [sq, sq, br, br, vocab.end_id, vocab.end_id, vocab.end_id]
        chains, dropped_total = [], 0
        for _ in range(1500):
            cids = [rng.choice(pool + [rng.randrange(vocab.num_predictable)])
                    for _ in range(rng.randint(1, 14))]
            want, dropped = expected(cids)
            chains.append((chain_of(cids), want))
            dropped_total += dropped
        assert dropped_total >= 100
        # A whole index of strays, up to as many as a 14x56 grid has cells.
        for k in (1, 10, 780):
            cids = [sq, *[br] * k, vocab.end_id, vocab.id_of("x"), vocab.end_id]
            assert expected(cids) == (2, k)
            chains.append((chain_of(cids), 2))
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        decodes = []
        for sample in bench_samples(vocab, profiles, 100, 95000):
            result, pruned = decode_with_graph(sample.probs, sample.self_probs,
                                               sample.left, sample.right, vocab)
            path = [pruned.nodes[i].class_id for i in result.path[1:-1]]
            decodes.append((sample, expected(path)[0]))

        walks = count_calls(monkeypatch, "_walk", tokens)
        for graph, want in chains:
            walks.clear()
            longest_path(graph, vocab)
            assert len(walks) == want, graph.nodes
        for sample, want in decodes:
            walks.clear()
            decode_with_graph(sample.probs, sample.self_probs, sample.left, sample.right, vocab)
            assert len(walks) == want


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

    def test_decode_names_faults_in_argument_order(self, vocab):
        """Of several faults, the first in the documented order is named: P,
        self_probs, the alphas, left, right, epsilon.  A NaN correction row
        is named before a left matrix one node short."""
        sample = make_sample("x + 1", vocab, (8, 16))

        def nan_at(a, where):
            a = a.copy()
            a[where] = np.nan
            return a

        faults = [
            ("P", nan_at(sample.probs, (0, 0, 0)), NonFinite, "grid: nan"),
            ("self_probs", nan_at(sample.self_probs, (1, 0)), NonFinite, "correction rows: nan"),
            ("alpha_l2r", math.nan, NonFinite, "alpha_l2r is nan"),
            ("alpha_r2l", math.nan, NonFinite, "alpha_r2l is nan"),
            ("left", sample.left[:-1, :-1], NodeCountMismatch, "left neighbor scores has shape"),
            ("right", nan_at(sample.right, (2, 1)), NonFinite, "right neighbor scores: nan"),
            ("epsilon", math.nan, NonFinite, "epsilon is nan"),
        ]
        valid = dict(P=sample.probs, self_probs=sample.self_probs, left=sample.left,
                     right=sample.right, vocab=vocab)
        for k, (_, _, error, message) in enumerate(faults):
            planted = {name: value for name, value, _, _ in faults[k:]}
            with pytest.raises(error) as exc:
                decode_with_graph(**{**valid, **planted})
            assert type(exc.value) is error and str(exc.value).startswith(message), k

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


class TestNonFiniteWeights:
    """A NaN or infinite weight is named where it enters, not met later as
    an unreachable end or decoded as if it were a number."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha_l2r", "alpha_r2l"])
    def test_alpha(self, vocab, name, value):
        sample = make_sample("x + 1", vocab, (8, 16))
        with pytest.raises(NonFinite, match=f"^{name} is {value}") as exc:
            decode_with_graph(sample.probs, sample.self_probs, sample.left, sample.right,
                              vocab, **{name: value})
        assert exc.value.index is None
        nodes = expand_imaginary(vat_extract(sample.probs, vocab), vocab)
        with pytest.raises(NonFinite, match=f"^{name} is {value}"):
            build_graph(nodes, sample.left, sample.right, **{name: value})

    def test_epsilon(self, vocab):
        """A NaN threshold makes no edge weak; an infinite one makes every
        edge weak, which pruning handles."""
        sample = make_sample("x + 1", vocab, (8, 16))
        args = (sample.probs, sample.self_probs, sample.left, sample.right, vocab)
        graph = build_graph(expand_imaginary(vat_extract(sample.probs, vocab), vocab),
                            sample.left, sample.right)
        with pytest.raises(NonFinite, match="^epsilon is nan"):
            decode_with_graph(*args, epsilon=np.nan)
        with pytest.raises(NonFinite, match="^epsilon is nan"):
            prune_and_acyclify(graph, epsilon=np.nan)
        assert decode_with_graph(*args, epsilon=np.inf)[0].latex == "x + 1"
        assert decode_with_graph(*args, epsilon=-np.inf)[0].latex == "x + 1"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_hand_built_edge(self, vocab, value):
        x = vocab.id_of("x")
        nodes = {1: Node(x, 0, 0, 1), 2: Node(x, 0, 1, 2)}
        edges = {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1, (2, 3): 0.7, (1, 3): 0.2}
        edges[(0, 2)] = value
        graph = ExprGraph(nodes, edges, n_slots=2)
        for read in (lambda: prune_and_acyclify(graph), lambda: longest_path(graph, vocab)):
            with pytest.raises(NonFinite, match=re.escape(f"edge (0, 2): weight {value}")) as exc:
                read()
            assert exc.value.index == 2


class TestGridFiniteness:
    """A probability grid is proven finite by unsigned maxima, the none
    channel's and then the symbol channels', and is never scanned; any
    other float grid is scanned once, and a fault is named at its first
    place in row-major order, whichever read finds it."""

    def scans(self, monkeypatch):
        """Every call of the scan, from the gate or from extraction."""
        found = [count_calls(monkeypatch, "scan_finite", module) for module in (errors, decode)]
        return lambda: sum(map(len, found))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [("symbol",), ("none",), ("none", "symbol")])
    def test_planted_fault_named(self, vocab, channels, value):
        sample = make_sample("x + 1", vocab, (8, 16))
        P = sample.probs.copy()
        places = {"symbol": (vocab.id_of("x"), 5, 9), "none": (vocab.none_id, 2, 3)}
        marked = np.zeros(P.shape, dtype=bool)
        for channel in channels:
            P[places[channel]] = value
            marked[places[channel]] = True
        first = int(np.flatnonzero(marked)[0])  # a symbol channel's, when both hold one
        with pytest.raises(NonFinite) as exc:
            decode_with_graph(P, sample.self_probs, sample.left, sample.right, vocab)
        assert exc.value.index == first
        assert str(exc.value) == f"grid: {value} at flat index {first}"

    def test_decode_mix_never_scans(self, vocab, monkeypatch):
        scans = self.scans(monkeypatch)
        profiles = [NoiseSpec(), NoiseSpec(flip_prob=0.1), NoiseSpec(spurious_prob=0.02),
                    NoiseSpec(score_temperature=0.3), NoiseSpec(conn_flip_prob=0.1)]
        for sample in bench_samples(vocab, profiles, 100, 95000):
            decode_with_graph(sample.probs, sample.self_probs, sample.left, sample.right, vocab)
        assert scans() == 0

    def test_train_chain_never_scans(self, vocab, monkeypatch):
        """The training chain on teacher inputs mixed with a uniform floor,
        as a detector's softmax gives them."""

        def floor(m, axis):
            return ((1.0 - 1e-3) * m + 1e-3 / m.shape[axis]).astype(np.float32)

        scans = self.scans(monkeypatch)
        for seed in range(20):
            try:
                latex = gen_expression(seed, max_depth=3, vocab=vocab)
                sample = make_sample(latex, vocab, (24, 160), NoiseSpec(flip_prob=0.1), seed)
            except GridTooSmall:
                continue
            seq, P = sample.seq, floor(sample.probs, 0)
            positions = estimate_positions(sample.attn, seq, vocab)
            cost = build_cost(P, positions, seq, vocab)
            target = make_targets(hungarian(cost), seq, vocab, *P.shape[1:])
            loss_vat(P, target.grid)
            sp, left, right = (floor(m, 1) for m in teacher_matrices(seq, vocab))
            loss_pgd(sp, left, right, (target.self_targets, target.left_targets,
                                       target.right_targets))
        assert scans() == 0

    def test_logits_scanned_once_integers_never(self, vocab, monkeypatch):
        scans = self.scans(monkeypatch)
        logits = np.random.default_rng(5).normal(size=(vocab.grid_classes, 14, 56))
        logits = logits.astype(np.float32)
        assert vat_extract(logits, vocab) == loop_vat_extract(logits, vocab)
        assert scans() == 1
        ints = np.random.default_rng(6).integers(0, 3, (vocab.grid_classes, 14, 56))
        assert vat_extract(ints, vocab) == loop_vat_extract(ints, vocab)
        assert scans() == 1


BAD_VALUES =st.sampled_from([np.nan, np.inf, -np.inf])


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
