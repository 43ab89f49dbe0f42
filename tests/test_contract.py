"""The input contract of every exported callable.

Each call below replaces one argument of a valid call with a value drawn
from a fixed table of strategies (lists, 0-d arrays, object, string,
complex and bool dtypes, non-contiguous views, NaN and infinities, and
scalars of the wrong type).  It must end in one of three ways: an
``HmeGraphError`` subclass, a builtin that the policy in ``errors.py``
names (``OSError`` from the file system), or a well-formed result: LaTeX
that parses back, or a value of the documented type.  A list or a view
where an array is expected must meet the outcome the array itself meets.

Arguments of the package's own types (a vocabulary, nodes, a noise spec)
are passed valid: the policy leaves a stand-in for one of them to fail
where it is read.  A hand-built graph's edge weights are varied, since
both graph readers check them.  The table calls nothing at random.
"""

import math

import numpy as np
import pytest

import hmegraph
from hmegraph import HmeGraphError, NoiseSpec, PgdLoss, default_vocab, emit_latex, parse_latex
from hmegraph.decode import ExprGraph, Node, PathResult
from hmegraph.tokens import TokenVocab

VOCAB = default_vocab()
LABEL = "\\frac { x } { 2 } + y"
SAMPLE = hmegraph.make_sample(LABEL, VOCAB, (4, 8))
SEQ = SAMPLE.seq
TEACHER = hmegraph.teacher_matrices(SEQ, VOCAB)
X = VOCAB.id_of("x")


def graph(weight=0.9):
    """A small hand-built graph whose edge (0, 2) has weight `weight`."""
    nodes = {1: Node(X, 0, 0, 1), 2: Node(X, 0, 1, 2)}
    edges = {(0, 1): 0.9, (1, 2): 0.8, (0, 2): weight, (2, 3): 0.7, (1, 3): 0.2}
    return ExprGraph(nodes, edges, n_slots=2)


def keyed(key):
    """graph() with one more edge, under `key`."""
    g = graph()
    return ExprGraph(g.nodes, {**g.edges, key: 0.5}, g.n_slots)


def nodes():
    return hmegraph.expand_imaginary(hmegraph.vat_extract(SAMPLE.probs, VOCAB), VOCAB)


# --- argument strategies, by the kind of argument --------------------------

class Strategies(dict):
    """Values to try for one argument, by label.  `base` is the valid value
    they were drawn from: a strategy in SAME_AS_BASE must meet its outcome."""

    def __init__(self, values, base=None):
        super().__init__(values)
        self.base = base


SAME_AS_BASE = ("list", "tuple", "array", "view")


def array_strategies(a):
    a = np.asarray(a)
    first = (0,) * a.ndim
    planted = {}
    if a.size:
        for value in (math.nan, math.inf, -math.inf):
            planted[f"{value}"] = b = a.astype(np.float64)
            b[first] = value
    return Strategies({
        "list": a.tolist(),
        "0-d": np.array(0.5),
        "object": a.astype(object),
        "string": a.astype(str),
        "complex": a.astype(complex),
        "bool": a.astype(bool),
        "view": np.repeat(a, 2, axis=-1)[..., ::2] if a.ndim else a,
        **planted,
        "str scalar": "0.5",
        "None": None,
    }, base=a)


def id_strategies(ids):
    return Strategies({
        "list": list(ids),
        "tuple": tuple(ids),
        "array": np.asarray(ids),
        "0-d": np.array(1),
        "object": np.asarray(ids, dtype=object),
        "string": ["x"] * max(len(ids), 1),
        "complex": [1 + 0j] * max(len(ids), 1),
        "bool": [True] * max(len(ids), 1),
        "float": [1.5] * max(len(ids), 1),
        "nan": [math.nan] * max(len(ids), 1),
        "str scalar": "abc",
        "None": None,
        "int scalar": 5,
    }, base=ids)


def pair_strategies(pairs):
    return Strategies({**id_strategies(pairs), "ragged": [(0, 0), (1, 2, 3)],
                       "float pair": [(1.5, 2)]}, base=pairs)


REAL = {"str": "0.5", "None": None, "complex": 1 + 2j, "0-d": np.array(0.5), "nan": math.nan,
        "inf": math.inf, "-inf": -math.inf, "list": [0.5], "numpy": np.float32(0.5)}
INTEGER = {"str": "3", "None": None, "float": 2.5, "0-d": np.array(3), "complex": 3 + 0j,
           "nan": math.nan, "numpy": np.int64(3), "list": [3]}
TEXT = {"None": None, "int": 5, "list": ["x"], "bytes": b"x", "0-d": np.array("x")}
TEXTS = {"0-d": np.array("x"), "None": None, "ints": [1, 2], "with None": ["x", None],
         "str scalar": "x + 1", "array": np.array(["x", "y"])}
PATHS = {"None": None, "float": 5.5, "list": ["a"], "missing": "missing"}


def arrays(**named):
    return {name: array_strategies(a) for name, a in named.items()}


# --- the table: each exported callable, a valid call, and what to vary -----

def _entry(call, vary=None, check=None):
    return {"call": call, "vary": vary or {}, "check": check}


def _decode_args():
    return dict(P=SAMPLE.probs, self_probs=SAMPLE.self_probs, left=SAMPLE.left,
                right=SAMPLE.right, vocab=VOCAB)


def _parses_back(latex):
    assert emit_latex(parse_latex(latex, VOCAB), VOCAB) == latex


def _well_formed(result):
    """The default check: any LaTeX the result carries parses back."""
    if isinstance(result, tuple) and result and isinstance(result[0], PathResult):
        result = result[0]
    if isinstance(getattr(result, "latex", None), str):
        _parses_back(result.latex)


def _path(tmp, path):
    """`path`, with "ok" and "missing" standing for paths under `tmp`."""
    if isinstance(path, str) and path == "ok":
        return str(tmp / "t.namt")
    if isinstance(path, str) and path == "missing":
        return str(tmp / "no" / "such" / "t.namt")
    return path


TABLE = {
    # decode
    "decode_with_graph": _entry(
        lambda tmp, **kw: hmegraph.decode_with_graph(**{**_decode_args(), **kw}),
        {**arrays(P=SAMPLE.probs, self_probs=SAMPLE.self_probs, left=SAMPLE.left,
                  right=SAMPLE.right),
         "epsilon": REAL, "alpha_l2r": REAL, "alpha_r2l": REAL}),
    "vat_extract": _entry(lambda tmp, P=SAMPLE.probs: hmegraph.vat_extract(P, VOCAB),
                          arrays(P=SAMPLE.probs)),
    "expand_imaginary": _entry(lambda tmp: hmegraph.expand_imaginary(
        hmegraph.vat_extract(SAMPLE.probs, VOCAB), VOCAB)),
    "apply_corrections": _entry(
        lambda tmp, self_probs=SAMPLE.self_probs: hmegraph.apply_corrections(
            nodes(), self_probs, VOCAB),
        arrays(self_probs=SAMPLE.self_probs)),
    "build_graph": _entry(
        lambda tmp, left=SAMPLE.left, right=SAMPLE.right, alpha_l2r=1.0, alpha_r2l=1.0:
            hmegraph.build_graph(nodes(), left, right, alpha_l2r, alpha_r2l),
        {**arrays(left=SAMPLE.left, right=SAMPLE.right), "alpha_l2r": REAL, "alpha_r2l": REAL}),
    "prune_and_acyclify": _entry(
        lambda tmp, weight=0.9, epsilon=0.5: hmegraph.prune_and_acyclify(graph(weight), epsilon),
        {"weight": {**REAL, "bool": True}, "epsilon": {**REAL, "inf": math.inf}}),
    "longest_path": _entry(lambda tmp, weight=0.9: hmegraph.longest_path(
        hmegraph.prune_and_acyclify(graph(0.9)) if weight == 0.9 else graph(weight), VOCAB),
        {"weight": REAL}),
    "ExprGraph": _entry(lambda tmp: graph()),
    "Node": _entry(lambda tmp: Node(X, 0, 0)),
    "PathResult": _entry(lambda tmp: PathResult([0, 1], 1.0, "x")),
    # assignment
    "estimate_positions": _entry(
        lambda tmp, attn=SAMPLE.attn, label=SEQ: hmegraph.estimate_positions(attn, label, VOCAB),
        {**arrays(attn=SAMPLE.attn), "label": id_strategies(SEQ)}),
    "build_cost": _entry(
        lambda tmp, P=SAMPLE.probs, positions=None, label=SEQ, km=3: hmegraph.build_cost(
            P, hmegraph.estimate_positions(SAMPLE.attn, SEQ, VOCAB) if positions is None
            else positions, label, VOCAB, km),
        {**arrays(P=SAMPLE.probs), "label": id_strategies(SEQ),
         "positions": pair_strategies(hmegraph.estimate_positions(SAMPLE.attn, SEQ, VOCAB)),
         "km": INTEGER}),
    "hungarian": _entry(lambda tmp, cost=np.eye(3, 5): hmegraph.hungarian(cost),
                        arrays(cost=np.eye(3, 5))),
    "make_targets": _entry(
        lambda tmp, assignment=None, label=SEQ, height=4, width=8: hmegraph.make_targets(
            [(0, 0), (1, 9), (2, 2), (3, 3), (4, 4)] if assignment is None else assignment,
            label, VOCAB, height, width),
        {"assignment": pair_strategies([(0, 0), (1, 9), (2, 2), (3, 3), (4, 4)]),
         "label": id_strategies(SEQ), "height": INTEGER, "width": INTEGER}),
    "loss_vat": _entry(
        lambda tmp, P=SAMPLE.probs, target_grid=SAMPLE.probs.argmax(axis=0): hmegraph.loss_vat(
            P, target_grid),
        {**arrays(P=SAMPLE.probs, target_grid=SAMPLE.probs.argmax(axis=0))}),
    "loss_pgd": _entry(
        lambda tmp, self_probs=TEACHER[0], left=TEACHER[1], right=TEACHER[2], targets=None:
            hmegraph.loss_pgd(self_probs, left, right,
                              hmegraph.gt_targets(SEQ) if targets is None else targets),
        {**arrays(self_probs=TEACHER[0], left=TEACHER[1], right=TEACHER[2]),
         "targets": {**id_strategies(hmegraph.gt_targets(SEQ)),
                     "ragged": (SEQ, SEQ[:-1], SEQ)}}),
    "loss_total": _entry(lambda tmp, vat=0.5, lam=0.5: hmegraph.loss_total(
        vat, PgdLoss(0.1, 0.2, 0.3), lam), {"vat": REAL, "lam": REAL}),
    "AssignmentTarget": _entry(lambda tmp: hmegraph.AssignmentTarget(
        np.zeros((1, 1)), [], [], [], [])),
    "PgdLoss": _entry(lambda tmp: PgdLoss(0.1, 0.2, 0.3)),
    # tokens
    "parse_latex": _entry(lambda tmp, s=LABEL: parse_latex(s, VOCAB), {"s": TEXT}),
    "emit_latex": _entry(lambda tmp, seq=SEQ: emit_latex(seq, VOCAB),
                         {"seq": id_strategies(SEQ)}, _parses_back),
    "group_structure": _entry(lambda tmp, seq=SEQ: hmegraph.group_structure(seq, VOCAB),
                              {"seq": id_strategies(SEQ)}),
    "gt_targets": _entry(lambda tmp, seq=SEQ: hmegraph.gt_targets(seq),
                         {"seq": id_strategies(SEQ)}),
    "build_vocab": _entry(lambda tmp, corpus=(LABEL,): hmegraph.build_vocab(corpus),
                          {"corpus": TEXTS}),
    "TokenVocab": _entry(lambda tmp, symbols=None: TokenVocab(
        VOCAB.symbols if symbols is None else symbols),
        {"symbols": {**TEXTS, "brace": ["{", "<none>", "}", "<sos>", "<eos>"],
                     "space": ["a b", "<none>", "}", "<sos>", "<eos>"],
                     "empty": ["", "<none>", "}", "<sos>", "<eos>"]}}),
    # tensor_io
    "write_tensor": _entry(lambda tmp, tensor=SAMPLE.left, path="ok": hmegraph.write_tensor(
        tensor, _path(tmp, path)), {**arrays(tensor=SAMPLE.left), "path": PATHS}),
    "read_tensor": _entry(lambda tmp, path=None: hmegraph.read_tensor(
        _written(tmp) if path is None else _path(tmp, path)), {"path": PATHS}),
    "export_dot": _entry(lambda tmp, highlight=(0, 1, 2, 3): hmegraph.export_dot(
        graph(), VOCAB, highlight), {"highlight": id_strategies([0, 1, 2, 3])}),
    # metrics
    "token_edit_distance": _entry(lambda tmp, a=SEQ, b=SEQ[:-1]: hmegraph.token_edit_distance(
        a, b), {"a": id_strategies(SEQ), "b": id_strategies(SEQ)}),
    "evaluate": _entry(lambda tmp, preds=(LABEL,), refs=(LABEL,): hmegraph.evaluate(
        preds, refs, VOCAB), {"preds": TEXTS, "refs": TEXTS}),
    "EvalReport": _entry(lambda tmp: hmegraph.EvalReport(1.0, 1.0, 1.0, 1, [0])),
    # synth
    "gen_expression": _entry(lambda tmp, seed=3, max_depth=2: hmegraph.gen_expression(
        seed, max_depth), {"seed": INTEGER, "max_depth": INTEGER}, _parses_back),
    "layout_and_render": _entry(lambda tmp, seq=SEQ, grid_dims=(4, 8), seed=0:
                                hmegraph.layout_and_render(seq, grid_dims, VOCAB, seed=seed),
                                {"seq": id_strategies(SEQ), "grid_dims": id_strategies((4, 8)),
                                 "seed": INTEGER}),
    "make_sample": _entry(lambda tmp, latex=LABEL, grid_dims=(4, 8), seed=0: hmegraph.make_sample(
        latex, VOCAB, grid_dims, seed=seed),
        {"latex": TEXT, "grid_dims": {**id_strategies((4, 8)), "text": "10x24"},
         "seed": INTEGER}),
    "teacher_matrices": _entry(lambda tmp, seq=SEQ: hmegraph.teacher_matrices(seq, VOCAB),
                               {"seq": id_strategies(SEQ)}),
    "coverage_corpus": _entry(lambda tmp: hmegraph.coverage_corpus()),
    "default_vocab": _entry(lambda tmp: default_vocab()),
    "NoiseSpec": _entry(lambda tmp: NoiseSpec(flip_prob=0.1)),
    "SynthSample": _entry(lambda tmp: SAMPLE._replace()),
    "oracle_hungarian": _entry(lambda tmp, cost=np.eye(2, 3): hmegraph.oracle_hungarian(cost),
                               arrays(cost=np.eye(2, 3))),
    "oracle_longest_path": _entry(lambda tmp: hmegraph.oracle_longest_path(graph())),
    "oracle_prune": _entry(lambda tmp, epsilon=0.5: hmegraph.oracle_prune(graph(), epsilon),
                           {"epsilon": {**REAL, "inf": math.inf}}),
    "oracle_edit": _entry(lambda tmp, a=SEQ[:4], b=SEQ[:3]: hmegraph.oracle_edit(a, b),
                          {"a": id_strategies(SEQ[:4]), "b": id_strategies(SEQ[:3])}),
}


def _written(tmp):
    path = str(tmp / "r.namt")
    hmegraph.write_tensor(SAMPLE.left, path)
    return path


ERROR_CLASSES = [
    name for name in hmegraph.__all__
    if isinstance(getattr(hmegraph, name), type)
    and issubclass(getattr(hmegraph, name), HmeGraphError)
]
for _name in ERROR_CLASSES:
    # An exception class stores whatever it is given; its message formats
    # any value.
    TABLE[_name] = _entry(lambda tmp, _cls=getattr(hmegraph, _name), message="m":
                          _cls(*{"UnbalancedBraces": ("s", 1),
                                 "NonStochasticRow": (1, 0.5)}.get(_cls.__name__, (message,))),
                          {"message": {"None": None, "int": 5, "array": np.zeros(2)}})


def test_table_covers_every_exported_callable():
    exported = {name for name in hmegraph.__all__ if callable(getattr(hmegraph, name))}
    assert set(TABLE) == exported


def canon(value):
    """A comparable form of a result: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if hasattr(value, "_fields") and not isinstance(value, type):  # a record
        return (type(value).__name__, canon(value._asdict()))
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (list if isinstance(value, list) else tuple)(canon(v) for v in value)
    if isinstance(value, TokenVocab):
        return ("vocab", tuple(value.symbols))
    return value


def outcome(name, tmp, **kw):
    """("raised", class name) or ("ok", canonical result); any other
    exception fails the test."""
    entry = TABLE[name]
    try:
        result = entry["call"](tmp, **kw)
    except HmeGraphError as err:
        return "raised", type(err).__name__
    except OSError as err:  # the file system's own faults stay builtin
        return "os", type(err).__name__
    (entry["check"] or _well_formed)(result)
    return "ok", canon(result)


CASES = [(name, arg, label) for name, entry in sorted(TABLE.items())
         for arg, strategies in sorted(entry["vary"].items()) for label in strategies]


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_call_succeeds(name, tmp_path):
    assert outcome(name, tmp_path)[0] == "ok"


@pytest.mark.parametrize("name, arg, label", CASES)
def test_strategy_meets_the_contract(name, arg, label, tmp_path):
    strategies = TABLE[name]["vary"][arg]
    got = outcome(name, tmp_path, **{arg: strategies[label]})
    assert got[0] != "os" or label == "missing", got
    if label in SAME_AS_BASE and getattr(strategies, "base", None) is not None:
        assert got == outcome(name, tmp_path, **{arg: strategies.base})


@pytest.mark.parametrize("call", [
    lambda: hmegraph.decode_with_graph(SAMPLE.probs.astype(object), *_decode_rest()),
    lambda: hmegraph.decode_with_graph(SAMPLE.probs.astype(complex), *_decode_rest()),
    lambda: hmegraph.decode_with_graph(SAMPLE.probs, *_decode_rest(), epsilon="0.5"),
    lambda: hmegraph.decode_with_graph(SAMPLE.probs, *_decode_rest(), alpha_l2r=None),
    lambda: hmegraph.hungarian(np.eye(2, 3, dtype=complex)),
    lambda: hmegraph.hungarian(np.eye(2, 3).astype(str)),
    lambda: emit_latex([1.5], VOCAB),
    lambda: emit_latex(["x"], VOCAB),
    lambda: parse_latex(None, VOCAB),
    lambda: hmegraph.write_tensor(np.array(["1.5", "2"]), "unused.namt"),
    lambda: hmegraph.make_sample(LABEL, VOCAB, grid_dims="10x24"),
    lambda: hmegraph.gt_targets("abc"),
    lambda: hmegraph.longest_path(graph("0.9"), VOCAB),
    lambda: hmegraph.longest_path(keyed((2, 1.0)), VOCAB),
    lambda: hmegraph.prune_and_acyclify(keyed((2, 1.0))),
    lambda: hmegraph.longest_path(keyed((0, 1, 2)), VOCAB),
    lambda: hmegraph.prune_and_acyclify(keyed((0, 1, 2))),
    lambda: hmegraph.export_dot(graph("0.9"), VOCAB),
    lambda: hmegraph.longest_path(
        ExprGraph({1: Node(VOCAB.id_of("<sos>"), 0, 0, 1)}, {(0, 1): 0.9, (1, 2): 0.9}, 1), VOCAB),
], ids=["object P", "complex P", "str epsilon", "None alpha", "complex cost", "str cost",
        "float id", "str id", "None latex", "str tensor", "str grid", "str label",
        "str weight", "float key path", "float key prune", "triple key path",
        "triple key prune", "str weight dot", "reserved class path"])
def test_named_fault(call):
    """Each of these once raised a builtin error, was accepted, or raised
    a fault its docstring did not name (a path through a reserved class,
    which has no LaTeX spelling: IllNested)."""
    with pytest.raises(HmeGraphError):
        call()


def _decode_rest():
    return SAMPLE.self_probs, SAMPLE.left, SAMPLE.right, VOCAB
