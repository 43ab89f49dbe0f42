"""Expression-level metrics: edit distance and corpus scoring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmegraph import (
    EmptyInput,
    LengthMismatch,
    UnbalancedBraces,
    evaluate,
    oracle_edit,
    token_edit_distance,
)
from hmegraph.metrics import UNPARSEABLE

short_seq = st.lists(st.integers(0, 5), max_size=10)


class TestEditDistance:
    def test_frozen_cases(self):
        assert token_edit_distance([], []) == 0
        assert token_edit_distance([1, 2, 3], [1, 2, 3]) == 0
        assert token_edit_distance([1, 2, 3], [1, 3]) == 1
        assert token_edit_distance([1, 2], [1, 2, 3, 4]) == 2
        assert token_edit_distance([1, 2, 3], [4, 5, 6]) == 3
        assert token_edit_distance([], [7, 8]) == 2

    def test_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            a = [rng.randrange(4) for _ in range(rng.randrange(9))]
            b = [rng.randrange(4) for _ in range(rng.randrange(9))]
            assert token_edit_distance(a, b) == oracle_edit(a, b)

    @settings(max_examples=150, deadline=None)
    @given(a=short_seq, b=short_seq)
    def test_axioms(self, a, b):
        d = token_edit_distance(a, b)
        assert d == token_edit_distance(b, a)
        assert (d == 0) == (a == b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @settings(max_examples=100, deadline=None)
    @given(a=short_seq, b=short_seq, c=short_seq)
    def test_triangle_inequality(self, a, b, c):
        assert token_edit_distance(a, c) <= token_edit_distance(
            a, b
        ) + token_edit_distance(b, c)


class TestEvaluate:
    def test_perfect(self, vocab):
        refs = ["x + y", "\\frac { a } { b }"]
        report = evaluate(list(refs), refs, vocab)
        assert report.exprate == 1.0
        assert report.leq1 == 1.0
        assert report.leq2 == 1.0
        assert report.n == 2
        assert report.per_sample == [0, 0]

    def test_brace_spelling_is_free(self, vocab):
        report = evaluate(["x ^ 2"], ["x ^ { 2 }"], vocab)
        assert report.exprate == 1.0

    def test_threshold_buckets(self, vocab):
        refs = ["x + y + z"] * 4
        preds = ["x + y + z", "x + y + a", "x + a + b", "a + b + c"]
        report = evaluate(preds, refs, vocab)
        assert report.per_sample == [0, 1, 2, 3]
        assert report.exprate == 0.25
        assert report.leq1 == 0.5
        assert report.leq2 == 0.75

    def test_unparseable_prediction(self, vocab):
        report = evaluate(["\\frac { x }"], ["x"], vocab)
        assert report.per_sample == [UNPARSEABLE]
        assert report.exprate == 0.0

    def test_reserved_symbol_prediction(self, vocab):
        assert evaluate(["x <sos>", "x"], ["x", "x"], vocab).per_sample == [UNPARSEABLE, 0]

    def test_deeply_nested_prediction(self, vocab):
        deep = "\\sqrt { " * 5000 + "x" + " }" * 5000
        assert evaluate([deep, deep[:-2]], ["x", "x"], vocab).per_sample == [
            10000, UNPARSEABLE,
        ]

    def test_reference_errors_propagate(self, vocab):
        with pytest.raises(UnbalancedBraces):
            evaluate(["x"], ["{ x"], vocab)

    def test_length_mismatch(self, vocab):
        with pytest.raises(LengthMismatch):
            evaluate(["x"], ["x", "y"], vocab)

    def test_empty(self, vocab):
        with pytest.raises(EmptyInput):
            evaluate([], [], vocab)

    def test_as_dict(self, vocab):
        d = evaluate(["x"], ["x"], vocab)._asdict()
        assert d == {
            "exprate": 1.0,
            "leq1": 1.0,
            "leq2": 1.0,
            "n": 1,
            "per_sample": [0],
        }

    def test_repr_leaves_out_per_sample(self, vocab):
        report = evaluate(["x", "y"], ["x", "x"], vocab)
        assert repr(report) == "EvalReport(exprate=0.5, leq1=1.0, leq2=1.0, n=2)"
