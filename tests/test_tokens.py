"""Token grammar: vocabulary build, parse, emit, canonical-form helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmegraph import (
    DanglingGroup,
    EmptyCorpus,
    IllNested,
    Node,
    TokenVocab,
    UnbalancedBraces,
    UnknownControlSequence,
    VocabMiss,
    build_vocab,
    coverage_corpus,
    emit_latex,
    end_parents,
    expand_imaginary,
    gen_expression,
    gt_targets,
    instance_group_counts,
    parse_latex,
)
from hmegraph.tokens import (
    END_SYMBOL,
    EOS_SYMBOL,
    HSE_GROUP_COUNTS,
    IRS_SYMBOLS,
    NONE_SYMBOL,
    ROLE_END,
    ROLE_EOS,
    ROLE_HSE,
    ROLE_IRS,
    ROLE_NONE,
    ROLE_SOS,
    ROLE_VISIBLE,
    SOS_SYMBOL,
    repair_groups,
)


def syms(vocab, seq):
    return [vocab.symbol_of(c) for c in seq]


class TestVocabLayout:
    def test_id_blocks(self, vocab):
        k = vocab.num_predictable
        assert vocab.none_id == k
        assert vocab.end_id == k + 1
        assert vocab.sos_id == k + 2
        assert vocab.eos_id == k + 3
        assert vocab.grid_classes == k + 1
        assert vocab.correction_classes == k + 2
        assert len(vocab) == k + 4

    def test_predictable_prefix_sorted(self, vocab):
        pred = vocab.symbols[: vocab.num_predictable]
        assert pred == sorted(pred)
        assert vocab.symbols[vocab.none_id] == NONE_SYMBOL
        assert vocab.symbols[vocab.end_id] == END_SYMBOL
        assert vocab.symbols[vocab.sos_id] == SOS_SYMBOL
        assert vocab.symbols[vocab.eos_id] == EOS_SYMBOL

    def test_roles(self, vocab):
        for sym in IRS_SYMBOLS:
            assert vocab.roles[vocab.id_of(sym)] == ROLE_IRS
        for sym in ("\\frac", "\\sqrt", "\\dot", "\\boxed"):
            assert vocab.roles[vocab.id_of(sym)] == ROLE_HSE
        assert vocab.roles[vocab.id_of("x")] == ROLE_VISIBLE

    def test_group_counts(self, vocab):
        assert vocab.group_count(vocab.id_of("\\frac")) == 2
        assert vocab.group_count(vocab.id_of("\\sqrt")) == 1
        assert vocab.group_count(vocab.id_of("^")) == 1
        with pytest.raises(VocabMiss):
            vocab.group_count(vocab.id_of("x"))

    def test_id_lookup_errors(self, vocab):
        with pytest.raises(VocabMiss):
            vocab.id_of("\\nosuchthing")
        with pytest.raises(VocabMiss):
            vocab.symbol_of(len(vocab))
        with pytest.raises(VocabMiss):
            vocab.symbol_of(-1)

    def test_validation_rejects_duplicates(self):
        with pytest.raises(VocabMiss):
            TokenVocab(
                ["a", "a", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL],
                [ROLE_VISIBLE] * 2 + [ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS],
            )

    def test_validation_rejects_bad_tail(self):
        with pytest.raises(VocabMiss):
            TokenVocab(
                ["a", END_SYMBOL, NONE_SYMBOL, SOS_SYMBOL, EOS_SYMBOL],
                [ROLE_VISIBLE, ROLE_END, ROLE_NONE, ROLE_SOS, ROLE_EOS],
            )

    def test_validation_requires_specials(self):
        with pytest.raises(VocabMiss):
            TokenVocab(["a"], [ROLE_VISIBLE])

    def test_structural_role_needs_group_count(self):
        with pytest.raises(VocabMiss):
            TokenVocab(
                ["\\nosuch", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL],
                [ROLE_HSE, ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS],
            )

    def test_save_load_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "v.tsv"
        vocab.save(path)
        back = TokenVocab.load(path)
        assert back.symbols == vocab.symbols
        assert back.roles == vocab.roles

    def test_load_rejects_bad_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\tvisible\nb visible\n")
        with pytest.raises(VocabMiss):
            TokenVocab.load(path)


class TestBuildVocab:
    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([])

    def test_braces_are_not_symbols(self):
        v = build_vocab(["\\frac { a } { b }"])
        assert "{" not in v.symbols
        assert v.symbols[: v.num_predictable] == ["\\frac", "a", "b"]

    def test_sqrt_index_brackets_dropped(self):
        v = build_vocab(["\\sqrt [ 3 ] { x }"])
        assert "[" not in v.symbols and "]" not in v.symbols

    def test_plain_brackets_kept(self):
        v = build_vocab(["[ 0 , 1 ]"])
        assert "[" in v.symbols and "]" in v.symbols

    def test_unbalanced(self):
        with pytest.raises(UnbalancedBraces):
            build_vocab(["{ x"])
        with pytest.raises(UnbalancedBraces):
            build_vocab(["x }"])

    def test_bad_control_sequence(self):
        with pytest.raises(UnknownControlSequence):
            build_vocab(["\\3 x"])


class TestParse:
    def test_superscript(self, vocab):
        seq = parse_latex("x ^ { y z } + 1", vocab)
        assert syms(vocab, seq) == ["x", "^", "y", "z", "}", "+", "1"]

    def test_frac(self, vocab):
        seq = parse_latex("\\frac { x } { y }", vocab)
        assert syms(vocab, seq) == ["\\frac", "x", "}", "y", "}"]

    def test_indexed_sqrt_index_first(self, vocab):
        seq = parse_latex("\\sqrt [ 3 ] { x }", vocab)
        assert syms(vocab, seq) == ["\\sqrt", "3", "}", "x", "}"]

    def test_unspaced_input(self, vocab):
        assert parse_latex("x^{yz}+1", vocab) == parse_latex("x ^ { y z } + 1", vocab)
        assert parse_latex("\\frac{x}{y}", vocab) == parse_latex(
            "\\frac { x } { y }", vocab
        )

    def test_unbraced_argument_normalized(self, vocab):
        assert parse_latex("x ^ 2", vocab) == parse_latex("x ^ { 2 }", vocab)
        assert parse_latex("\\frac x y", vocab) == parse_latex(
            "\\frac { x } { y }", vocab
        )

    def test_empty_string(self, vocab):
        assert parse_latex("", vocab) == []

    def test_empty_group(self, vocab):
        seq = parse_latex("\\frac { x } { }", vocab)
        assert syms(vocab, seq) == ["\\frac", "x", "}", "}"]

    def test_visible_brackets(self, vocab):
        seq = parse_latex("[ 0 , 1 ]", vocab)
        assert syms(vocab, seq) == ["[", "0", ",", "1", "]"]

    def test_dangling_group(self, vocab):
        with pytest.raises(DanglingGroup):
            parse_latex("\\frac { x }", vocab)
        with pytest.raises(DanglingGroup):
            parse_latex("x ^", vocab)

    def test_stray_braces(self, vocab):
        with pytest.raises(UnbalancedBraces):
            parse_latex("{ x }", vocab)
        with pytest.raises(UnbalancedBraces):
            parse_latex("x }", vocab)
        with pytest.raises(UnbalancedBraces):
            parse_latex("\\frac { x } { y", vocab)

    def test_unknown_symbol(self, vocab):
        with pytest.raises(VocabMiss):
            parse_latex("\\nosuchthing", vocab)

    @pytest.mark.parametrize("head, tail", [
        ("\\frac { ", " } { y }"),
        ("\\sqrt { ", " }"),
        ("\\sqrt ", ""),
        ("\\sqrt [ ", " ] { y }"),
    ], ids=["frac", "sqrt", "bare_sqrt", "sqrt_index"])
    def test_deep_nesting(self, vocab, head, tail):
        """Nesting far past the interpreter's recursion limit parses, and
        every level closes its groups as a single one does."""
        one = parse_latex(head + "x" + tail, vocab)
        assert parse_latex(head * 5000 + "x" + tail * 5000, vocab) == (
            one[:1] * 5000 + one[1:2] + one[2:] * 5000
        )

    def test_deep_nesting_errors(self, vocab):
        with pytest.raises(UnbalancedBraces) as err:
            parse_latex("\\frac { " * 5000 + "x", vocab)
        assert err.value.position == 10001
        with pytest.raises(DanglingGroup, match="sqrt"):
            parse_latex("\\sqrt " * 5000, vocab)

    def test_deep_frac_round_trip(self, vocab):
        seq = parse_latex("\\frac { " * 5000 + "x" + " } { y }" * 5000, vocab)
        assert parse_latex(emit_latex(seq, vocab), vocab) == seq

    def test_multichar_visible_greedy(self):
        v = TokenVocab(
            ["1", "12", "2", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL],
            [ROLE_VISIBLE] * 3 + [ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS],
        )
        assert syms(v, parse_latex("121", v)) == ["12", "1"]


class TestCanonicalHelpers:
    def test_instance_counts_plain(self, vocab):
        seq = parse_latex("\\frac { x } { y }", vocab)
        assert instance_group_counts(seq, vocab) == {0: 2}

    def test_instance_counts_sqrt(self, vocab):
        assert instance_group_counts(parse_latex("\\sqrt { x }", vocab), vocab) == {0: 1}
        assert instance_group_counts(
            parse_latex("\\sqrt [ 3 ] { x }", vocab), vocab
        ) == {0: 2}

    def test_ill_nested(self, vocab):
        with pytest.raises(IllNested):
            instance_group_counts([vocab.end_id], vocab)
        with pytest.raises(IllNested):
            instance_group_counts([vocab.id_of("^")], vocab)
        with pytest.raises(IllNested):
            instance_group_counts([vocab.sos_id], vocab)

    def test_end_parents(self, vocab):
        seq = parse_latex("\\frac { x } { y }", vocab)
        assert end_parents(seq, vocab) == [None, None, 0, None, 0]
        seq = parse_latex("x ^ { y z } + 1", vocab)
        assert end_parents(seq, vocab) == [None, None, None, None, 1, None, None]

    def test_gt_targets(self, vocab):
        seq = parse_latex("x + y", vocab)
        self_t, left_t, right_t = gt_targets(seq)
        assert self_t == seq
        assert left_t == [0, 1, 2]
        assert right_t == [2, 3, 4]

    def test_gt_targets_empty(self):
        with pytest.raises(ValueError):
            gt_targets([])


class TestEmit:
    def test_braced_spaced_output(self, vocab):
        seq = parse_latex("x ^ { y z } + 1", vocab)
        assert emit_latex(seq, vocab) == "x ^ { y z } + 1"

    def test_indexed_sqrt_roundtrip(self, vocab):
        s = "\\sqrt [ 3 ] { x + 1 }"
        assert emit_latex(parse_latex(s, vocab), vocab) == s

    def test_unbraced_becomes_braced(self, vocab):
        assert emit_latex(parse_latex("x ^ 2", vocab), vocab) == "x ^ { 2 }"

    def test_ambiguous_sqrt_groups_resolved(self, vocab):
        # One group then a trailing sibling reads back index-less; forcing a
        # second group flips the instance to indexed form.
        a, b = vocab.id_of("a"), vocab.id_of("b")
        sq, end = vocab.id_of("\\sqrt"), vocab.end_id
        assert emit_latex([sq, a, end, b], vocab) == "\\sqrt { a } b"
        assert emit_latex([sq, a, end, b, end], vocab) == "\\sqrt [ a ] { b }"

    def test_emit_parse_identity_fixed_corpus(self, vocab):
        for s in coverage_corpus():
            seq = parse_latex(s, vocab)
            again = parse_latex(emit_latex(seq, vocab), vocab)
            assert again == seq, s

    def test_ill_nested_emit(self, vocab):
        with pytest.raises(IllNested):
            emit_latex([vocab.end_id], vocab)
        with pytest.raises(IllNested):
            emit_latex([vocab.id_of("\\frac"), vocab.id_of("x"), vocab.end_id], vocab)


SEQUENCE_ENTRY_POINTS = {
    "emit_latex": emit_latex,
    "repair_groups": repair_groups,
    "instance_group_counts": instance_group_counts,
    "end_parents": end_parents,
    "expand_imaginary": lambda seq, vocab: expand_imaginary(
        [Node(cid, 0, col) for col, cid in enumerate(seq)], vocab
    ),
}


@pytest.mark.parametrize("entry", sorted(SEQUENCE_ENTRY_POINTS))
@pytest.mark.parametrize("where", ["first", "after_groups"])
def test_id_outside_vocab_raises(vocab, entry, where):
    """Table lookups index Python sequences, where -1 would read the last
    entry; each entry point's range check must refuse it first."""
    prefix = [] if where == "first" else parse_latex("\\frac { x } { y }", vocab)
    for bad in (-1, len(vocab)):
        with pytest.raises(VocabMiss):
            SEQUENCE_ENTRY_POINTS[entry](prefix + [bad], vocab)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), depth=st.integers(1, 3))
def test_parse_emit_parse_identity(seed, depth):
    from hmegraph import default_vocab

    vocab = default_vocab()
    s = gen_expression(seed, max_depth=depth)
    seq = parse_latex(s, vocab)
    assert parse_latex(emit_latex(seq, vocab), vocab) == seq


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_expressions_emit_verbatim(seed):
    # The generator writes fully braced, spaced LaTeX: emission is identity.
    from hmegraph import default_vocab

    vocab = default_vocab()
    s = gen_expression(seed)
    assert emit_latex(parse_latex(s, vocab), vocab) == s
