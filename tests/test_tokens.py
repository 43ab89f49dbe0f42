"""Token grammar: vocabulary build, parse, emit, canonical-form helpers."""

import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmegraph import (
    DanglingGroup,
    EmptyCorpus,
    EmptyInput,
    GridTooSmall,
    IllNested,
    Node,
    TokenVocab,
    UnbalancedBraces,
    UnknownControlSequence,
    VocabMiss,
    build_vocab,
    coverage_corpus,
    default_vocab,
    emit_latex,
    expand_imaginary,
    gen_expression,
    group_structure,
    gt_targets,
    layout_and_render,
    parse_latex,
)
from hmegraph import tokens
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

    def test_id_lookup_errors(self, vocab):
        with pytest.raises(VocabMiss):
            vocab.id_of("\\nosuchthing")
        with pytest.raises(VocabMiss):
            vocab.symbol_of(len(vocab))
        with pytest.raises(VocabMiss):
            vocab.symbol_of(-1)

    def test_validation_rejects_duplicates(self):
        with pytest.raises(VocabMiss, match="duplicate"):
            TokenVocab(["a", "a", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL])

    def test_validation_rejects_bad_tail(self):
        with pytest.raises(VocabMiss, match="must end in"):
            TokenVocab(["a", END_SYMBOL, NONE_SYMBOL, SOS_SYMBOL, EOS_SYMBOL])

    def test_validation_requires_specials(self):
        with pytest.raises(VocabMiss):
            TokenVocab(["a"])

    def test_roles_follow_symbols(self):
        v = TokenVocab(["\\nosuch", "\\sqrt", "^", "x", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL,
                        EOS_SYMBOL])
        assert v.roles == [ROLE_VISIBLE, ROLE_HSE, ROLE_IRS, ROLE_VISIBLE,
                           ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS]
        assert v.group_table == (0, 1, 1, 0, 0, 0, 0, 0)

    def test_structural_role_needs_group_count(self, tmp_path):
        """A file that marks a symbol with no group count structural is
        refused at its line."""
        path = tmp_path / "v.tsv"
        path.write_text("\\nosuch\thse\n<none>\tnone\n}\tend\n<sos>\tsos\n<eos>\teos\n")
        with pytest.raises(VocabMiss, match=r"line 1: symbol '\\\\nosuch' has role 'visible'"):
            TokenVocab.load(path)

    @pytest.mark.parametrize("symbol, role, want", [
        ("\\sqrt", ROLE_VISIBLE, ROLE_HSE),
        ("^", ROLE_VISIBLE, ROLE_IRS),
        ("\\frac", ROLE_IRS, ROLE_HSE),
        ("x", ROLE_END, ROLE_VISIBLE),
        (END_SYMBOL, ROLE_VISIBLE, ROLE_END),
    ])
    def test_load_refuses_contradicting_role(self, vocab, tmp_path, symbol, role, want):
        path = tmp_path / "v.tsv"
        vocab.save(path)
        lines = path.read_text().splitlines()
        lineno = vocab.id_of(symbol) + 1
        lines[lineno - 1] = f"{symbol}\t{role}"
        path.write_text("\n".join(lines) + "\n")
        msg = f"line {lineno}: symbol {symbol!r} has role {want!r}, not {role!r}"
        with pytest.raises(VocabMiss, match=re.escape(msg)):
            TokenVocab.load(path)

    def test_save_load_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "v.tsv"
        vocab.save(path)
        back = TokenVocab.load(path)
        assert back.symbols == vocab.symbols
        assert back.roles == vocab.roles

    def test_load_skips_blank_lines(self, vocab, tmp_path):
        path = tmp_path / "v.tsv"
        vocab.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n\n".join(lines) + "\n\n")
        assert TokenVocab.load(path).symbols == vocab.symbols

    def test_load_rejects_bad_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\tvisible\nb visible\n")
        with pytest.raises(VocabMiss):
            TokenVocab.load(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_load_names_line_that_is_not_utf8(self, vocab, tmp_path, newline):
        """Bytes that are not UTF-8 raise VocabMiss naming the file and the
        line, counted as text mode counts lines, whatever the line end; the
        same file without them loads."""
        path = tmp_path / "v.tsv"
        vocab.save(path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(newline.join(lines) + newline)
        assert TokenVocab.load(path).symbols == vocab.symbols
        lines[2] += b"\xff"
        path.write_bytes(newline.join(lines) + newline)
        msg = f"{path}: line 3 is not UTF-8 text (invalid start byte)"
        with pytest.raises(VocabMiss, match=re.escape(msg)):
            TokenVocab.load(path)


def vocab_digest(vocab, tmp_path):
    """SHA-256 prefix of every table a vocabulary derives, its reserved
    ids, and the bytes `save` writes."""
    path = tmp_path / "pin.tsv"
    vocab.save(path)
    tables = {
        name: getattr(vocab, name)
        for name in ("symbols", "roles", "group_table", "step_table", "sqrt_id", "bracket_id",
                     "multi_symbols", "num_predictable", "none_id", "end_id", "sos_id",
                     "eos_id", "grid_classes", "correction_classes")
    }
    blob = json.dumps(tables, sort_keys=True).encode() + b"\0" + path.read_bytes()
    return hashlib.sha256(blob).hexdigest()[:16]


class TestVocabPin:
    """The tables and saved bytes of the builtin vocabulary and of small
    ones, pinned byte for byte."""

    def test_default_vocab(self, tmp_path):
        assert vocab_digest(default_vocab(), tmp_path) == "92269c1f9bec2b25"

    @pytest.mark.parametrize("corpus, want", [
        (["x ^ { 2 } + y _ { i }", "\\sum \\limits _ { k } a ^ 2"], "f9458d1a422d2ae2"),
        (["\\sqrt [ 3 ] { x } + [ y ]", "\\frac { 1 } { \\sqrt { 2 } }"], "e0cdd6b60074211f"),
    ], ids=["scripts", "indexed_sqrt"])
    def test_build_vocab(self, corpus, want, tmp_path):
        assert vocab_digest(build_vocab(corpus), tmp_path) == want

    def test_multichar_and_escaped_brace(self, tmp_path):
        """build_vocab cannot tokenize these; the symbol list builds them."""
        v = tokens._vocab_over(["\\{", "\\}", "12", "ab", "x", "^", "\\sqrt"])
        assert vocab_digest(v, tmp_path) == "c50b40b8c06fa911"
        path = tmp_path / "v.tsv"
        v.save(path)
        assert vocab_digest(TokenVocab.load(path), tmp_path) == "c50b40b8c06fa911"


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

    @pytest.mark.parametrize("label", ["<eos>", "x <sos>"])
    def test_reserved_symbol_label(self, label):
        with pytest.raises(VocabMiss, match="reserved"):
            build_vocab([label])

    @pytest.mark.parametrize("label, error", [
        ("x ^", DanglingGroup),
        ("\\frac { a }", DanglingGroup),
        ("{ x }", UnbalancedBraces),
        ("\\sqrt [ 3", UnbalancedBraces),
    ])
    def test_labels_parse_latex_rejects(self, label, error):
        """A corpus builds a vocabulary only when parse_latex reads every label."""
        with pytest.raises(error):
            build_vocab(["x + 1", label])

    @settings(max_examples=200, deadline=None)
    @given(
        drawn=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 3)), min_size=1, max_size=4),
        extra=st.sampled_from(["\\sqrt [ 3 ] { x }", "[ 0 , 1 ]"]),
    )
    def test_every_label_parses_and_every_class_occurs(self, drawn, extra):
        corpus = [gen_expression(seed, max_depth=depth) for seed, depth in drawn] + [extra]
        v = build_vocab(corpus)
        used = {cid for label in corpus for cid in parse_latex(label, v)}
        assert used - {v.end_id} == set(range(v.num_predictable))


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

    @pytest.mark.parametrize("text, symbol", [
        ("x <sos>", SOS_SYMBOL),
        ("x<sos>", SOS_SYMBOL),
        ("<none>", NONE_SYMBOL),
        ("x ^ <eos>", EOS_SYMBOL),
    ])
    def test_reserved_symbol(self, vocab, text, symbol):
        """The none, <sos> and <eos> classes are never part of a label."""
        with pytest.raises(VocabMiss, match=re.escape(repr(symbol))):
            parse_latex(text, vocab)

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
        v = TokenVocab(["1", "12", "2", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL])
        assert syms(v, parse_latex("121", v)) == ["12", "1"]

    def test_overlapping_multichar_longest_match(self):
        v = TokenVocab(["a", "ab", "abc", "b", "c",
                        NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL])
        assert syms(v, parse_latex("abcab", v)) == ["abc", "ab"]
        assert syms(v, parse_latex("aabca", v)) == ["a", "abc", "a"]
        assert syms(v, parse_latex("abb c", v)) == ["ab", "b", "c"]

    def test_parse_never_sorts(self, vocab, monkeypatch):
        """The vocabulary orders its multi-character symbols once; a parse
        only reads that order."""
        corpus = coverage_corpus()
        want = [parse_latex(s, vocab) for s in corpus]

        def refuse(*args, **kwargs):
            raise AssertionError("sorted on the parse path")

        monkeypatch.setattr(tokens, "sorted", refuse, raising=False)
        assert [parse_latex(s, vocab) for s in corpus] == want


class TestTokenize:
    """Surface tokens of spaced and unspaced input, pinned token by token,
    without a vocabulary and with the builtin one."""

    @pytest.mark.parametrize("text, want", [
        ("{ x }", ["{", "x", "}"]),
        ("{x}", ["{", "x", "}"]),
        ("[ 3 ]", ["[", "3", "]"]),
        ("[3]", ["[", "3", "]"]),
        ("{ { } }", ["{", "{", "}", "}"]),
        ("{{}}", ["{", "{", "}", "}"]),
        ("][", ["]", "["]),
        ("{x", ["{", "x"]),
        ("x}", ["x", "}"]),
        ("^{", ["^", "{"]),
        ("^ {", ["^", "{"]),
        ("x^2", ["x", "^", "2"]),
        ("a_1^2", ["a", "_", "1", "^", "2"]),
        ("\\fracx", ["\\fracx"]),
        ("\\frac{x}{y}", ["\\frac", "{", "x", "}", "{", "y", "}"]),
        ("\\frac { x } { y }", ["\\frac", "{", "x", "}", "{", "y", "}"]),
        ("\\sqrt[3]{x}", ["\\sqrt", "[", "3", "]", "{", "x", "}"]),
        ("\\sqrt [ 3 ] { x }", ["\\sqrt", "[", "3", "]", "{", "x", "}"]),
        ("\\limits \\sum\\limits", ["\\limits", "\\sum", "\\limits"]),
        ("ab c", ["a", "b", "c"]),
    ])
    @pytest.mark.parametrize("with_vocab", [False, True], ids=["no_vocab", "builtin"])
    def test_pinned(self, vocab, text, want, with_vocab):
        assert tokens._tokenize(text, vocab if with_vocab else None) == want

    def test_vocabulary_chunk_kept_whole(self, vocab):
        """A spaced chunk the vocabulary holds is one token; unknown to the
        vocabulary, it splits."""
        assert tokens._tokenize("x <sos>", None) == ["x", "<", "s", "o", "s", ">"]
        assert tokens._tokenize("x <sos>", vocab) == ["x", "<sos>"]
        v = TokenVocab(["\\{", "\\}", "x", NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL])
        assert tokens._tokenize("\\{ x \\}", v) == ["\\{", "x", "\\}"]
        assert syms(v, parse_latex("\\{ x \\}", v)) == ["\\{", "x", "\\}"]
        with pytest.raises(UnknownControlSequence):
            tokens._tokenize("\\{x", v)
        with pytest.raises(UnknownControlSequence):
            tokens._tokenize("\\{ x", None)


class TestCanonicalHelpers:
    def test_instance_counts_plain(self, vocab):
        seq = parse_latex("\\frac { x } { y }", vocab)
        assert group_structure(seq, vocab)[0] == {0: 2}

    def test_instance_counts_sqrt(self, vocab):
        assert group_structure(parse_latex("\\sqrt { x }", vocab), vocab)[0] == {0: 1}
        assert group_structure(
            parse_latex("\\sqrt [ 3 ] { x }", vocab), vocab
        )[0] == {0: 2}

    def test_ill_nested(self, vocab):
        with pytest.raises(IllNested):
            group_structure([vocab.end_id], vocab)
        with pytest.raises(IllNested):
            group_structure([vocab.id_of("^")], vocab)
        with pytest.raises(IllNested):
            group_structure([vocab.sos_id], vocab)

    def test_end_parents(self, vocab):
        seq = parse_latex("\\frac { x } { y }", vocab)
        assert group_structure(seq, vocab)[1] == [None, None, 0, None, 0]
        seq = parse_latex("x ^ { y z } + 1", vocab)
        assert group_structure(seq, vocab)[1] == [None, None, None, None, 1, None, None]

    def test_gt_targets(self, vocab):
        seq = parse_latex("x + y", vocab)
        self_t, left_t, right_t = gt_targets(seq)
        assert self_t == seq
        assert left_t == [0, 1, 2]
        assert right_t == [2, 3, 4]

    def test_gt_targets_empty(self):
        with pytest.raises(EmptyInput):
            gt_targets([])


def pending_step(lo, hi, cid, vocab):
    """The interval [lo, hi] of group ENDs still owed after one more token
    (a \\sqrt owes one or two), or None for an END that closes nothing."""
    if cid == vocab.end_id:
        return None if hi == 0 else (max(lo - 1, 0), hi - 1)
    g = vocab.group_table[cid]
    return lo + g, hi + (2 if vocab.symbol_of(cid) == "\\sqrt" else g)


def scan_group_structure(seq, vocab):
    """group_structure by a forward scan of the rest of the sequence for
    every \\sqrt: the quadratic reference."""
    vocab.check_ids(seq)

    def closable(start, pending):
        span = (pending, pending)
        for cid in seq[start:]:
            span = pending_step(*span, cid, vocab)
            if span is None:
                return False
        return span[0] == 0

    counts, parents, stack = {}, [None] * len(seq), []
    for pos, cid in enumerate(seq):
        sym = vocab.symbol_of(cid)
        if cid == vocab.end_id:
            if not stack:
                raise IllNested(f"group end at position {pos} closes nothing")
            parents[pos] = stack[-1][0]
            stack[-1][1] -= 1
            if stack[-1][1] == 0:
                stack.pop()
        elif g := vocab.group_table[cid]:
            if sym == "\\sqrt" and not closable(pos + 1, sum(f[1] for f in stack) + 1):
                g = 2
            counts[pos] = g
            stack.append([pos, g])
        elif not vocab.is_predictable(cid):
            raise IllNested(f"{sym!r} cannot appear in canonical form")
        elif sym == "]" and stack and stack[-1][1] == 2 and seq[stack[-1][0]] == vocab.id_of("\\sqrt"):
            raise IllNested(
                f"']' at position {pos} would end the index of the \\sqrt at "
                f"position {stack[-1][0]}"
            )
    if stack:
        raise IllNested("group left open at sequence end")
    return counts, parents


class TestGroupCountsLinear:
    def outcome(self, fn, seq, vocab):
        try:
            return fn(seq, vocab)
        except IllNested as err:
            return type(err), str(err)

    def test_matches_forward_scan(self, vocab):
        rng = random.Random(20261018)
        sqrt, end = vocab.id_of("\\sqrt"), vocab.end_id
        seen = {"indexed": 0, "plain_sqrt": 0, "error": 0}
        for trial in range(3000):
            if trial % 2:
                seq = [rng.choice([sqrt, sqrt, end, end, end, rng.randrange(len(vocab))])
                       for _ in range(rng.randint(0, 14))]
            else:
                seq = parse_latex(gen_expression(rng.getrandbits(32), max_depth=3), vocab)
                for _ in range(rng.randint(0, 3)):
                    seq.insert(rng.randrange(len(seq) + 1), rng.choice([sqrt, end]))
            got = self.outcome(group_structure, seq, vocab)
            assert got == self.outcome(scan_group_structure, seq, vocab), seq
            if isinstance(got[0], dict):
                sqrt_counts = [g for pos, g in got[0].items() if seq[pos] == sqrt]
                seen["indexed"] += 2 in sqrt_counts
                seen["plain_sqrt"] += 1 in sqrt_counts
            else:
                seen["error"] += 1
        assert min(seen.values()) >= 100, seen

    def test_suffix_closers_match_builtin_loop(self, vocab):
        def reference(seq, vocab):
            """The composition with builtin max and min per token."""
            step, n = vocab.step_table, len(seq)
            A, B, S = [0] * (n + 1), [-math.inf] * (n + 1), [math.inf] * (n + 1)
            for k in range(n - 1, -1, -1):
                a, h = step[seq[k]]
                A[k], B[k], S[k] = A[k + 1] + a, max(A[k + 1], B[k + 1]), h + min(S[k + 1], 0)
            return lambda k, p: p + S[k] >= 0 and max(p + A[k], B[k]) == 0

        rng = random.Random(20261019)
        heavy = [vocab.end_id, vocab.sqrt_id, vocab.bracket_id]
        closed = 0
        for _ in range(2000):
            seq = [rng.choice(heavy) if rng.random() < 0.7 else rng.randrange(vocab.num_predictable)
                   for _ in range(rng.randint(0, 16))]
            got, want = tokens._suffix_closers(seq, vocab), reference(seq, vocab)
            for k in range(len(seq) + 1):
                for p in range(5):
                    assert got(k, p) == want(k, p), (seq, k, p)
                    closed += want(k, p)
        assert closed >= 1000

    def test_deep_sqrt_steps_linear(self, monkeypatch):
        """Repairing, resolving, emitting and laying out a 5,000-deep \\sqrt
        nesting reads each token's group count and interval step a bounded
        number of times, not once per enclosing \\sqrt."""
        vocab = TokenVocab(default_vocab().symbols)
        seq = parse_latex("\\sqrt { " * 5000 + "x" + " }" * 5000, vocab)
        assert parse_latex(emit_latex(seq, vocab), vocab) == seq

        class StepBudget(tuple):
            """A vocabulary table that refuses reads past `budget`."""

            def __getitem__(self, i):
                self.budget -= 1
                if self.budget < 0:
                    raise AssertionError("table read too often")
                return tuple.__getitem__(self, i)

        def layout(seq, vocab):
            with pytest.raises(GridTooSmall):
                layout_and_render(seq, (14, 56), vocab)

        for entry in (repair_groups, group_structure, emit_latex, layout):
            for name in ("group_table", "step_table"):
                table = StepBudget(getattr(vocab, name))
                table.budget = 4 * len(seq)
                monkeypatch.setattr(vocab, name, table)
            entry(seq, vocab)


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

    def test_bracket_ending_sqrt_index_refused(self, vocab):
        """A ``]`` at the top level of an index has no LaTeX spelling: the
        parser would read it as the index's end."""
        sq, br, x, end = vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.id_of("x"), vocab.end_id
        with pytest.raises(IllNested, match=r"'\]' at position 1 .* \\sqrt at position 0") as err:
            emit_latex([sq, br, end, x, end], vocab)
        assert err.value.position == 1
        # Nested in an inner group, or outside any index, it stays a symbol,
        # and the repair keeps it.
        for s in ("\\sqrt [ x ^ { ] } ] { y }", "\\sqrt { ] }", "\\sqrt { x ] } ]",
                  "\\frac { ] } { x }", "] x"):
            seq = parse_latex(s, vocab)
            assert emit_latex(seq, vocab) == s
            assert repair_groups(seq, vocab) == seq, s

    def test_ill_nested_emit(self, vocab):
        with pytest.raises(IllNested):
            emit_latex([vocab.end_id], vocab)
        with pytest.raises(IllNested):
            emit_latex([vocab.id_of("\\frac"), vocab.id_of("x"), vocab.end_id], vocab)

    def test_first_fault_named(self, vocab):
        """The walk names the first fault in sequence order; only a stray
        ``]`` sets ``position``."""
        sq, br, x, end = vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.id_of("x"), vocab.end_id
        stray = [sq, br, end, x, end]
        for seq, message, position in (
            (stray + [sq], r"'\]' at position 1", 1),
            (stray + [end], r"'\]' at position 1", 1),
            ([x] + stray + [vocab.sos_id], r"'\]' at position 2", 2),
            ([end] + stray, "group end at position 0 closes nothing", None),
            ([vocab.eos_id] + stray, "'<eos>' cannot appear", None),
            ([sq, x, end, sq], "group left open at sequence end", None),
        ):
            for entry in (emit_latex, group_structure):
                with pytest.raises(IllNested, match=message) as err:
                    entry(seq, vocab)
                assert err.value.position == position, seq


SEQUENCE_ENTRY_POINTS = {
    "emit_latex": emit_latex,
    "repair_groups": repair_groups,
    # group_structure's two results, one case each: per-instance group
    # counts and END parents.
    "instance_group_counts": lambda seq, vocab: group_structure(seq, vocab)[0],
    "end_parents": lambda seq, vocab: group_structure(seq, vocab)[1],
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


_VOCAB = default_vocab()


@settings(max_examples=300, deadline=None)
@given(seq=st.lists(st.one_of(
    st.integers(0, _VOCAB.num_predictable - 1),
    st.sampled_from([_VOCAB.end_id, _VOCAB.id_of("\\sqrt"), _VOCAB.id_of("]")]),
), max_size=24))
def test_repaired_emit_parses_back(seq):
    """Any string of predictable and END ids, once repaired, emits LaTeX
    that parses back to it."""
    fixed = repair_groups(seq, _VOCAB)
    assert parse_latex(emit_latex(fixed, _VOCAB), _VOCAB) == fixed


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


_SYMBOL = st.one_of(
    st.sampled_from(["\\frac", "\\sqrt", "^", "_", "\\limits", "\\dot", "[", "]", "x", "12"]),
    st.text(alphabet="ab1{}[]\\^_ \t", max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(symbols=st.lists(_SYMBOL, min_size=1, max_size=8, unique=True),
       picks=st.lists(st.integers(0, 63), max_size=24))
def test_accepted_vocabulary_round_trips(symbols, picks):
    """A vocabulary refuses every symbol that emitted LaTeX cannot carry
    back: over random symbols, whatever the constructor accepts emits every
    repaired sequence of predictable and END ids as LaTeX that parses back
    to it."""
    try:
        vocab = tokens._vocab_over(symbols)
    except VocabMiss as err:
        assert any(s.split() != [s] or s in ("{", "}") for s in symbols), err
        return
    ids = [*range(vocab.num_predictable), vocab.end_id]
    seq = repair_groups([ids[p % len(ids)] for p in picks], vocab)
    assert parse_latex(emit_latex(seq, vocab), vocab) == seq


@pytest.mark.parametrize("symbol", ["{", "", "a b", " x", "x\t", "\n"])
def test_unreadable_symbol_refused(symbol):
    message = f"symbol {symbol!r} cannot be read back: empty, spaced or a brace"
    with pytest.raises(VocabMiss, match=f"^{re.escape(message)}$"):
        tokens._vocab_over([symbol, "x"])
