"""LaTeX token grammar for handwritten math expressions.

A recognizer that predicts symbols on a spatial grid can only see tokens that
have visible ink.  Grouping braces have none, so the grammar used throughout
this package replaces them with a single shared "imaginary end" token: every
opening brace is absorbed and every group close becomes one END token.  A
structural symbol (``\\frac``, ``^``, ...) therefore appears in a canonical
sequence followed, after its argument contents, by exactly one END per
argument group.

Canonical form examples::

    x ^ { y z } + 1      ->  [x, ^, y, z, END, +, 1]
    \\frac { x } { y }    ->  [\\frac, x, END, y, END]
    \\sqrt [ 3 ] { x }    ->  [\\sqrt, 3, END, x, END]   (index group first)

Class ids are dense: visible and structural symbols occupy 0..K-1 in
lexicographic order, the blank/none class is K, then END, <sos> and <eos>.
Only ids below K are predictable by a grid classifier; the rest exist for
sequence targets and graph decoding.

A vocabulary is its symbol list.  Each symbol's role and group count
follow from ``IRS_SYMBOLS`` and ``HSE_GROUP_COUNTS``, where the grammar is
stated once.  A vocabulary file writes the roles out for readers, and
loading one refuses a role that contradicts its symbol.
"""

from __future__ import annotations

import math
import re

from .errors import (
    DanglingGroup,
    EmptyCorpus,
    EmptyInput,
    IllNested,
    UnbalancedBraces,
    UnknownControlSequence,
    VocabMiss,
    as_array,
    as_ints,
    as_scalar,
)

# Token roles as stored in vocabulary files.
ROLE_VISIBLE = "visible"
ROLE_HSE = "hse"        # hierarchy-structural: owns brace groups (\frac, \sqrt, ...)
ROLE_IRS = "irs"        # implicit-relation: scripts and limits (^, _, \limits)
ROLE_END = "end"        # shared imaginary group-end token
ROLE_NONE = "none"      # blank grid cell
ROLE_SOS = "sos"
ROLE_EOS = "eos"

# Implicit-relation symbols: a following group, no ink of its own structure.
IRS_SYMBOLS = frozenset({"^", "_", "\\limits"})

# Hierarchy symbols and how many argument groups each owns.  \sqrt is listed
# with its index-less arity; the parser upgrades an instance to two groups
# when it is written with a [...] index.
HSE_GROUP_COUNTS = {
    "\\frac": 2,
    "\\sqrt": 1,
    "\\dot": 1,
    "\\ddot": 1,
    "\\boxed": 1,
    "\\widehat": 1,
    "\\overline": 1,
    "\\xlongequal": 1,
    "\\textcircled": 1,
    "\\xrightarrow": 1,
    "\\overrightarrow": 1,
}

NONE_SYMBOL = "<none>"
END_SYMBOL = "}"
SOS_SYMBOL = "<sos>"
EOS_SYMBOL = "<eos>"

# The reserved classes that end every vocabulary, in id order, by role.
_RESERVED = {NONE_SYMBOL: ROLE_NONE, END_SYMBOL: ROLE_END,
             SOS_SYMBOL: ROLE_SOS, EOS_SYMBOL: ROLE_EOS}

_CONTROL_RE = re.compile(r"\\[a-zA-Z]+")


def _role(symbol: str) -> str:
    """The role of `symbol` in any vocabulary."""
    return _RESERVED.get(symbol) or (ROLE_IRS if symbol in IRS_SYMBOLS else
                                     ROLE_HSE if symbol in HSE_GROUP_COUNTS else ROLE_VISIBLE)


class TokenVocab:
    """Immutable symbol table with dense class ids, built from its symbols.

    ``symbols[i]`` is the surface form of class id ``i``.  The list ends in
    the reserved classes ``<none> } <sos> <eos>``.  Ids 0..K-1 are the
    predictable classes, the ones a grid cell can take besides none (K is
    ``num_predictable``); then come ``none_id`` (K), ``end_id``, ``sos_id``
    and ``eos_id``.  A cell grid has ``grid_classes`` channels
    (predictables + none), a per-node correction row
    ``correction_classes`` (predictables + none + END).

    Everything else follows from each symbol and the grammar tables
    ``IRS_SYMBOLS`` and ``HSE_GROUP_COUNTS``, so a class's role is stated
    once.  ``roles[i]`` is the role string of class ``i``: irs or hse for
    a structural symbol, visible for any other predictable one, and the
    reserved classes' own roles.  ``group_table[i]`` is the index-less
    group count of class ``i`` (1 for an irs symbol), 0 when it opens no
    group; ``sqrt_id`` and ``bracket_id`` are the ids of \\sqrt and ``]``,
    each -1 when the vocabulary has none; and ``multi_symbols`` lists the
    multi-character symbols that are not control sequences, longest first,
    as the tokenizer tries them.  ``step_table[i]`` is the ``(a, h)`` by
    which class ``i`` moves the interval [lo, hi] of group ENDs still owed
    (an interval, as a \\sqrt owns one group or two):
    ``lo = max(lo + a, 0)``, ``hi += h``.  END has ``a = h = -1``, \\sqrt
    ``a = 1, h = 2``, any other class its group count for both.

    Raises:
        ShapeMismatch: `symbols` is not a 1-d sequence of strings.
        VocabMiss: a duplicate symbol, a tail other than
            ``<none> } <sos> <eos>``, or a predictable symbol that the
            tokenizer cannot read back from emitted LaTeX: an empty one,
            one holding whitespace, or a brace.
    """

    def __init__(self, symbols):
        self.symbols = as_array(symbols, (None,), "vocabulary symbols", kinds="U").tolist()
        self._index = {s: i for i, s in enumerate(self.symbols)}
        if len(self._index) != len(self.symbols):
            raise VocabMiss("duplicate symbol in vocabulary")
        if self.symbols[-4:] != list(_RESERVED):
            raise VocabMiss(f"vocabulary must end in {list(_RESERVED)}, got {self.symbols[-4:]}")
        for sym in self.symbols[:-4]:
            if sym.split() != [sym] or sym == "{":  # "}" is END's, so a duplicate above
                raise VocabMiss(f"symbol {sym!r} cannot be read back: empty, spaced or a brace")
        k = self.num_predictable = len(self.symbols) - 4
        self.none_id, self.end_id, self.sos_id, self.eos_id = k, k + 1, k + 2, k + 3
        self.grid_classes, self.correction_classes = k + 1, k + 2
        self.roles = [_role(s) for s in self.symbols]
        self.group_table = tuple(1 if s in IRS_SYMBOLS else HSE_GROUP_COUNTS.get(s, 0)
                                 for s in self.symbols)
        self.sqrt_id, self.bracket_id = (self._index.get(s, -1) for s in ("\\sqrt", "]"))
        self.step_table = tuple((-1, -1) if i == self.end_id else (g, 2 if i == self.sqrt_id else g)
                                for i, g in enumerate(self.group_table))
        self.multi_symbols = tuple(sorted(
            (sym for sym in self.symbols if len(sym) > 1 and not sym.startswith("\\")),
            key=len, reverse=True,
        ))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def id_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise VocabMiss(f"symbol {symbol!r} not in vocabulary") from None

    def symbol_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.symbols):
            raise VocabMiss(f"class id {class_id} out of range 0..{len(self.symbols) - 1}")
        return self.symbols[class_id]

    def check_ids(self, ids) -> None:
        """Raise ShapeMismatch unless `ids` is a 1-d sequence of integers,
        and VocabMiss for the first of them outside the vocabulary."""
        ids = as_ints(ids, "class ids")
        if ids and (min(ids) < 0 or max(ids) >= len(self.symbols)):
            for cid in ids:
                self.symbol_of(cid)

    def is_predictable(self, class_id: int) -> bool:
        return 0 <= class_id < self.num_predictable

    # --- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write one ``symbol<TAB>role`` line per class, ids by line order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sym, role in zip(self.symbols, self.roles):
                fh.write(f"{sym}\t{role}\n")

    @classmethod
    def load(cls, path) -> "TokenVocab":
        """Read a file that :meth:`save` writes; blank lines are skipped.

        The role column is checked, not used: a file from elsewhere whose
        roles contradict its symbols is refused rather than read one way
        by the tables and another by the file.

        Raises:
            VocabMiss: a line that is not ``symbol<TAB>role``, a role that
                contradicts its symbol (naming the line and the symbol), or
                a symbol list that :class:`TokenVocab` refuses.
        """
        symbols = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise VocabMiss(f"line {lineno}: expected 'symbol<TAB>role'")
                sym, role = parts
                if role != _role(sym):
                    raise VocabMiss(f"line {lineno}: symbol {sym!r} has role {_role(sym)!r}, "
                                    f"not {role!r}")
                symbols.append(sym)
        return cls(symbols)


def build_vocab(corpus: list[str]) -> TokenVocab:
    """Build a vocabulary over the classes that a corpus of labels uses.

    Every label is parsed with :func:`parse_latex` over a draft vocabulary
    of all its tokens but braces, so braces and \\sqrt index brackets, which
    the parser consumes, are not classes; plain brackets are.  The result
    is the sorted list of the symbols used; :class:`TokenVocab` derives
    each one's role from the fixed structural symbol tables, and anything
    unlisted is a plain visible symbol.

    Args:
        corpus: non-empty list of LaTeX label strings.

    Raises:
        ShapeMismatch: `corpus` is not a 1-d sequence of strings.
        EmptyCorpus: on an empty list.
        UnbalancedBraces: when a label's braces or \\sqrt index brackets do
            not balance.
        DanglingGroup: when a structural token in a label misses an
            argument group.
        UnknownControlSequence: when a backslash is not followed by letters.
    """
    corpus = as_array(corpus, (None,), "corpus", kinds="U").tolist()
    if not corpus:
        raise EmptyCorpus("vocabulary build needs at least one label")
    draft = _vocab_over({t for label in corpus for t in _tokenize(label, None)} - {"{", "}"})
    used = {cid for label in corpus for cid in parse_latex(label, draft)}
    return _vocab_over(draft.symbols[cid] for cid in used if draft.is_predictable(cid))


def _vocab_over(symbols) -> TokenVocab:
    """The vocabulary whose predictable classes are `symbols`, sorted, and
    whose roles and tables :class:`TokenVocab` derives from them."""
    return TokenVocab(sorted(symbols) + list(_RESERVED))


def _tokenize(s: str, vocab: TokenVocab | None) -> list[str]:
    """Split a LaTeX string into surface tokens.

    Whitespace-separated chunks are kept whole when they are known symbols;
    anything else is scanned greedily: control sequences take a maximal
    letter run, known multi-character symbols take the longest vocabulary
    match, and remaining characters split one by one.
    """
    multi = () if vocab is None else vocab.multi_symbols
    out: list[str] = []
    for chunk in s.split():
        if vocab is not None and chunk in vocab:
            out.append(chunk)
            continue
        i = 0
        while i < len(chunk):
            c = chunk[i]
            if c == "\\":
                m = _CONTROL_RE.match(chunk, i)
                if m is None:
                    raise UnknownControlSequence(f"bad control sequence at {chunk[i:i + 8]!r}")
                out.append(m.group())
                i = m.end()
                continue
            if c in "{}[]":
                out.append(c)
                i += 1
                continue
            for sym in multi:
                if chunk.startswith(sym, i):
                    out.append(sym)
                    i += len(sym)
                    break
            else:
                out.append(c)
                i += 1
    return out


def parse_latex(s: str, vocab: TokenVocab) -> list[int]:
    """Parse a LaTeX string into its canonical class-id sequence.

    Accepts spaced or unspaced input.  Un-braced structural arguments are
    normalized as if braced: ``x ^ 2`` parses like ``x ^ { 2 }``.  A \\sqrt
    written with a bracket index contributes two groups, index first.
    Nesting depth is bounded only by memory, not by the interpreter stack.

    Raises:
        ShapeMismatch: `s` is not a string.
        UnbalancedBraces: stray or unclosed braces.
        DanglingGroup: a structural token missing an argument group.
        VocabMiss: a token absent from the vocabulary, or a reserved
            symbol (``<none>``, ``<sos>``, ``<eos>``), which no label holds.
        UnknownControlSequence: malformed backslash token.
    """
    toks = _tokenize(as_scalar(s, "LaTeX", str), vocab)
    groups, end, none, sqrt = vocab.group_table, vocab.end_id, vocab.none_id, vocab.sqrt_id
    toks.append(None)  # the input end
    out: list[int] = []
    # Stack frames: a run of units waits for its closer (None: the input
    # end); a structural symbol waits as [symbol, groups left].
    stack: list = [None]
    i = 0
    while stack:
        top, t = stack[-1], toks[i]
        if type(top) is list:
            if not top[1]:  # the symbol is done; as an unbraced argument, so is its group
                stack.pop()
                if type(stack[-1]) is list:
                    out.append(end)
                continue
            if t is None or t in ("}", "]"):
                raise DanglingGroup(f"{top[0]!r} is missing an argument group")
            top[1] -= 1
            if t == "{":
                stack.append("}")
                i += 1
                continue
        elif t == top:
            stack.pop()
            if stack:  # a group, not the whole input
                out.append(end)
                i += 1
            continue
        elif t is None or t in ("{", "}"):
            raise UnbalancedBraces(s, i)
        # One unit: a symbol, or a structural symbol that opens its groups.
        cid = vocab.id_of(t)
        if cid >= none:  # END's "}" is a brace above, never a unit
            raise VocabMiss(f"reserved symbol {t!r} cannot appear in a label")
        out.append(cid)
        i += 1
        if g := groups[cid]:
            if cid == sqrt and toks[i] == "[":
                stack += [[t, 1], "]"]
                i += 1
            else:
                stack.append([t, g])
        elif type(top) is list:  # an unbraced argument
            out.append(end)
    return out


def group_structure(seq: list[int], vocab: TokenVocab) -> tuple[dict[int, int], list[int | None]]:
    """Resolve how the argument groups of a canonical sequence nest.

    Returns ``(counts, parents)``.  ``counts`` maps the position of each
    structural token to the number of groups it owns.  Most symbols have a
    fixed count; a \\sqrt instance is read as index-less (one group) unless
    that reading would leave the rest of the sequence ill-nested, in which
    case it owns two groups, index first.  ``parents[pos]`` is the position
    of the token owning the group the END at ``pos`` closes, None at any
    other position.  One forward walk, shared with :func:`emit_latex`: the
    first \\sqrt builds :func:`_suffix_closers` once and every \\sqrt reads
    it, so the work is linear in the sequence length.

    Raises:
        ShapeMismatch: `seq` is not a 1-d sequence of integers.
        IllNested: the sequence closes groups it never opened, leaves groups
            open, contains tokens that cannot appear in canonical form, or
            holds a ``]`` at the top level of a \\sqrt index, which LaTeX
            would read as the end of the index; the first fault in sequence
            order is named, and only the ``]`` sets ``position``.
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
    return _walk(seq, vocab)[:2]


def emit_latex(seq: list[int], vocab: TokenVocab) -> str:
    """Render a canonical class-id sequence back to a spaced LaTeX string.

    Structural arguments are always emitted braced.  A \\sqrt instance is
    emitted index-less unless treating it so would leave the rest of the
    sequence ill-nested, in which case its first group becomes a [...] index
    (see :func:`group_structure`, whose walk spells each token).

    Raises:
        ShapeMismatch: `seq` is not a 1-d sequence of integers.
        IllNested: an END with no open group, groups left open at the end,
            a token that cannot appear in canonical form, or a ``]`` at the
            top level of a \\sqrt index, which would parse back as the end
            of the index (:func:`repair_groups` drops such a ``]``).
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
    return " ".join(_walk(seq, vocab, [])[2])


def _walk(seq: list[int], vocab: TokenVocab, parts=None, strays=None):
    """The forward walk behind :func:`group_structure` and
    :func:`emit_latex` over a range-checked sequence: returns ``counts``,
    ``parents`` and `parts`, to which it appends the LaTeX of each token in
    order when `parts` is a list, and raises as they document.  Given a
    `strays` list, a ``]`` at the top level of a \\sqrt index is not a
    fault: its position is appended there and the walk goes on without
    it."""
    groups, end, none, sqrt = vocab.group_table, vocab.end_id, vocab.none_id, vocab.sqrt_id
    symbols, bracket = vocab.symbols, vocab.bracket_id
    counts: dict[int, int] = {}
    parents: list[int | None] = [None] * len(seq)
    stack: list[list[int]] = []  # [owner position, groups left]
    pending = 0  # the groups left summed over `stack`: ENDs still owed
    closes = None
    for pos, cid in enumerate(seq):
        if cid == end:
            if not stack:
                raise IllNested(f"group end at position {pos} closes nothing")
            frame = stack[-1]
            parents[pos] = frame[0]
            pending -= 1
            frame[1] -= 1
            if not frame[1]:
                stack.pop()
            if parts is not None:
                parts.append(("] {" if seq[frame[0]] == sqrt else "} {") if frame[1] else "}")
        elif g := groups[cid]:
            if cid == sqrt:
                if closes is None:
                    closes = _suffix_closers(seq, vocab)
                if not closes(pos + 1, pending + 1):
                    g = 2
            counts[pos] = g
            stack.append([pos, g])
            pending += g
            if parts is not None:
                parts.append(symbols[cid] + (" [" if cid == sqrt and g == 2 else " {"))
        elif cid >= none:  # none, <sos> or <eos>
            raise IllNested(f"{symbols[cid]!r} cannot appear in canonical form")
        elif cid == bracket and stack and stack[-1][1] == 2 and seq[stack[-1][0]] == sqrt:
            if strays is None:
                raise IllNested(f"']' at position {pos} would end the index of the \\sqrt at "
                                f"position {stack[-1][0]}", pos)
            strays.append(pos)
        elif parts is not None:
            parts.append(symbols[cid])
    if stack:
        raise IllNested("group left open at sequence end")
    return counts, parents, parts


def _suffix_closers(seq: list[int], vocab: TokenVocab):
    """Whether ``seq[k:]`` can close exactly `p` open groups, for any k, p.

    Each token steps the interval [lo, hi] of ENDs still owed by its
    ``vocab.step_table`` entry ``(a, h)``: ``lo`` to ``max(lo + a, 0)``
    and ``hi`` to ``hi + h``.  Maps of the form ``x -> max(x + A, B)``
    compose into one of the same form, so one backward pass stores, per
    suffix, the composed ``A`` and ``B`` of ``lo`` and the lowest running
    sum ``S`` of ``h``.  From [p, p] with p >= 0, the suffix takes ``hi``
    below 0, at an END no reading can match, exactly when ``p + S < 0``,
    and it ends at ``lo = max(p + A, B)``.  `seq` must be range-checked.
    Returns ``closes(k, p)``.
    """
    step = vocab.step_table
    n = len(seq)
    A, B, S = [0] * (n + 1), [-math.inf] * (n + 1), [math.inf] * (n + 1)
    a_k, b_k, s_k = 0, -math.inf, math.inf  # A, B and S of the suffix after k
    for k in range(n - 1, -1, -1):
        a, h = step[seq[k]]
        if a_k > b_k:
            b_k = a_k
        a_k += a
        s_k = h + s_k if s_k < 0 else h
        A[k], B[k], S[k] = a_k, b_k, s_k
    return lambda k, p: p + S[k] >= 0 and max(p + A[k], B[k]) == 0


def repair_groups(seq: list[int], vocab: TokenVocab) -> list[int]:
    """Make a class sequence well-nested and spellable with minimal edits.

    One forward walk steps the interval [lo, hi] of ENDs still owed by
    ``vocab.step_table``.  An END that would take ``hi`` below 0 matches an
    open group under no reading and is dropped; the ``lo`` groups that
    every reading leaves open at the end are closed by appended ENDs.

    A ``]`` at the top level of a \\sqrt index has no LaTeX spelling: the
    parser would end the index there.  So when the result holds both
    \\sqrt and ``]``, it is walked once as :func:`emit_latex` walks it, and
    every ``]`` that the walk would refuse before its first other fault is
    dropped.  A ``]`` steps the interval by ``(0, 0)``, so dropping it
    changes no group reading, and no later ``]`` is read differently for
    it; :func:`emit_latex` spells every repaired sequence of predictable
    and END ids.

    Raises:
        ShapeMismatch: `seq` is not a 1-d sequence of integers.
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
    out = _repair(seq, vocab)
    if vocab.sqrt_id in out and vocab.bracket_id in out:
        strays: list[int] = []
        try:
            _walk(out, vocab, None, strays)
        except IllNested:  # a fault no repair mends; the strays before it still go
            pass
        drop = set(strays)
        out = [cid for pos, cid in enumerate(out) if pos not in drop]
    return out


def _repair(seq: list[int], vocab: TokenVocab) -> list[int]:
    """:func:`repair_groups`' interval step on a range-checked sequence; it
    keeps each ``]``, and a walk given a `strays` list skips the stray ones."""
    step = vocab.step_table
    lo = hi = 0
    out: list[int] = []
    for cid in seq:
        a, h = step[cid]
        if hi + h >= 0:
            lo, hi = max(lo + a, 0), hi + h
            out.append(cid)
    out.extend([vocab.end_id] * lo)
    return out


def gt_targets(seq: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Chain supervision targets for a canonical sequence.

    Nodes take graph positions 1..L with a virtual start at 0 and a virtual
    end at L+1.  Each node's self target is its own class, its left neighbor
    is the previous position, and its right neighbor the next.

    Returns:
        (self_targets, left_targets, right_targets), each of length L.

    Raises:
        ShapeMismatch: `seq` is not a 1-d sequence of integers.
        EmptyInput: an empty sequence, which has no nodes to supervise.
    """
    self_targets = list(as_ints(seq, "token sequence"))
    if not self_targets:
        raise EmptyInput("empty token sequence has no targets")
    n = len(self_targets)
    left_targets = list(range(0, n))
    right_targets = list(range(2, n + 2))
    return self_targets, left_targets, right_targets
