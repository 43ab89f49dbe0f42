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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import (
    DanglingGroup,
    EmptyCorpus,
    EmptyInput,
    IllNested,
    UnbalancedBraces,
    UnknownControlSequence,
    VocabMiss,
)

# Token roles as stored in vocabulary files.
ROLE_VISIBLE = "visible"
ROLE_HSE = "hse"        # hierarchy-structural: owns brace groups (\frac, \sqrt, ...)
ROLE_IRS = "irs"        # implicit-relation: scripts and limits (^, _, \limits)
ROLE_END = "end"        # shared imaginary group-end token
ROLE_NONE = "none"      # blank grid cell
ROLE_SOS = "sos"
ROLE_EOS = "eos"

_PREDICTABLE_ROLES = (ROLE_VISIBLE, ROLE_HSE, ROLE_IRS)

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

_CONTROL_RE = re.compile(r"\\[a-zA-Z]+")


@dataclass
class TokenVocab:
    """Immutable symbol table with dense class ids.

    ``symbols[i]`` is the surface form of class id ``i`` and ``roles[i]`` its
    role string.  Ids 0..K-1 are the predictable classes, the ones a grid
    cell can take besides none (K is ``num_predictable``); then come
    ``none_id`` (K), ``end_id``, ``sos_id`` and ``eos_id``.  A cell grid has
    ``grid_classes`` channels (predictables + none), a per-node correction
    row ``correction_classes`` (predictables + none + END).

    The tables are built once: ``group_table[i]`` is the group count of
    class ``i`` when it is structural, else 0 (a structural role on a
    symbol with no known count raises VocabMiss), ``sqrt_id`` is the
    id of \\sqrt, or -1 when the vocabulary has none, and ``multi_symbols``
    lists the multi-character symbols that are not control sequences,
    longest first, as the tokenizer tries them.  ``step_table[i]`` is the
    ``(a, h)`` by which class ``i`` moves the interval [lo, hi] of group
    ENDs still owed (an interval, as a \\sqrt owns one group or two):
    ``lo = max(lo + a, 0)``, ``hi += h``.  END has ``a = h = -1``, \\sqrt
    ``a = 1, h = 2``, any other class its group count for both.
    """

    symbols: list[str]
    roles: list[str]
    _index: dict[str, int] = field(init=False, repr=False)
    num_predictable: int = field(init=False, repr=False)
    none_id: int = field(init=False, repr=False)
    end_id: int = field(init=False, repr=False)
    sos_id: int = field(init=False, repr=False)
    eos_id: int = field(init=False, repr=False)
    grid_classes: int = field(init=False, repr=False)
    correction_classes: int = field(init=False, repr=False)
    group_table: tuple[int, ...] = field(init=False, repr=False)
    sqrt_id: int = field(init=False, repr=False)
    step_table: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    multi_symbols: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {s: i for i, s in enumerate(self.symbols)}
        self._validate()
        k = self.num_predictable = len(self.symbols) - 4
        self.none_id, self.end_id, self.sos_id, self.eos_id = k, k + 1, k + 2, k + 3
        self.grid_classes, self.correction_classes = k + 1, k + 2
        self.group_table = tuple(self.group_count(i) if self.is_structural(i) else 0
                                 for i in range(len(self.symbols)))
        self.sqrt_id = self._index.get("\\sqrt", -1)
        self.step_table = tuple((-1, -1) if i == self.end_id else (g, 2 if i == self.sqrt_id else g)
                                for i, g in enumerate(self.group_table))
        self.multi_symbols = tuple(sorted(
            (sym for sym in self.symbols if len(sym) > 1 and not sym.startswith("\\")),
            key=len, reverse=True,
        ))

    def _validate(self) -> None:
        if len(self.symbols) != len(self.roles):
            raise VocabMiss("symbol and role counts differ")
        if len(set(self.symbols)) != len(self.symbols):
            raise VocabMiss("duplicate symbol in vocabulary")
        counts = {r: self.roles.count(r) for r in (ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS)}
        for role, n in counts.items():
            if n != 1:
                raise VocabMiss(f"vocabulary needs exactly one {role} entry, found {n}")
        k = sum(1 for r in self.roles if r in _PREDICTABLE_ROLES)
        expected = [ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS]
        if self.roles[k:] != expected:
            raise VocabMiss(
                "predictable classes must form a dense prefix followed by "
                f"{expected}, got tail {self.roles[k:]}"
            )

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

    def role_of(self, class_id: int) -> str:
        self.symbol_of(class_id)
        return self.roles[class_id]

    def is_structural(self, class_id: int) -> bool:
        """True when the class opens argument groups (HSE or IRS role)."""
        return self.role_of(class_id) in (ROLE_HSE, ROLE_IRS)

    def check_ids(self, ids) -> None:
        """Raise VocabMiss for the first of `ids` outside the vocabulary."""
        if len(ids) and (min(ids) < 0 or max(ids) >= len(self.symbols)):
            for cid in ids:
                self.symbol_of(cid)

    def is_predictable(self, class_id: int) -> bool:
        return 0 <= class_id < self.num_predictable

    def group_count(self, class_id: int) -> int:
        """Index-less argument-group count of a structural class."""
        sym = self.symbol_of(class_id)
        if sym in IRS_SYMBOLS:
            return 1
        if sym in HSE_GROUP_COUNTS:
            return HSE_GROUP_COUNTS[sym]
        raise VocabMiss(f"{sym!r} is not a structural symbol")

    # --- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write one ``symbol<TAB>role`` line per class, ids by line order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sym, role in zip(self.symbols, self.roles):
                fh.write(f"{sym}\t{role}\n")

    @classmethod
    def load(cls, path) -> "TokenVocab":
        symbols, roles = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise VocabMiss(f"line {lineno}: expected 'symbol<TAB>role'")
                symbols.append(parts[0])
                roles.append(parts[1])
        return cls(symbols, roles)


def build_vocab(corpus: list[str]) -> TokenVocab:
    """Build a vocabulary over the classes that a corpus of labels uses.

    Every label is parsed with :func:`parse_latex` over a draft vocabulary
    of all its tokens but braces, so braces and \\sqrt index brackets, which
    the parser consumes, are not classes; plain brackets are.  Roles come
    from the fixed structural symbol tables; anything unlisted is a plain
    visible symbol.

    Args:
        corpus: non-empty list of LaTeX label strings.

    Raises:
        EmptyCorpus: on an empty list.
        UnbalancedBraces: when a label's braces or \\sqrt index brackets do
            not balance.
        DanglingGroup: when a structural token in a label misses an
            argument group.
        UnknownControlSequence: when a backslash is not followed by letters.
    """
    if not corpus:
        raise EmptyCorpus("vocabulary build needs at least one label")
    draft = _vocab_over({t for label in corpus for t in _tokenize(label, None)} - {"{", "}"})
    used = {cid for label in corpus for cid in parse_latex(label, draft)}
    return _vocab_over(draft.symbols[cid] for cid in used if draft.is_predictable(cid))


def _vocab_over(symbols) -> TokenVocab:
    """The vocabulary whose predictable classes are `symbols`, sorted."""
    ordered = sorted(symbols)
    roles = [ROLE_IRS if sym in IRS_SYMBOLS else ROLE_HSE if sym in HSE_GROUP_COUNTS
             else ROLE_VISIBLE for sym in ordered]
    return TokenVocab(ordered + [NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL],
                      roles + [ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS])


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
        if chunk in ("{", "}", "[", "]"):
            out.append(chunk)
            continue
        if (vocab is not None and chunk in vocab) or chunk in IRS_SYMBOLS or chunk in HSE_GROUP_COUNTS:
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
        UnbalancedBraces: stray or unclosed braces.
        DanglingGroup: a structural token missing an argument group.
        VocabMiss: a token absent from the vocabulary.
        UnknownControlSequence: malformed backslash token.
    """
    toks = _tokenize(s, vocab)
    groups, end, sqrt = vocab.group_table, vocab.end_id, vocab.sqrt_id
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
    other position.  One forward walk: the first \\sqrt builds
    :func:`_suffix_closers` once and every \\sqrt reads it, so the work is
    linear in the sequence length.

    Raises:
        IllNested: the sequence closes groups it never opened, leaves groups
            open, contains tokens that cannot appear in canonical form, or
            holds a ``]`` at the top level of a \\sqrt index, which LaTeX
            would read as the end of the index.
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
    groups, end, none, sqrt = vocab.group_table, vocab.end_id, vocab.none_id, vocab.sqrt_id
    bracket = vocab._index.get("]", -1)
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
        elif g := groups[cid]:
            if cid == sqrt:
                if closes is None:
                    closes = _suffix_closers(seq, vocab)
                if not closes(pos + 1, pending + 1):
                    g = 2
            counts[pos] = g
            stack.append([pos, g])
            pending += g
        elif cid >= none:  # none, <sos> or <eos>
            raise IllNested(f"{vocab.symbols[cid]!r} cannot appear in canonical form")
        elif cid == bracket and stack and stack[-1][1] == 2 and seq[stack[-1][0]] == sqrt:
            raise IllNested(
                f"']' at position {pos} would end the index of the \\sqrt at "
                f"position {stack[-1][0]}"
            )
    if stack:
        raise IllNested("group left open at sequence end")
    return counts, parents


def emit_latex(seq: list[int], vocab: TokenVocab) -> str:
    """Render a canonical class-id sequence back to a spaced LaTeX string.

    Structural arguments are always emitted braced.  A \\sqrt instance is
    emitted index-less unless treating it so would leave the rest of the
    sequence ill-nested, in which case its first group becomes a [...] index
    (see :func:`group_structure`).

    Raises:
        IllNested: an END with no open group, groups left open at the end,
            a token that cannot appear in canonical form, or a ``]`` at the
            top level of a \\sqrt index, which would parse back as the end
            of the index.
        VocabMiss: an id outside the vocabulary.
    """
    counts, parents = group_structure(seq, vocab)
    symbols, sqrt = vocab.symbols, vocab.sqrt_id
    parts: list[str] = []
    for pos, cid in enumerate(seq):
        owner = parents[pos]
        if owner is not None:  # an END; `counts` now counts down the groups left
            counts[owner] -= 1
            if counts[owner]:
                parts.append("] {" if seq[owner] == sqrt else "} {")
            else:
                parts.append("}")
        elif pos in counts:
            parts += symbols[cid], "[" if cid == sqrt and counts[pos] == 2 else "{"
        else:
            parts.append(symbols[cid])
    return " ".join(parts)


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
    for k in range(n - 1, -1, -1):
        a, h = step[seq[k]]
        A[k], B[k], S[k] = A[k + 1] + a, max(A[k + 1], B[k + 1]), h + min(S[k + 1], 0)
    return lambda k, p: p + S[k] >= 0 and max(p + A[k], B[k]) == 0


def repair_groups(seq: list[int], vocab: TokenVocab) -> list[int]:
    """Make a class sequence well-nested with minimal edits.

    One forward walk steps the interval [lo, hi] of ENDs still owed by
    ``vocab.step_table``.  An END that would take ``hi`` below 0 matches an
    open group under no reading and is dropped; the ``lo`` groups that
    every reading leaves open at the end are closed by appended ENDs.

    Raises:
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
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
        EmptyInput: an empty sequence, which has no nodes to supervise.
    """
    if not seq:
        raise EmptyInput("empty token sequence has no targets")
    n = len(seq)
    self_targets = list(seq)
    left_targets = list(range(0, n))
    right_targets = list(range(2, n + 2))
    return self_targets, left_targets, right_targets
