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
    longest first, as the tokenizer tries them.
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
    """Build a vocabulary by scanning label strings.

    Braces are dropped ('{' is absorbed, '}' becomes the shared END class),
    \\sqrt index brackets are dropped, and every other token becomes a
    predictable class.  Roles come from the fixed structural symbol tables;
    anything unlisted is a plain visible symbol.

    Args:
        corpus: non-empty list of LaTeX label strings.

    Raises:
        EmptyCorpus: on an empty list.
        UnbalancedBraces: when a label's braces do not balance.
        UnknownControlSequence: when a backslash is not followed by letters.
    """
    if not corpus:
        raise EmptyCorpus("vocabulary build needs at least one label")
    seen: set[str] = set()
    for label in corpus:
        toks = _tokenize(label, vocab=None)
        depth = 0
        sqrt_index_depth = 0
        prev = None
        for pos, t in enumerate(toks):
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
                if depth < 0:
                    raise UnbalancedBraces(label, pos)
            elif t == "[" and prev == "\\sqrt":
                sqrt_index_depth += 1
            elif t == "]" and sqrt_index_depth > 0:
                sqrt_index_depth -= 1
            else:
                seen.add(t)
            prev = t
        if depth != 0:
            raise UnbalancedBraces(label, len(toks))
    ordered = sorted(seen)
    roles = []
    for sym in ordered:
        if sym in IRS_SYMBOLS:
            roles.append(ROLE_IRS)
        elif sym in HSE_GROUP_COUNTS:
            roles.append(ROLE_HSE)
        else:
            roles.append(ROLE_VISIBLE)
    symbols = ordered + [NONE_SYMBOL, END_SYMBOL, SOS_SYMBOL, EOS_SYMBOL]
    roles += [ROLE_NONE, ROLE_END, ROLE_SOS, ROLE_EOS]
    return TokenVocab(symbols, roles)


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


def instance_group_counts(seq: list[int], vocab: TokenVocab) -> dict[int, int]:
    """Resolve the argument-group count of each structural token instance.

    Returns a map from sequence position to group count.  Most symbols have
    a fixed count; a \\sqrt instance is read as index-less (one group) unless
    that reading would leave the rest of the sequence ill-nested, in which
    case it takes two groups, index first.  Runs in linear time: the first
    \\sqrt builds :func:`_suffix_closers` once, and every \\sqrt reads it.

    Raises:
        IllNested: the sequence closes groups it never opened, leaves groups
            open, or contains tokens that cannot appear in canonical form.
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
    groups, end, none, sqrt = vocab.group_table, vocab.end_id, vocab.none_id, vocab.sqrt_id
    counts: dict[int, int] = {}
    stack: list[int] = []
    pending = 0  # the sum of `stack`: group ENDs still owed
    closers = None
    for pos, cid in enumerate(seq):
        if cid == end:
            if not stack:
                raise IllNested(f"group end at position {pos} closes nothing")
            pending -= 1
            stack[-1] -= 1
            if stack[-1] == 0:
                stack.pop()
        elif g := groups[cid]:
            if cid == sqrt:
                if closers is None:
                    closers = _suffix_closers(seq, vocab)
                if not closers(pos + 1, pending + 1):
                    g = 2
            counts[pos] = g
            stack.append(g)
            pending += g
        elif cid >= none:  # none, <sos> or <eos>
            raise IllNested(f"{vocab.symbols[cid]!r} cannot appear in canonical form")
    if stack:
        raise IllNested("group left open at sequence end")
    return counts


def end_parents(seq: list[int], vocab: TokenVocab) -> list[int | None]:
    """Position of the owning structural token for each END in a sequence.

    Non-END positions map to None.  Both ENDs of a two-group symbol point
    back at the same owner.
    """
    counts = instance_group_counts(seq, vocab)
    parents: list[int | None] = [None] * len(seq)
    stack: list[list[int]] = []  # [owner position, groups remaining]
    for pos, cid in enumerate(seq):
        if cid == vocab.end_id:
            frame = stack[-1]
            parents[pos] = frame[0]
            frame[1] -= 1
            if frame[1] == 0:
                stack.pop()
        elif pos in counts:
            stack.append([pos, counts[pos]])
    return parents


def emit_latex(seq: list[int], vocab: TokenVocab) -> str:
    """Render a canonical class-id sequence back to a spaced LaTeX string.

    Structural arguments are always emitted braced.  A \\sqrt instance is
    emitted index-less unless treating it so would leave the rest of the
    sequence ill-nested, in which case its first group becomes a [...] index.

    Raises:
        IllNested: an END with no open group, or groups left open at the end.
        VocabMiss: an id outside the vocabulary.
    """
    counts = instance_group_counts(seq, vocab)
    symbols, end, sqrt = vocab.symbols, vocab.end_id, vocab.sqrt_id
    parts: list[str] = []
    # Stack frames: [groups_remaining, closer_for_current_group].
    stack: list[list] = []
    for pos, cid in enumerate(seq):
        if cid == end:
            frame = stack[-1]
            parts.append(frame[1])
            frame[0] -= 1
            if frame[0] == 0:
                stack.pop()
            else:
                frame[1] = "}"
                parts.append("{")
            continue
        parts.append(symbols[cid])
        if pos in counts:
            groups = counts[pos]
            if cid == sqrt and groups == 2:
                stack.append([2, "]"])
                parts.append("[")
            else:
                stack.append([groups, "}"])
                parts.append("{")
    return " ".join(parts)


def _pending_step(lo: int, hi: int, cid: int, vocab: TokenVocab) -> tuple[int, int] | None:
    """Interval of pending group ENDs after one more token.

    A \\sqrt may open one or two groups, so the count of ENDs still owed is
    tracked as the interval [lo, hi].  Returns None for an END that no
    reading can match to an open group.  `cid` must be range-checked.
    """
    if cid == vocab.end_id:
        return None if hi == 0 else (max(lo, 1) - 1, hi - 1)
    g = vocab.group_table[cid]
    if g and cid == vocab.sqrt_id:
        return lo + 1, hi + 2
    return lo + g, hi + g


def _suffix_closers(seq: list[int], vocab: TokenVocab):
    """Whether ``seq[k:]`` can close exactly `p` open groups, for any k, p.

    Each token maps the interval [lo, hi] of :func:`_pending_step` on its
    own: ``hi`` moves by a fixed step, and ``lo`` by ``max(lo + a, b)``
    (``a = -1, b = 0`` for an END, ``a = g, b = -inf`` otherwise), a map
    that composes into one of the same form.  So one backward pass stores,
    per suffix, the composed ``A`` and ``B`` of ``lo`` and the lowest ``hi``
    offset ``M`` before any END.  From [p, p], the suffix fails an END
    exactly when ``p + M <= 0`` and ends at ``lo = max(p + A, B)``.  `seq`
    must be range-checked.  Returns ``closes(k, p)``.
    """
    end, sqrt, groups = vocab.end_id, vocab.sqrt_id, vocab.group_table
    n = len(seq)
    A, B, M = [0] * (n + 1), [-math.inf] * (n + 1), [math.inf] * (n + 1)
    for k in range(n - 1, -1, -1):
        cid = seq[k]
        if cid == end:
            A[k], B[k], M[k] = A[k + 1] - 1, max(A[k + 1], B[k + 1]), min(0, M[k + 1] - 1)
        else:
            g = groups[cid]
            A[k], B[k] = A[k + 1] + g, B[k + 1]
            M[k] = M[k + 1] + (2 if g and cid == sqrt else g)
    return lambda k, p: p + M[k] > 0 and max(p + A[k], B[k]) == 0


def repair_groups(seq: list[int], vocab: TokenVocab) -> list[int]:
    """Make a class sequence well-nested with minimal edits.

    ENDs that no reading can match to an open group are dropped; groups
    still open at the end are closed by appended ENDs.

    Raises:
        VocabMiss: an id outside the vocabulary.
    """
    vocab.check_ids(seq)
    span = (0, 0)
    out: list[int] = []
    for cid in seq:
        step = _pending_step(*span, cid, vocab)
        if step is not None:
            span = step
            out.append(cid)
    out.extend([vocab.end_id] * span[0])
    return out


def gt_targets(seq: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Chain supervision targets for a canonical sequence.

    Nodes take graph positions 1..L with a virtual start at 0 and a virtual
    end at L+1.  Each node's self target is its own class, its left neighbor
    is the previous position, and its right neighbor the next.

    Returns:
        (self_targets, left_targets, right_targets), each of length L.
    """
    if not seq:
        raise ValueError("empty token sequence has no targets")
    n = len(seq)
    self_targets = list(seq)
    left_targets = list(range(0, n))
    right_targets = list(range(2, n + 2))
    return self_targets, left_targets, right_targets
