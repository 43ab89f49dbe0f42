"""Expression-level accuracy: token edit distance and ExpRate reports."""

from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyInput, HmeGraphError, LengthMismatch, as_array, as_ints
from .tokens import TokenVocab, parse_latex

# Sentinel distance for predictions that do not parse; larger than any real
# edit distance so such samples always count as wrong.
UNPARSEABLE = 1 << 30


def token_edit_distance(a: list[int], b: list[int]) -> int:
    """Levenshtein distance between two class-id sequences.

    Insertions, deletions, and substitutions all cost 1.  Runs in O(len(a)
    * len(b)) with a two-row table.

    Raises:
        ShapeMismatch: `a` or `b` is not a sequence of integers.
    """
    a, b = as_ints(a, "sequence a"), as_ints(b, "sequence b")
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[len(b)]


class EvalReport(NamedTuple):
    """Expression-level accuracy at zero, one, and two token errors."""

    exprate: float
    leq1: float
    leq2: float
    n: int
    per_sample: list[int]

    def __repr__(self) -> str:  # leaves out per_sample
        return (f"EvalReport(exprate={self.exprate!r}, leq1={self.leq1!r}, "
                f"leq2={self.leq2!r}, n={self.n!r})")

    def as_dict(self) -> dict:
        return self._asdict()


def evaluate(preds: list[str], refs: list[str], vocab: TokenVocab) -> EvalReport:
    """Score predictions against references on canonical token sequences.

    Both sides are parsed to canonical form first, so brace spelling
    differences do not count as errors.  A prediction that fails to parse
    scores the :data:`UNPARSEABLE` distance and counts as wrong at every
    threshold.  References must parse; their errors propagate.

    Raises:
        ShapeMismatch: predictions or references are not a sequence of
            strings.
        LengthMismatch: pred and ref counts differ.
        EmptyInput: nothing to score.
    """
    preds = as_array(preds, (None,), "predictions", kinds="U").tolist()
    refs = as_array(refs, (None,), "references", kinds="U").tolist()
    if len(preds) != len(refs):
        raise LengthMismatch(f"{len(preds)} predictions for {len(refs)} references")
    if not refs:
        raise EmptyInput("no prediction/reference pairs")
    dists = []
    for pred, ref in zip(preds, refs):
        ref_seq = parse_latex(ref, vocab)
        try:
            pred_seq = parse_latex(pred, vocab)
        except HmeGraphError:
            dists.append(UNPARSEABLE)
            continue
        dists.append(token_edit_distance(pred_seq, ref_seq))
    n = len(dists)
    return EvalReport(
        exprate=sum(d == 0 for d in dists) / n,
        leq1=sum(d <= 1 for d in dists) / n,
        leq2=sum(d <= 2 for d in dists) / n,
        n=n,
        per_sample=dists,
    )
