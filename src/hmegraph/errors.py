"""Exception types shared across the package.

Every domain failure raises a subclass of :class:`HmeGraphError` so callers
can catch one base type at API boundaries (the CLI maps them to exit code 1).
Plain I/O failures are left to the builtin ``OSError``.
"""


class HmeGraphError(Exception):
    """Base class for all domain errors raised by this package."""


# --- token grammar ---------------------------------------------------------

class EmptyCorpus(HmeGraphError):
    """Vocabulary build received no label strings."""


class UnbalancedBraces(HmeGraphError):
    """A LaTeX string opens and closes groups inconsistently."""

    def __init__(self, string: str, position: int):
        self.string = string
        self.position = position
        super().__init__(f"unbalanced group at token {position}: {string!r}")


class UnknownControlSequence(HmeGraphError):
    """A backslash token could not be isolated from the input."""


class DanglingGroup(HmeGraphError):
    """A structural token is missing one or more of its argument groups."""


class VocabMiss(HmeGraphError):
    """A symbol or class id is absent from the vocabulary."""


class IllNested(HmeGraphError):
    """A token sequence closes groups it never opened, or leaves groups open."""


# --- tensor container ------------------------------------------------------

class BadMagic(HmeGraphError):
    """File does not start with the expected container magic."""


class DimOverflow(HmeGraphError):
    """A header dimension exceeds the 2**20 sanity bound."""


class TruncatedPayload(HmeGraphError):
    """File ends before the header-declared payload is complete."""


class NonFiniteValue(HmeGraphError):
    """Tensor payload contains NaN or infinity."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite value at flat payload index {index}")


# --- assignment ------------------------------------------------------------

class StepMismatch(HmeGraphError):
    """Attention stack has fewer steps than the label has tokens."""


class EvenKernel(HmeGraphError):
    """Window kernel size must be odd so the window centers on a cell."""


class ChannelMismatch(HmeGraphError):
    """Probability grid channel count disagrees with the vocabulary."""


class Infeasible(HmeGraphError):
    """Assignment problem has more rows than columns."""


class ShapeMismatch(HmeGraphError):
    """Tensor arguments disagree in shape."""


class NonFinite(HmeGraphError):
    """A decode or loss input, or a loss result, is NaN or infinite."""


# --- graph decoding --------------------------------------------------------

class NonStochasticRow(HmeGraphError):
    """A probability-typed score row does not sum to 1."""

    def __init__(self, row: int, total: float):
        self.row = row
        self.total = total
        super().__init__(f"row {row} sums to {total!r}, expected 1")


class NoPath(HmeGraphError):
    """No start-to-end path exists in the expression graph."""


class CycleDetected(HmeGraphError):
    """A directed cycle survived where a DAG was required."""


class NodeCountMismatch(HmeGraphError):
    """Score matrix dimensions disagree with the node count."""


# --- metrics / synthesis ---------------------------------------------------

class LengthMismatch(HmeGraphError):
    """Paired prediction and reference lists differ in length."""


class EmptyInput(HmeGraphError):
    """An aggregate was requested over zero samples."""


class GridTooSmall(HmeGraphError):
    """Layout grid cannot hold the expression's tokens."""


class TooLarge(HmeGraphError):
    """Input exceeds the stated bounds of a brute-force oracle."""
