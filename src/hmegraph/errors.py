"""Exception types shared across the package, and the array-argument checks.

Every domain failure raises a subclass of :class:`HmeGraphError` so callers
can catch one base type at API boundaries (the CLI maps them to exit code 1).
Plain I/O failures are left to the builtin ``OSError``.

Array arguments go through :func:`check_shape` and :func:`check_finite`, so
a fault raises one class wherever it is found: a wrong rank or axis size
raises :class:`ShapeMismatch`; a size that disagrees with a node count,
:class:`NodeCountMismatch` (a ShapeMismatch); NaN or infinity,
:class:`NonFinite`, whose ``index`` is the first bad value's row-major flat
position (an edge's place in the edge order for a graph's weights; None
for a scalar parameter, or for a loss that is not finite from finite
inputs).
"""

import numpy as np


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
    """A token sequence closes groups it never opened, or leaves groups open.

    ``position`` is the position of a ``]`` at the top level of a \\sqrt
    index, which has no LaTeX spelling; None for any other fault.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message)


# --- tensor container ------------------------------------------------------

class BadMagic(HmeGraphError):
    """File does not start with the expected container magic."""


class DimOverflow(HmeGraphError):
    """A header dimension exceeds the 2**20 sanity bound."""


class TruncatedPayload(HmeGraphError):
    """File ends before the header-declared payload is complete."""


# --- assignment ------------------------------------------------------------

class StepMismatch(HmeGraphError):
    """Attention stack has fewer steps than the label has tokens."""


class EvenKernel(HmeGraphError):
    """Window kernel size must be odd so the window centers on a cell."""


class Infeasible(HmeGraphError):
    """Assignment problem has more rows than columns."""


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


# --- metrics / synthesis ---------------------------------------------------

class LengthMismatch(HmeGraphError):
    """Paired prediction and reference lists differ in length."""


class EmptyInput(HmeGraphError):
    """An aggregate was requested over zero samples, or training targets
    over an empty label."""


class GridTooSmall(HmeGraphError):
    """Layout grid cannot hold the expression's tokens."""


class TooLarge(HmeGraphError):
    """Input exceeds the stated bounds of a brute-force oracle."""


# --- array arguments -------------------------------------------------------

class ShapeMismatch(HmeGraphError):
    """An array argument has the wrong rank, axis size or element type."""


class NodeCountMismatch(ShapeMismatch):
    """An array axis disagrees with the node count."""


class NonFinite(HmeGraphError):
    """An array argument, or a loss result, is NaN or infinite."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


def check_shape(a, shape: tuple, what: str, error: type = ShapeMismatch) -> None:
    """Require one axis of `a` per entry of `shape`, each of that size.

    A None entry matches any size.  A wrong rank raises ShapeMismatch; a
    wrong size raises `error`, NodeCountMismatch for axes that count nodes.
    """
    got = a.shape if isinstance(a, np.ndarray) else np.shape(a)
    if len(got) != len(shape):
        raise ShapeMismatch(f"{what} must be {len(shape)}-d, got shape {got}")
    for n, want in zip(got, shape):
        if want is not None and n != want:
            raise error(f"{what} has shape {got}, expected {shape} (None: any size)")


def check_finite(a, what: str) -> None:
    """Raise NonFinite at the first NaN or infinity of `a`, in row-major order."""
    finite = np.isfinite(a)
    if not finite.all():
        index = int(np.argmin(finite.reshape(-1)))  # the first False
        raise NonFinite(f"{what}: {np.ravel(a)[index]} at flat index {index}", index)
