"""Exception types shared across the package, and the one input gate.

Every domain failure raises a subclass of :class:`HmeGraphError` so callers
can catch one base type at API boundaries (the CLI maps them to exit code 1).

Every exported function checks each argument once, at entry, through
:func:`as_array` for an array, :func:`as_ints` for a sequence of integers
(class ids, a path of graph positions), :func:`as_pairs` for a sequence of
integer pairs (an assignment, a graph's edge keys), and :func:`as_scalar`
for a number, a string or a path, so a fault raises one class wherever it
is found:

- a wrong element type, dtype or argument type (a list of strings for a
  grid, ``"0.5"`` for a threshold, None for a LaTeX string):
  :class:`ShapeMismatch`, naming the dtype or type;
- a wrong rank or axis size: :class:`ShapeMismatch`; a size that disagrees
  with a node count, :class:`NodeCountMismatch` (a ShapeMismatch);
- NaN or infinity: :class:`NonFinite`, whose ``index`` is the first bad
  value's row-major flat position (an edge's place in the edge order for a
  graph's weights; None for a scalar, or for a loss that is not finite
  from finite inputs).  A native float array of values from +0.0 up is
  proven finite by one unsigned maximum of its bits,
  :func:`nonnegative_max`, which grid extraction also reads as the symbol
  channels' maximum; any other float array is scanned by
  :func:`scan_finite`.

A text file is read through :func:`read_text`, which raises a class its
caller picks, naming the file and the line, for bytes that are not UTF-8.

A list or tuple where an array is expected is read as numpy reads it, so
it meets the same outcome as that array; so is one of the package's
records, each a named tuple of its fields.  Three faults stay builtin:

- a wrong number of arguments: ``TypeError``, from the call itself;
- a failure of the file system: ``OSError``;
- an argument that should be one of the package's own objects (a
  :class:`~hmegraph.tokens.TokenVocab`, a list of
  :class:`~hmegraph.decode.Node`, a :class:`~hmegraph.synth.NoiseSpec`, a
  :class:`~hmegraph.assignment.PgdLoss`) but is something else, or is one
  built with fields of the wrong type: it is read by attribute and fails
  where it is first read.  An :class:`~hmegraph.decode.ExprGraph`'s edges
  and ``n_slots`` are the exception: every reader of a graph
  (``longest_path``, ``prune_and_acyclify``, ``export_dot``) checks that
  ``n_slots`` is not negative, that every key is a pair of integers, that
  every end is the start, the end or a node's position, and that every
  weight is a finite real number.
"""

import itertools
import numbers

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
    """An argument has the wrong type, element type, rank or axis size."""


class NodeCountMismatch(ShapeMismatch):
    """An array axis disagrees with the node count."""


class NonFinite(HmeGraphError):
    """An argument, or a loss result, is NaN or infinite."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


_KINDS = {"fiub": "real numbers", "iu": "integers", "U": "text"}
# Each native IEEE 754 float dtype, its unsigned integer of the same width,
# and the bit pattern of +inf in that integer.
_BITS = {np.dtype(f): (np.dtype(u), np.array(np.inf, f).view(u)[()])
         for f, u in (("f2", "u2"), ("f4", "u4"), ("f8", "u8"))}


def nonnegative_max(arr: np.ndarray, axis=None):
    """``arr.max(axis)`` when every value of `arr` is finite and not below
    +0.0, and None when one is not, or when `arr` is not a native float16,
    float32 or float64 array.

    It is read once, as unsigned integers.  From +0.0 up to +inf, an IEEE
    754 float's bit pattern orders as its value does (IEEE 754-2019,
    5.10), and every other value (-0.0, a negative number, NaN of either
    sign) has a pattern above that of +inf.  So a maximum pattern below
    +inf's proves every value finite and not below +0.0, and it is the
    pattern of the values' maximum.  An empty array, or an empty reduction,
    gives +0.0.
    """
    if (bits := _BITS.get(arr.dtype)) is None:
        return None
    top = arr.view(bits[0]).max(axis=axis, initial=0)
    if (top if axis is None else top.max(initial=0)) >= bits[1]:
        return None
    return top.view(arr.dtype)


def scan_finite(arr: np.ndarray, what: str, name=None) -> None:
    """Raise NonFinite at the first NaN or infinity of `arr` in row-major
    order, with that flat index, named as :func:`as_array` names it; return
    when every value is finite."""
    if not (ok := np.isfinite(arr).reshape(-1)).all():
        index = int(np.argmin(ok))  # the first False
        value = arr.reshape(-1)[index]
        raise NonFinite(f"{name(index)} {value}" if name else
                        f"{what}: {value} at flat index {index}", index)


def as_array(a, shape, what: str, *, counts=(), kinds: str = "fiub", finite: bool = True,
             name=None) -> np.ndarray:
    """`a` as a checked numpy array: `a` itself when it is a valid ndarray.

    - Conversion: ``np.asarray``, so a list or tuple reads as numpy reads
      it, and a ragged one is refused.  ``[]``, which numpy reads as 1-d
      float64, is empty at whatever rank `shape` asks for, as ``intp``
      when floats are refused: it holds no value of the wrong kind.
    - Kind: the dtype's kind must be one of `kinds`, real float, integer
      or bool by default (``"iu"``: integers; ``"U"``: text).
    - Shape: one axis per entry of `shape`, each of that size; a None
      entry matches any size, and a None `shape` any shape.  The axes
      listed in `counts` count nodes: when only they are off, the error is
      NodeCountMismatch.
    - Finiteness, unless `finite` is false (for a caller whose own scan
      of the array already proves it): NonFinite at the first NaN or
      infinity in row-major order, with that flat index.  A native
      float16, float32 or float64 array of values from +0.0 up, as
      probabilities and attention weights are, passes on one read, its
      :func:`nonnegative_max`; any other float array (a negative value,
      -0.0, NaN, an infinity, a non-native byte order or another float
      dtype) is scanned by :func:`scan_finite`.

    `name`, for a 1-d argument, maps an element's index to its name, as
    ``"edge (0, 2): weight"``: a fault at one element then names it.

    Raises:
        ShapeMismatch: a ragged nesting, a refused dtype (naming it, or
            naming the element whose type it is), a wrong rank, or a wrong
            axis size.
        NodeCountMismatch: only axes in `counts` have the wrong size.
        NonFinite: NaN or infinity, when `finite`.
    """
    try:
        arr = np.asarray(a)
    except ValueError:
        raise ShapeMismatch(f"{what} is ragged: its rows differ in length or depth") from None
    if (kind := arr.dtype.kind) not in kinds:
        if arr.size and name:  # name the first element whose own kind is refused
            i, v = next(((i, v) for i, v in enumerate(a) if np.asarray(v).dtype.kind not in kinds),
                        (0, a))
            raise ShapeMismatch(f"{name(i)} {v!r} is {type(v).__name__}: {what} must be "
                                f"{_KINDS[kinds]}")
        if arr.size:
            raise ShapeMismatch(f"{what} holds {arr.dtype}, not {_KINDS[kinds]}")
        arr = arr.astype(np.intp)
    if shape is not None and arr.shape != shape:
        if arr.shape == (0,) and len(shape) > 1:
            arr = arr.reshape(0, *(n or 0 for n in shape[1:]))
        if arr.ndim != len(shape):
            raise ShapeMismatch(f"{what} must be {len(shape)}-d, got shape {arr.shape}")
        for n, want in zip(arr.shape, shape):
            if want is not None and want != n:
                bad = {i for i, want in enumerate(shape) if want not in (None, arr.shape[i])}
                raise (NodeCountMismatch if bad <= set(counts) else ShapeMismatch)(
                    f"{what} has shape {arr.shape}, expected {shape} (None: any size)")
    if finite and kind == "f" and nonnegative_max(arr) is None:
        scan_finite(arr, what, name)
    return arr


def as_ints(seq, what: str) -> list:
    """`seq` as a list of ints, checked as :func:`as_array` checks a 1-d
    integer array.  A list of Python ints, as the package's own functions
    pass, comes back as itself: one pass over the element types replaces
    the conversion."""
    if type(seq) is list and set(map(type, seq)) <= {int}:
        return seq
    return as_array(seq, (None,), what, kinds="iu").tolist()


def as_pairs(seq, what: str, name=None) -> list:
    """`seq` as a list of integer pairs, checked as :func:`as_array` checks
    an (n, 2) integer array.  A list of 2-tuples of Python ints, as
    ``hungarian`` returns and a graph's edge keys are, comes back as
    itself: passes over the types and lengths replace the conversion.

    `name` maps an element's index to its name, as ``"edge key (0, 1.0)"``;
    with it, each element is checked on its own as a 1-d array of two
    integers, so a fault names the element.
    """
    if (type(seq) is list and set(map(type, seq)) <= {tuple} and set(map(len, seq)) <= {2}
            and set(map(type, itertools.chain.from_iterable(seq))) <= {int}):
        return seq
    if name is None:
        return as_array(seq, (None, 2), what, kinds="iu").tolist()
    return [as_array(pair, (2,), name(i), kinds="iu").tolist() for i, pair in enumerate(seq)]


def as_scalar(x, what: str, kind=numbers.Real, inf: bool = False):
    """`x`, checked to be an instance of `kind`, a class or a union of them.

    A real number (`kind` numbers.Real) comes back as a float, and must be
    finite: NaN raises NonFinite, and so does an infinity unless `inf`.  An
    integer (`kind` numbers.Integral) comes back as an int.  Any other kind,
    such as str or a vocabulary, comes back as it is.

    Raises:
        ShapeMismatch: `x` is not a `kind`, naming its type.
        NonFinite: a real `x` that is NaN, or infinite unless `inf`.
    """
    if not (type(x) is float and kind is numbers.Real or isinstance(x, kind)):
        kinds = getattr(kind, "__name__", kind)  # a class, or a union's own spelling
        raise ShapeMismatch(f"{what} is {type(x).__name__} {x!r}, not {kinds}")
    if kind is not numbers.Real:
        return int(x) if kind is numbers.Integral else x
    if (x := float(x)) - x and (x != x or not inf):  # x - x is 0 unless NaN or infinite
        raise NonFinite(f"{what} is {x}, not a finite number")
    return x


def read_text(path, fault=ValueError) -> str:
    """The text of the UTF-8 file at `path`, with its line ends read as
    text mode reads them: ``\\r\\n`` and ``\\r`` become ``\\n``.  Bytes
    that are not UTF-8 raise `fault`, naming the path and the line of the
    first of them.  Neither line end is a byte of a longer UTF-8 sequence,
    so they are replaced before decoding."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise fault(f"{path}: line {line} is not UTF-8 text ({exc.reason})") from None
