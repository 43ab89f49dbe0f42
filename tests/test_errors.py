"""Error classes and the input gate behind every entry point."""

import inspect
import math
import numbers

import numpy as np
import pytest

import hmegraph
from hmegraph import errors
from hmegraph.errors import (
    HmeGraphError,
    NodeCountMismatch,
    NonFinite,
    ShapeMismatch,
    as_array,
    as_scalar,
)


def test_every_error_class_is_exported():
    defined = {
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, HmeGraphError) and obj.__module__ == errors.__name__
    }
    assert defined <= set(hmegraph.__all__)
    for name in hmegraph.__all__:
        assert hasattr(hmegraph, name), name
    assert "as_array" not in hmegraph.__all__
    assert "as_scalar" not in hmegraph.__all__


def test_check_shape_classes():
    """A wrong rank is never a count; a wrong size is a count only when
    every wrong axis counts nodes."""
    a = np.zeros((3, 4))
    as_array(a, (3, None), "a")
    with pytest.raises(ShapeMismatch) as exc:
        as_array(a, (3, 4, None), "a", counts=(0, 1, 2))
    assert type(exc.value) is ShapeMismatch
    with pytest.raises(ShapeMismatch) as exc:
        as_array(a, (None, 5), "a")
    assert type(exc.value) is ShapeMismatch
    with pytest.raises(NodeCountMismatch):
        as_array(a, (2, None), "a", counts=(0,))
    with pytest.raises(ShapeMismatch) as exc:  # the width is off too, and is not a count
        as_array(a, (2, 5), "a", counts=(0,))
    assert type(exc.value) is ShapeMismatch


def test_check_finite_reports_first_row_major_index():
    as_array(np.arange(6, dtype=np.float32), (None,), "a")
    a = np.zeros((2, 3))
    a[1, 0], a[0, 2] = -np.inf, np.nan
    with pytest.raises(NonFinite) as exc:
        as_array(a, (2, 3), "a")
    assert exc.value.index == 2
    assert str(exc.value) == "a: nan at flat index 2"
    with pytest.raises(NonFinite) as exc:
        as_array(a.T, None, "a")  # row-major over the view, not memory order
    assert exc.value.index == 1
    with pytest.raises(NonFinite) as exc:
        as_array([[0.0, 1.0], [math.inf, 0.0]], (2, 2), "a")  # a list, as its array
    assert exc.value.index == 2
    assert as_array(a, (2, 3), "a", finite=False) is a  # the caller proves finiteness


@pytest.mark.parametrize("value, shape, message", [
    ([[1, 2, 3], [4, 5, 6]], (2, None), None),
    ([[1, 2, 3], [4, 5, 6]], (3, None), "a has shape (2, 3), expected (3, None) (None: any size)"),
    ([[1, 2, 3], [4, 5, 6]], (None,), "a must be 1-d, got shape (2, 3)"),
    (((1, 2), (3, 4)), (None, 3), "a has shape (2, 2), expected (None, 3) (None: any size)"),
    (((1, 2), (3, 4)), (None, None, None), "a must be 3-d, got shape (2, 2)"),
    (7.0, (None,), "a must be 1-d, got shape ()"),
    (7, (), None),
    (np.float32(7.0), (None, None), "a must be 2-d, got shape ()"),
    (np.zeros((2, 3)), (2, 4), "a has shape (2, 3), expected (2, 4) (None: any size)"),
    (np.zeros((2, 3)).T, (None,), "a must be 1-d, got shape (3, 2)"),
])
def test_check_shape_reads_any_array_like(value, shape, message):
    """Lists, tuples and scalars are measured as numpy measures them, and
    give the same messages as an array of that shape."""
    if message is None:
        assert np.array_equal(as_array(value, shape, "a"), np.asarray(value))
        return
    with pytest.raises(ShapeMismatch) as exc:
        as_array(value, shape, "a")
    assert str(exc.value) == message


@pytest.mark.parametrize("value, kinds, message", [
    (np.zeros(2, dtype=complex), "fiub", "a holds complex128, not real numbers"),
    (np.array(["x"]), "fiub", "a holds <U1, not real numbers"),
    (np.array([1, None], dtype=object), "fiub", "a holds object, not real numbers"),
    ([1.5, 2], "iu", "a holds float64, not integers"),
    ([True, False], "iu", "a holds bool, not integers"),
    ([1, 2], "U", "a holds int64, not text"),
    ([[1, 2], [3]], "fiub", "a is ragged: its rows differ in length or depth"),
    (None, "fiub", "a holds object, not real numbers"),
])
def test_refused_kind_is_named(value, kinds, message):
    with pytest.raises(ShapeMismatch) as exc:
        as_array(value, None, "a", kinds=kinds)
    assert str(exc.value) == message


def test_valid_array_is_not_copied():
    """An array that passes comes back as itself, views included."""
    grid = np.ones((4, 6), dtype=np.float32)
    for a in (grid, grid[:, ::2], grid.T, np.arange(5), np.zeros(3, dtype=bool)):
        assert as_array(a, None, "a") is a


def test_empty_list_takes_the_wanted_rank():
    """`[]` has no rank numpy can know; it is empty at whatever rank and
    integer kind the caller asks for."""
    got = as_array([], (None, 2), "pairs", kinds="iu")
    assert got.shape == (0, 2) and got.dtype == np.intp
    assert as_array([], (None,), "ids", kinds="iu").dtype == np.intp
    with pytest.raises(ShapeMismatch):
        as_array([], (3, 2), "pairs", kinds="iu")


def test_named_element():
    """With `name`, a fault at one element names it, as the graph readers
    name an edge."""
    def name(i):
        return f"item {'abc'[i]}:"

    with pytest.raises(ShapeMismatch, match=r"^item b: '0\.9' is str: w must be real numbers$"):
        as_array([0.5, "0.9", 1.0], (None,), "w", name=name)
    with pytest.raises(ShapeMismatch, match=r"^item a: None is NoneType"):
        as_array([None, 0.25, 1.0], (None,), "w", name=name)
    with pytest.raises(ShapeMismatch, match="^w is ragged"):  # no element to name
        as_array([0.5, 0.25, [1, 2]], (None,), "w", name=name)
    with pytest.raises(NonFinite, match=r"^item c: inf$") as exc:
        as_array([0.5, 0.25, math.inf], (None,), "w", name=name)
    assert exc.value.index == 2


@pytest.mark.parametrize("value, kind, want", [
    (0.5, numbers.Real, 0.5),
    (np.float32(0.25), numbers.Real, 0.25),
    (3, numbers.Real, 3.0),
    (True, numbers.Real, 1.0),
    (np.int64(4), numbers.Integral, 4),
    ("x", str, "x"),
])
def test_scalar_passes(value, kind, want):
    got = as_scalar(value, "s", kind)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value, kind, message", [
    ("0.5", numbers.Real, "s is str '0.5', not Real"),
    (None, numbers.Real, "s is NoneType None, not Real"),
    (1 + 2j, numbers.Real, "s is complex (1+2j), not Real"),
    (np.array(0.5), numbers.Real, "s is ndarray array(0.5), not Real"),
    (2.5, numbers.Integral, "s is float 2.5, not Integral"),
    (5, str | bytes, "s is int 5, not str | bytes"),
])
def test_scalar_type_named(value, kind, message):
    with pytest.raises(ShapeMismatch) as exc:
        as_scalar(value, "s", kind)
    assert str(exc.value) == message


def test_scalar_finiteness():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFinite, match=f"^s is {value}") as exc:
            as_scalar(value, "s")
        assert exc.value.index is None
    assert as_scalar(math.inf, "s", inf=True) == math.inf
    with pytest.raises(NonFinite):
        as_scalar(np.float64("nan"), "s", inf=True)


def reference_scan(arr):
    """The first NaN or infinity of `arr` in row-major order, one Python
    float at a time: (flat index, value), or None."""
    for i, v in enumerate(np.asarray(arr, dtype=np.float64).reshape(-1).tolist()):
        if not math.isfinite(v):
            return i, v
    return None


def value_class(dtype, kind, rng):
    """A (3, 4) array of `dtype`: non-negative draws with the values of
    `kind` planted at two places, the later one of the other sign where
    that has one."""
    a = rng.random((3, 4)).astype(dtype)
    tiny, neg_nan = np.finfo(dtype).smallest_subnormal, np.copysign(np.nan, -1.0)
    planted = {
        "nonnegative": (), "negative": (-0.5, -2.0), "neg_zero": (-0.0, -0.0),
        "subnormal": (tiny, tiny * 3), "pos_nan": (np.nan, neg_nan),
        "neg_nan": (neg_nan, np.nan), "pos_inf": (np.inf, -np.inf),
        "neg_inf": (-np.inf, np.inf),
    }[kind]
    for (r, c), value in zip(((1, 2), (2, 0)), planted):
        a[r, c] = value
    return a


def layout(a, form):
    """`a` as a contiguous array, a 0-d array of its first planted value,
    an empty array, an unaligned copy, a byte-swapped copy, or a strided
    view of it."""
    if form == "0-d":
        return np.array(a[1, 2])
    if form == "empty":
        return a[:0]
    if form == "unaligned":
        buf = np.zeros(a.nbytes + 1, dtype=np.uint8)[1:].view(a.dtype).reshape(a.shape)
        buf[...] = a
        return buf
    if form == "byte-swapped":
        return a.astype(a.dtype.newbyteorder())
    if form == "strided":
        return np.repeat(a, 2, axis=1)[:, ::-2]
    return a


KINDS = ["nonnegative", "negative", "neg_zero", "subnormal", "pos_nan", "neg_nan", "pos_inf",
         "neg_inf"]
FORMS = ["contiguous", "0-d", "empty", "unaligned", "byte-swapped", "strided"]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_finite_gate_matches_scan(dtype, kind, form):
    """Every float input passes, or raises NonFinite at the first bad value
    in row-major order with the scan's message, whichever read proves it;
    ``nonnegative_max`` proves exactly the arrays of native floats, all
    finite and none below +0.0, and gives their maximum."""
    rng = np.random.default_rng(KINDS.index(kind) * 10 + FORMS.index(form))
    arr = layout(value_class(dtype, kind, rng), form)
    if form == "unaligned" and arr.size:
        assert not arr.flags.aligned
    bad = reference_scan(arr)
    if bad is None:
        assert as_array(arr, None, "a") is arr
    else:
        with pytest.raises(NonFinite) as exc:
            as_array(arr, None, "a")
        assert exc.value.index == bad[0]
        assert str(exc.value) == f"a: {bad[1]} at flat index {bad[0]}"
    top = errors.nonnegative_max(arr)
    proven = arr.dtype.isnative and bad is None and not np.signbit(arr).any()
    assert (top is not None) == proven
    if proven:
        want = arr.max(initial=0)
        assert top.dtype == arr.dtype and top.tobytes() == want.tobytes()
    if proven and arr.ndim == 2:  # an empty reduction gives +0.0
        want = arr.max(axis=0, initial=0)
        assert errors.nonnegative_max(arr, axis=0).tobytes() == want.tobytes()
