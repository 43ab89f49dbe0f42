"""Error classes and the array-argument checks behind every entry point."""

import inspect

import numpy as np
import pytest

import hmegraph
from hmegraph import errors
from hmegraph.errors import (
    HmeGraphError,
    NodeCountMismatch,
    NonFinite,
    ShapeMismatch,
    check_finite,
    check_shape,
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
    assert "check_shape" not in hmegraph.__all__
    assert "check_finite" not in hmegraph.__all__


def test_check_shape_classes():
    a = np.zeros((3, 4))
    check_shape(a, (3, None), "a")
    with pytest.raises(ShapeMismatch) as exc:
        check_shape(a, (3, 4, None), "a", NodeCountMismatch)
    assert type(exc.value) is ShapeMismatch  # a wrong rank is never a count
    with pytest.raises(ShapeMismatch) as exc:
        check_shape(a, (None, 5), "a")
    assert type(exc.value) is ShapeMismatch
    with pytest.raises(NodeCountMismatch):
        check_shape(a, (2, None), "a", NodeCountMismatch)


def test_check_finite_reports_first_row_major_index():
    check_finite(np.arange(6, dtype=np.float32), "a")
    a = np.zeros((2, 3))
    a[1, 0], a[0, 2] = -np.inf, np.nan
    with pytest.raises(NonFinite) as exc:
        check_finite(a, "a")
    assert exc.value.index == 2
    with pytest.raises(NonFinite) as exc:
        check_finite(a.T, "a")  # row-major over the view, not memory order
    assert exc.value.index == 1


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
        check_shape(value, shape, "a")
        return
    with pytest.raises(ShapeMismatch) as exc:
        check_shape(value, shape, "a")
    assert str(exc.value) == message
