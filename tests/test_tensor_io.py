"""Binary tensor container and graph export."""

import struct

import numpy as np
import pytest

from hmegraph import (
    BadMagic,
    DimOverflow,
    NonFinite,
    TruncatedPayload,
    export_dot,
    read_tensor,
    write_tensor,
)
from hmegraph.decode import ExprGraph, Node


def roundtrip(arr, tmp_path, name="t.namt"):
    path = tmp_path / name
    write_tensor(arr, path)
    return read_tensor(path)


class TestRoundTrip:
    def test_values_and_shape(self, tmp_path):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7
        back = roundtrip(arr, tmp_path)
        assert back.dtype == np.float32
        assert back.shape == (2, 3, 4)
        assert np.array_equal(back, arr)

    def test_rank_one_and_eight(self, tmp_path):
        assert roundtrip(np.ones(5, dtype=np.float32), tmp_path).shape == (5,)
        arr = np.ones((1,) * 8, dtype=np.float32)
        assert roundtrip(arr, tmp_path).shape == (1,) * 8

    def test_float64_input_narrowed(self, tmp_path):
        arr = np.array([1.0, 2.5, -3.25], dtype=np.float64)
        back = roundtrip(arr, tmp_path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr.astype(np.float32))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.namt"
        write_tensor(np.zeros((2, 3), dtype=np.float32), path)
        blob = path.read_bytes()
        assert blob[:4] == b"NAMT"
        version, ndim = struct.unpack_from("<II", blob, 4)
        assert (version, ndim) == (1, 2)
        assert struct.unpack_from("<II", blob, 12) == (2, 3)
        (dtype_code,) = struct.unpack_from("<I", blob, 20)
        assert dtype_code == 1
        assert len(blob) == 24 + 4 * 6

    def test_byte_identical_across_writes(self, tmp_path):
        arr = np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4)
        a, b = tmp_path / "a.namt", tmp_path / "b.namt"
        write_tensor(arr, a)
        write_tensor(arr, b)
        assert a.read_bytes() == b.read_bytes()

    def test_byte_order_invariance(self, tmp_path):
        arr = np.linspace(0, 1, 12, dtype="<f4").reshape(3, 4)
        swapped = arr.astype(">f4")
        a, b = tmp_path / "a.namt", tmp_path / "b.namt"
        write_tensor(arr, a)
        write_tensor(swapped, b)
        assert a.read_bytes() == b.read_bytes()

    def test_noncontiguous_input(self, tmp_path):
        arr = np.arange(24, dtype=np.float32).reshape(4, 6)
        back = roundtrip(arr[:, ::2], tmp_path)
        assert np.array_equal(back, arr[:, ::2])


class TestWriteErrors:
    def test_rank_zero(self, tmp_path):
        with pytest.raises(DimOverflow):
            write_tensor(np.float32(3.0), tmp_path / "t.namt")

    def test_rank_nine(self, tmp_path):
        with pytest.raises(DimOverflow):
            write_tensor(np.ones((1,) * 9, dtype=np.float32), tmp_path / "t.namt")

    def test_dimension_too_large(self, tmp_path):
        with pytest.raises(DimOverflow):
            write_tensor(np.zeros(1 << 20, dtype=np.float32), tmp_path / "t.namt")

    def test_nan_reports_flat_index(self, tmp_path):
        arr = np.zeros((2, 3), dtype=np.float32)
        arr[1, 1] = np.nan
        with pytest.raises(NonFinite) as exc:
            write_tensor(arr, tmp_path / "t.namt")
        assert exc.value.index == 4

    def test_infinity_rejected(self, tmp_path):
        with pytest.raises(NonFinite):
            write_tensor(np.array([np.inf], dtype=np.float32), tmp_path / "t.namt")


class TestReadErrors:
    def write_good(self, tmp_path):
        path = tmp_path / "t.namt"
        write_tensor(np.arange(6, dtype=np.float32).reshape(2, 3), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_bad_dtype_code(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[20] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_implausible_rank(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TruncatedPayload):
            read_tensor(path)

    def test_header_cut_inside_dimensions(self, tmp_path):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(TruncatedPayload, match="header cut short"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TruncatedPayload):
            read_tensor(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedPayload):
            read_tensor(path)

    def test_header_dimension_overflow(self, tmp_path):
        path = tmp_path / "t.namt"
        header = (
            b"NAMT"
            + struct.pack("<II", 1, 1)
            + struct.pack("<I", 1 << 20)
            + struct.pack("<I", 1)
        )
        path.write_bytes(header)
        with pytest.raises(DimOverflow):
            read_tensor(path)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "t.namt"
        header = (
            b"NAMT"
            + struct.pack("<II", 1, 1)
            + struct.pack("<I", 2)
            + struct.pack("<I", 1)
        )
        path.write_bytes(header + struct.pack("<ff", 1.0, float("nan")))
        with pytest.raises(NonFinite) as exc:
            read_tensor(path)
        assert exc.value.index == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tensor(tmp_path / "missing.namt")


def tiny_graph(vocab):
    x = vocab.id_of("x")
    frac = vocab.id_of("\\frac")
    nodes = {
        1: Node(frac, 0, 0, index=1),
        2: Node(x, 0, 1, index=2),
    }
    edges = {(0, 1): 1.5, (1, 2): 2.0, (2, 3): 1.0}
    return ExprGraph(nodes, edges, n_slots=2)


class TestGraphSerialization:
    def test_dot_output(self, vocab):
        dot = export_dot(tiny_graph(vocab), vocab, highlight=(0, 1, 2, 3))
        assert dot.startswith("digraph expression {")
        assert 'label="\\\\frac@(0,0)"' in dot
        assert 'n1 -> n2 [label="2.000", style=bold];' in dot
        assert dot.rstrip().endswith("}")

    def test_dot_without_highlight(self, vocab):
        dot = export_dot(tiny_graph(vocab), vocab)
        assert "style=bold" not in dot
