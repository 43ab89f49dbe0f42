"""The NAMT tensor container: a fixed binary layout for float tensors.

The on-disk tensor format is deliberately tiny so that recognizer stages can
exchange grids and score matrices across machines with no framework
dependency.  Layout, all little-endian regardless of host byte order::

    magic   4 bytes  'NAMT' (4E 41 4D 54)
    version u32      currently 1
    ndim    u32
    dims    u32 * ndim   (each < 2**20)
    dtype   u32      1 = float32
    payload float32 * prod(dims), row-major
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import BadMagic, DimOverflow, TruncatedPayload, as_array, as_scalar

MAGIC = b"NAMT"
VERSION = 1
DTYPE_F32 = 1
MAX_DIM = 1 << 20
_MAX_NDIM = 8


def write_tensor(tensor: np.ndarray, path) -> None:
    """Serialize a float tensor to `path`.

    The input may be any real dtype and byte order; the file always stores
    little-endian float32.

    Raises:
        ShapeMismatch: `tensor` is not a real array, or `path` not a path.
        DimOverflow: rank outside 1..8, or a dimension at or above 2**20.
        NonFinite: NaN or infinity in the data, as stored in float32;
            ``index`` is its flat position.
        OSError: on filesystem failure.
    """
    tensor = as_array(tensor, None, "tensor", finite=False)
    if tensor.ndim == 0 or tensor.ndim > _MAX_NDIM:
        raise DimOverflow(f"rank {tensor.ndim} outside supported range 1..{_MAX_NDIM}")
    for d in tensor.shape:
        if d >= MAX_DIM:
            raise DimOverflow(f"dimension {d} exceeds {MAX_DIM - 1}")
    arr = as_array(np.ascontiguousarray(tensor, dtype=np.dtype("<f4")), None, "tensor")
    header = (
        MAGIC
        + struct.pack("<II", VERSION, arr.ndim)
        + struct.pack(f"<{arr.ndim}I", *arr.shape)
        + struct.pack("<I", DTYPE_F32)
    )
    with open(as_scalar(path, "path", str | os.PathLike), "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def read_tensor(path) -> np.ndarray:
    """Load a tensor written by :func:`write_tensor`.

    Returns a float32 array in native memory order.

    Raises:
        ShapeMismatch: `path` is not a path.
        BadMagic: wrong magic, version, or dtype code.
        DimOverflow: header dimension at or above 2**20.
        TruncatedPayload: file shorter (or longer) than the header declares.
        NonFinite: NaN or infinity in the payload; ``index`` is its flat
            position.
        OSError: on filesystem failure.
    """
    with open(as_scalar(path, "path", str | os.PathLike), "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagic(f"{path}: not a tensor container")
    if len(blob) < 12:
        raise TruncatedPayload(f"{path}: header cut short")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    if ndim == 0 or ndim > _MAX_NDIM:
        raise BadMagic(f"{path}: implausible rank {ndim}")
    need = 12 + 4 * ndim + 4
    if len(blob) < need:
        raise TruncatedPayload(f"{path}: header cut short")
    dims = struct.unpack_from(f"<{ndim}I", blob, 12)
    for d in dims:
        if d >= MAX_DIM:
            raise DimOverflow(f"{path}: dimension {d} exceeds {MAX_DIM - 1}")
    (dtype_code,) = struct.unpack_from("<I", blob, 12 + 4 * ndim)
    if dtype_code != DTYPE_F32:
        raise BadMagic(f"{path}: unsupported dtype code {dtype_code}")
    count = 1
    for d in dims:
        count *= d
    expected = need + 4 * count
    if len(blob) != expected:
        raise TruncatedPayload(f"{path}: expected {expected} bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=need, count=count)
    as_array(flat, None, f"{path}: payload")
    return flat.reshape(dims).astype(np.float32)

