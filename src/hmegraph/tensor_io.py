"""Fixed-layout tensor container and graph export.

The on-disk tensor format is deliberately tiny so that recognizer stages can
exchange grids and score matrices across machines with no framework
dependency.  Layout, all little-endian regardless of host byte order::

    magic   4 bytes  'NAMT' (4E 41 4D 54)
    version u32      currently 1
    ndim    u32
    dims    u32 * ndim   (each < 2**20)
    dtype   u32      1 = float32
    payload float32 * prod(dims), row-major

Graphs export as Graphviz DOT for visual inspection.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .decode import _check_graph
from .errors import BadMagic, DimOverflow, TruncatedPayload, as_array, as_ints, as_scalar

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


# --- graph export -----------------------------------------------------------

def export_dot(graph, vocab, highlight: tuple | list = ()) -> str:
    """Render an expression graph as Graphviz DOT source.

    Node labels read ``symbol@(row,col)``; backslash symbols are escaped for
    the DOT string grammar.  Edge labels carry weights to three decimals.
    Consecutive pairs from `highlight` (a winning path) are drawn bold.

    Raises:
        ShapeMismatch: `highlight` is not a sequence of integers, an edge
            key is not a pair of integers, or an edge weight is not a real
            number (naming the edge).
        NodeCountMismatch: n_slots is negative, or an edge end is neither
            the start, the end, nor a node's position within 1..n_slots.
        NonFinite: an edge weight is NaN or infinite.
        VocabMiss: a node's class id is outside the vocabulary.
    """
    _check_graph(graph)
    highlight = as_ints(highlight, "highlight")
    bold = {(highlight[k], highlight[k + 1]) for k in range(len(highlight) - 1)}

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph expression {", "  rankdir=LR;"]
    lines.append(f'  n0 [label="{esc(vocab.symbol_of(vocab.sos_id))}"];')
    for i in sorted(graph.nodes):
        n = graph.nodes[i]
        label = f"{esc(vocab.symbol_of(n.class_id))}@({n.row},{n.col})"
        lines.append(f'  n{i} [label="{label}"];')
    lines.append(f'  n{graph.eos} [label="{esc(vocab.symbol_of(vocab.eos_id))}"];')
    for (s, d), w in sorted(graph.edges.items()):
        style = ", style=bold" if (s, d) in bold else ""
        lines.append(f'  n{s} -> n{d} [label="{w:.3f}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
