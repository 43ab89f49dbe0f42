"""The NAMT tensor container: layout, determinism, and endianness.

Every tensor the toolkit exchanges with the outside world travels in one
tiny format: magic, version, rank, dimensions, dtype word, then raw
little-endian float32 data.  Writing is canonical, so the same tensor
always produces the same bytes no matter how the source array is stored.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from hmegraph import read_tensor, write_tensor


def main():
    with tempfile.TemporaryDirectory(prefix="namt-demo-") as tmp:
        show(Path(tmp))


def show(work):
    rng = np.random.default_rng(1)
    tensor = rng.random((2, 3, 4), dtype=np.float32)

    path = work / "demo.namt"
    write_tensor(tensor, path)
    blob = path.read_bytes()

    magic, version, rank = struct.unpack_from("<4sII", blob)
    dims = struct.unpack_from(f"<{rank}I", blob, 12)
    (dtype_word,) = struct.unpack_from("<I", blob, 12 + 4 * rank)
    print(f"file size      {len(blob)} bytes")
    print(f"magic/version  {magic} v{version}")
    print(f"rank and dims  {rank} -> {dims}")
    print(f"dtype word     {dtype_word} (float32)")

    back = read_tensor(path)
    print(f"round trip     bit-exact: {np.array_equal(back, tensor)}")

    big_endian = tensor.astype(">f4")
    other = work / "swapped.namt"
    write_tensor(big_endian, other)
    print(f"byte-swapped input, identical file: "
          f"{other.read_bytes() == blob}")

    f64 = tensor.astype(np.float64)
    third = work / "f64.namt"
    write_tensor(f64, third)
    print(f"float64 input, identical file:      "
          f"{third.read_bytes() == blob}")


if __name__ == "__main__":
    main()
