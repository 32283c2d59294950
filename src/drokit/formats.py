"""Binary file formats for point clouds (DROPC) and distance matrices (DROMX).

DROPC layout::

    magic "DROPC\\0" | u32 version=1 | u32 N | u8 has_labels
    N*3 little-endian f64 coordinates (row-major)
    [if labeled] N little-endian u32 label indices
    [if labeled] UTF-8 JSON trailer mapping index -> link name

DROMX layout::

    magic "DROMX\\0" | u32 version=1 | u32 rows | u32 cols | u8 dtype
    row-major little-endian payload (dtype 0 = f64, 1 = f32)

All integers are little-endian.  Read errors report the byte offset at which
decoding failed.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .cloud import PointCloud
from .errors import ContractError, FormatError

DROPC_MAGIC = b"DROPC\x00"
DROMX_MAGIC = b"DROMX\x00"
FORMAT_VERSION = 1

_DTYPE_CODES = {"f64": 0, "f32": 1}
_DTYPE_NUMPY = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class _Reader:
    """Cursor over a file's bytes that has checked its magic and version."""

    def __init__(self, data: bytes, what: str, magic: bytes):
        self.data = data
        self.off = 0
        self.what = what
        if self.take(len(magic), "magic") != magic:
            raise FormatError(f"{what}: bad magic at byte offset 0")
        version = self.u32("version")
        if version != FORMAT_VERSION:
            raise FormatError(f"{what}: unsupported version {version} at byte offset 6")

    def take(self, n: int, desc: str) -> memoryview:
        if self.off + n > len(self.data):
            raise FormatError(f"{self.what}: truncated while reading {desc} "
                              f"at byte offset {self.off}")
        chunk = memoryview(self.data)[self.off:self.off + n]  # a view, not a copy
        self.off += n
        return chunk

    def u32(self, desc: str) -> int:
        return struct.unpack("<I", self.take(4, desc))[0]

    def u8(self, desc: str) -> int:
        return self.take(1, desc)[0]

    def expect_end(self):
        if self.off != len(self.data):
            raise FormatError(f"{self.what}: {len(self.data) - self.off} "
                              f"unexpected trailing bytes at byte offset {self.off}")


def encode_dropc(cloud: PointCloud) -> bytes:
    n = len(cloud)
    has_labels = cloud.labels is not None
    head = DROPC_MAGIC + struct.pack("<IIB", FORMAT_VERSION, n, int(has_labels))
    body = np.ascontiguousarray(cloud.points, dtype="<f8").tobytes()
    if not has_labels:
        return head + body
    names: list[str] = []
    index_of: dict[str, int] = {}
    for label in cloud.labels:
        if label not in index_of:
            index_of[label] = len(names)
            names.append(label)
    idx = np.array([index_of[l] for l in cloud.labels], dtype="<u4")
    trailer = json.dumps({str(i): name for i, name in enumerate(names)},
                         separators=(",", ":")).encode("utf-8")
    return head + body + idx.tobytes() + trailer


def decode_dropc(data: bytes, what: str = "DROPC") -> PointCloud:
    r = _Reader(data, what, DROPC_MAGIC)
    n = r.u32("point count")
    has_labels = r.u8("label flag")
    if has_labels not in (0, 1):
        raise FormatError(f"{what}: label flag must be 0 or 1 at byte offset {r.off - 1}")
    coords = np.frombuffer(r.take(n * 24, "coordinates"), dtype="<f8").reshape(n, 3)
    labels = None
    if has_labels:
        idx_off = r.off
        idx = np.frombuffer(r.take(n * 4, "label indices"), dtype="<u4")
        trailer_off = r.off
        try:
            mapping = json.loads(r.data[r.off:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{what}: bad label trailer at byte offset "
                              f"{trailer_off}: {exc}") from exc
        if not (isinstance(mapping, dict)
                and all(isinstance(name, str) for name in mapping.values())):
            raise FormatError(f"{what}: label trailer at byte offset {trailer_off} "
                              f"is not an object of label names")
        try:
            labels = [mapping[str(i)] for i in idx]
        except KeyError as exc:
            raise FormatError(f"{what}: label index {exc} missing from trailer "
                              f"(indices start at byte offset {idx_off})") from exc
    else:
        r.expect_end()
    return PointCloud(np.array(coords, dtype=float), labels)


def write_dropc(path, cloud: PointCloud) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_dropc(cloud))


def read_dropc(path) -> PointCloud:
    with open(path, "rb") as fh:
        return decode_dropc(fh.read(), what=str(path))


def encode_dromx(matrix: np.ndarray, dtype: str = "f64") -> bytes:
    if dtype not in _DTYPE_CODES:
        raise ContractError(f"dtype must be one of {sorted(_DTYPE_CODES)}")
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {matrix.shape}")
    code = _DTYPE_CODES[dtype]
    rows, cols = matrix.shape
    head = DROMX_MAGIC + struct.pack("<IIIB", FORMAT_VERSION, rows, cols, code)
    payload = np.ascontiguousarray(matrix, dtype=_DTYPE_NUMPY[code]).tobytes()
    return head + payload


def decode_dromx(data: bytes, what: str = "DROMX") -> np.ndarray:
    r = _Reader(data, what, DROMX_MAGIC)
    rows = r.u32("row count")
    cols = r.u32("column count")
    code = r.u8("dtype code")
    if code not in _DTYPE_NUMPY:
        raise FormatError(f"{what}: unknown dtype code {code} at byte offset {r.off - 1}")
    itemsize = _DTYPE_NUMPY[code].itemsize
    payload = r.take(rows * cols * itemsize, "payload")
    r.expect_end()
    return np.frombuffer(payload, dtype=_DTYPE_NUMPY[code]).reshape(rows, cols).copy()


def write_dromx(path, matrix: np.ndarray, dtype: str = "f64") -> None:
    with open(path, "wb") as fh:
        fh.write(encode_dromx(matrix, dtype))


def read_dromx(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_dromx(fh.read(), what=str(path))
