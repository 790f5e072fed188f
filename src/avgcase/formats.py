"""On-disk formats: AMATv1 dense matrices and canonical JSON documents.

AMATv1 layout (all header integers little-endian):

    bytes 0..3   magic b"AMAT"
    u32          version (1)
    u64          rows
    u64          cols
    u32          dtype code (1 = float64 little-endian)
    payload      rows * cols * 8 bytes, row-major

JSON documents (traces, plans, reports) are serialized with sorted keys and
a trailing newline, so identical content yields identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParameterError

__all__ = ["write_amat", "dump_json", "load_json"]

_MAGIC = b"AMAT"
_VERSION = 1
_DTYPE_F64 = 1


def write_amat(path, matrix) -> None:
    """Write a 2-D float64 array to ``path`` in AMATv1 format."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ParameterError(f"AMATv1 stores 2-D matrices, got shape {m.shape}")
    rows, cols = m.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(int(_VERSION).to_bytes(4, "little"))
        fh.write(int(rows).to_bytes(8, "little"))
        fh.write(int(cols).to_bytes(8, "little"))
        fh.write(int(_DTYPE_F64).to_bytes(4, "little"))
        fh.write(m)  # the contiguous buffer itself, not a copy of it


def _read_amat(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(4 + 4 + 8 + 8 + 4)
        if len(header) < 28 or header[:4] != _MAGIC:
            raise ParameterError(f"{path}: not an AMATv1 file")
        version = int.from_bytes(header[4:8], "little")
        rows = int.from_bytes(header[8:16], "little")
        cols = int.from_bytes(header[16:24], "little")
        code = int.from_bytes(header[24:28], "little")
        if version != _VERSION:
            raise ParameterError(f"{path}: unsupported AMAT version {version}")
        if code != _DTYPE_F64:
            raise ParameterError(f"{path}: unsupported dtype code {code}")
        payload = fh.read(rows * cols * 8)
    if len(payload) != rows * cols * 8:
        raise ParameterError(f"{path}: truncated AMAT payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
