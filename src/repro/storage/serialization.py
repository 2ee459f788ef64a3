"""Binary serialisation of fuzzy objects.

Record layout (little-endian):

=======  =====  =========================================
offset   size   field
=======  =====  =========================================
0        4      magic ``b"FZOB"``
4        4      format version (uint32)
8        8      object id (int64, -1 when unset)
16       4      number of points n (uint32)
20       4      dimensionality d (uint32)
24       8*n*d  point coordinates (float64, row major)
...      8*n    membership values (float64)
=======  =====  =========================================

The codec is deliberately simple — the store's purpose is to make "object
access" a real, countable I/O event, not to compete with a production codec.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import SerializationError
from repro.fuzzy.fuzzy_object import FuzzyObject

MAGIC = b"FZOB"
FORMAT_VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sIqII")
HEADER_SIZE = _HEADER_STRUCT.size


def encode_object(obj: FuzzyObject) -> bytes:
    """Serialise ``obj`` into a self-describing byte string."""
    points = np.ascontiguousarray(obj.points, dtype="<f8")
    memberships = np.ascontiguousarray(obj.memberships, dtype="<f8")
    object_id = -1 if obj.object_id is None else int(obj.object_id)
    header = _HEADER_STRUCT.pack(
        MAGIC, FORMAT_VERSION, object_id, points.shape[0], points.shape[1]
    )
    return header + points.tobytes() + memberships.tobytes()


def decode_object(payload: bytes) -> FuzzyObject:
    """Inverse of :func:`encode_object`."""
    if len(payload) < HEADER_SIZE:
        raise SerializationError("record shorter than its header")
    magic, version, object_id, n_points, dims = _HEADER_STRUCT.unpack_from(payload, 0)
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}; not a fuzzy object record")
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported record version {version}")
    expected = HEADER_SIZE + 8 * n_points * dims + 8 * n_points
    if len(payload) < expected:
        raise SerializationError(
            f"record truncated: expected {expected} bytes, got {len(payload)}"
        )
    points_bytes = payload[HEADER_SIZE : HEADER_SIZE + 8 * n_points * dims]
    membership_bytes = payload[HEADER_SIZE + 8 * n_points * dims : expected]
    points = np.frombuffer(points_bytes, dtype="<f8").reshape(n_points, dims).copy()
    memberships = np.frombuffer(membership_bytes, dtype="<f8").copy()
    return FuzzyObject(
        points,
        memberships,
        object_id=None if object_id == -1 else int(object_id),
        require_kernel=False,
    )
