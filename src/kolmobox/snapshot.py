"""Binary snapshot format for simulation states.

Layout (all integers little-endian):

    magic   4 bytes  b"KBOX"
    version u32      currently 1
    dim     u32
    n       u32      points per axis
    side    f64
    then per field: a 4-byte ASCII tag followed by n^dim little-endian f64
    values in row-major order (axes x1..xd).

Tags, in write order: "u__1".."u__d" (velocity), "omeg" (frequency), "k___"
(turbulent energy).  The trailing "p___" pressure block of older files is read
and ignored; any other tag, or a repeated one, is an error.  The time label is
not part of the format; reloaded snapshots start at t = 0.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from .errors import SnapshotError
from .fields import Grid
from .model import State

__all__ = ["write_snapshot", "read_snapshot", "state_from_snapshot"]

MAGIC = b"KBOX"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")  # magic, version, dim, n, side
_U_TAGS = ("u__1", "u__2", "u__3")


def write_snapshot(path, state: State) -> None:
    g = state.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.dim, g.n, g.side))
        tagged = [*zip(_U_TAGS, state.u), ("omeg", state.omega), ("k___", state.k)]
        for tag, values in tagged:
            fh.write(tag.encode("ascii"))
            fh.write(values.astype("<f8").tobytes())


def read_snapshot(path) -> Tuple[Grid, dict]:
    """Read a snapshot; returns (grid, {tag: array}) with row-major arrays.

    Every malformed file raises SnapshotError naming the path and the fault.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise SnapshotError(f"{path}: header truncated at {len(data)} bytes")
    magic, version, dim, n, side = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    try:
        grid = Grid(dim, n, side)
    except ValueError as exc:
        raise SnapshotError(f"{path}: bad header: {exc}") from None
    nbytes = 8 * grid.npoints
    known = (*_U_TAGS[:dim], "omeg", "k___", "p___")  # p___: legacy, read and ignored
    fields = {}
    off = _HEADER.size
    while off < len(data):
        raw_tag = data[off : off + 4]
        off += 4
        if len(data) < off + nbytes:
            raise SnapshotError(f"{path}: truncated field {raw_tag!r}")
        try:
            tag = raw_tag.decode("ascii")
        except UnicodeDecodeError:
            raise SnapshotError(f"{path}: non-ASCII field tag {raw_tag!r}") from None
        if tag not in known:
            raise SnapshotError(f"{path}: unknown field tag {tag!r}")
        if tag in fields:
            raise SnapshotError(f"{path}: repeated field tag {tag!r}")
        arr = np.frombuffer(data, dtype="<f8", count=grid.npoints, offset=off).reshape(grid.shape)
        fields[tag] = arr.astype(np.float64)
        off += nbytes
    return grid, fields


def state_from_snapshot(path) -> State:
    grid, fields = read_snapshot(path)
    try:
        u = np.stack([fields[tag] for tag in _U_TAGS[: grid.dim]])
        omega, k = fields["omeg"], fields["k___"]
    except KeyError as exc:
        raise SnapshotError(f"{path}: missing field {exc}") from None
    return State(t=0.0, grid=grid, u=u, omega=omega, k=k)
