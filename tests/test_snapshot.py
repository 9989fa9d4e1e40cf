"""Binary snapshot format round trips."""

import struct

import numpy as np
import pytest

from kolmobox import fields as F
from kolmobox import model as M
from kolmobox import snapshot as snap
from kolmobox.errors import SnapshotError


def make_state(dim=2, n=8, side=1.5, rng=None):
    rng = rng or np.random.default_rng(3)
    g = F.Grid(dim, n, side)
    u = np.stack([rng.standard_normal(g.shape) for _ in range(dim)])
    return M.State(
        t=0.0,
        grid=g,
        u=u,
        omega=rng.uniform(0.5, 2.0, g.shape),
        k=rng.uniform(0.5, 2.0, g.shape),
    )


def test_round_trip_bytes_identical(tmp_path):
    st = make_state()
    p1 = tmp_path / "a.kbox"
    p2 = tmp_path / "b.kbox"
    snap.write_snapshot(p1, st)
    st2 = snap.state_from_snapshot(p1)
    snap.write_snapshot(p2, st2)
    assert p1.read_bytes() == p2.read_bytes()


def test_values_survive_exactly(tmp_path):
    st = make_state(dim=3, n=4)
    path = tmp_path / "s.kbox"
    snap.write_snapshot(path, st)
    st2 = snap.state_from_snapshot(path)
    assert st2.grid == st.grid
    np.testing.assert_array_equal(st2.omega, st.omega)
    np.testing.assert_array_equal(st2.k, st.k)
    for a, b in zip(st2.u, st.u):
        np.testing.assert_array_equal(a, b)


def test_header_layout(tmp_path):
    st = make_state(dim=1, n=8, side=2.0)
    path = tmp_path / "s.kbox"
    snap.write_snapshot(path, st)
    data = path.read_bytes()
    assert data[:4] == b"KBOX"
    version, dim, n = struct.unpack_from("<III", data, 4)
    (side,) = struct.unpack_from("<d", data, 16)
    assert (version, dim, n, side) == (1, 1, 8, 2.0)
    assert data[24:28] == b"u__1"
    # omega tag follows the velocity block
    assert data[28 + 8 * 8 : 28 + 8 * 8 + 4] == b"omeg"


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.kbox"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        snap.read_snapshot(path)


def test_truncated_field(tmp_path):
    st = make_state(dim=1, n=8)
    path = tmp_path / "s.kbox"
    snap.write_snapshot(path, st)
    data = path.read_bytes()
    (tmp_path / "cut.kbox").write_bytes(data[:-8])
    with pytest.raises(ValueError):
        snap.read_snapshot(tmp_path / "cut.kbox")


def test_missing_field(tmp_path):
    st = make_state(dim=1, n=8)
    path = tmp_path / "s.kbox"
    snap.write_snapshot(path, st)
    data = path.read_bytes()
    # drop the trailing k block
    (tmp_path / "nok.kbox").write_bytes(data[: -(4 + 8 * 8)])
    with pytest.raises(ValueError):
        snap.state_from_snapshot(tmp_path / "nok.kbox")


def valid_snapshot_bytes(tmp_path):
    path = tmp_path / "valid.kbox"
    snap.write_snapshot(path, make_state(dim=1, n=4))
    return path.read_bytes()


def test_truncation_at_every_offset_raises_snapshot_error(tmp_path):
    data = valid_snapshot_bytes(tmp_path)
    assert len(data) == 24 + 3 * (4 + 8 * 4)  # u, omega, k
    cut = tmp_path / "cut.kbox"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(SnapshotError):
            snap.state_from_snapshot(cut)


def block(tag, value, n=4):
    return tag + struct.pack(f"<{n}d", *[value] * n)


@pytest.mark.parametrize("tag", [b"omeg", b"u__1", b"zzzz", b"u__2", b"t___"])
def test_repeated_or_unknown_tag_raises_snapshot_error(tmp_path, tag):
    # a repeated tag must not replace the first block, nor an unknown one pass unread
    bad = tmp_path / "bad.kbox"
    bad.write_bytes(valid_snapshot_bytes(tmp_path) + block(tag, -7.0))
    with pytest.raises(SnapshotError):
        snap.read_snapshot(bad)


def test_legacy_pressure_block_is_ignored(tmp_path):
    # files written while the state still held a pressure end in a p___ block
    legacy = tmp_path / "legacy.kbox"
    legacy.write_bytes(valid_snapshot_bytes(tmp_path) + block(b"p___", 0.25))
    old = snap.state_from_snapshot(legacy)
    st = make_state(dim=1, n=4)
    assert old.grid == st.grid
    for a, b in ((old.u, st.u), (old.omega, st.omega), (old.k, st.k)):
        assert a.tobytes() == b.tobytes()


HEADER_FAULTS = {
    "magic": (0, b"KBOY"),
    "version_2": (4, struct.pack("<I", 2)),
    "version_0": (4, struct.pack("<I", 0)),
    "dim_0": (8, struct.pack("<I", 0)),
    "dim_2": (8, struct.pack("<I", 2)),
    "dim_4": (8, struct.pack("<I", 4)),
    "n_odd": (12, struct.pack("<I", 5)),
    "n_2": (12, struct.pack("<I", 2)),
    "n_8": (12, struct.pack("<I", 8)),
    "n_huge": (12, struct.pack("<I", 2**31)),
    "side_negative": (16, struct.pack("<d", -1.0)),
    "side_zero": (16, struct.pack("<d", 0.0)),
    "side_nan": (16, struct.pack("<d", float("nan"))),
    "side_inf": (16, struct.pack("<d", float("inf"))),
    "tag_non_ascii": (24, b"\xffu_1"),
    "tag_unknown": (24, b"u__9"),
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_corrupt_header_field_raises_snapshot_error(tmp_path, fault):
    data = valid_snapshot_bytes(tmp_path)
    offset, patch = HEADER_FAULTS[fault]
    bad = tmp_path / "bad.kbox"
    bad.write_bytes(data[:offset] + patch + data[offset + len(patch):])
    with pytest.raises(SnapshotError):
        snap.state_from_snapshot(bad)
