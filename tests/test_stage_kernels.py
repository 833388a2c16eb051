"""Oracle tests for the geocode and tiling kernels.

``fnv1a64`` is checked against a pure-Python byte loop, ``hilbert_xy2d``
against the classic per-bit x2d loop it replaced; plus the fail-loud
contracts of ``TileAssign`` (non-finite coordinates, resolution bound), and
that the column readers give the same result whatever the chunk layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from rayjoin.config import BadCoordinateValue
from rayjoin.functions.text import _binary_u64
from rayjoin.geom.batch import GeomBatch
from rayjoin.geom.encode import points_geom
from rayjoin.stages.geocode import fnv1a64
from rayjoin.stages.tiles import TileAssign, hilbert_xy2d
from rayjoin.util import one_array

_M64 = 2**64 - 1


def _fnv_py(b: bytes) -> int:
    h = 14695981039346656037
    for c in b:
        h = ((h ^ c) * 1099511628211) & _M64
    return h


def _fnv_oracle(values) -> np.ndarray:
    enc = [b"" if v is None else v if isinstance(v, bytes) else v.encode() for v in values]
    return np.array([_fnv_py(b) for b in enc], dtype=np.uint64)


@pytest.mark.parametrize(
    "arr",
    [
        pa.array([""]),
        pa.array(["", "", ""]),
        pa.array(["a", "b", "\x00", "z"]),
        pa.array(["é", "☃x", "日本語のURL", "naïve/🌍"]),
        pa.array(["abcd", "abce", "zzzz"]),  # equal lengths: no ragged tail
        pa.array(["q" * 10_000, "a", "", "bb", "ccc"]),
        pa.array([f"https://ex.com/{i * 7919 % 1000}" for i in range(300)]).slice(37, 200),
        pa.chunked_array([["a", "bcd"], [], ["", "zz", "yyyyyy"]]),
        pa.array(["a", "bcdef", "", "xy"], pa.large_string()),
        pa.array([b"\x00\xff", b"", b"\x80abc"], pa.binary()),
        pa.array(["abc", None, "", None, "d"]),  # null hashes like ""
    ],
    ids=["empty", "all_empty", "one_byte", "utf8", "equal_len", "long_among_short",
         "sliced", "chunked", "large_string", "binary", "nulls"],
)
def test_fnv1a64_matches_byte_loop(arr):
    got = fnv1a64(arr)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, _fnv_oracle(arr.to_pylist()))


def _chunk_layouts(arr: pa.Array) -> dict:
    """``arr[5:]`` as one chunk, several chunks, and a non-zero-offset slice
    of a one-chunk column."""
    tail = arr.slice(5)
    return {
        "one_chunk": pa.chunked_array([pa.concat_arrays([tail])]),
        "multi_chunk": pa.chunked_array([tail.slice(0, 3), tail.slice(3, 0), tail.slice(3)]),
        "sliced": pa.chunked_array([arr]).slice(5),
    }


def test_column_readers_ignore_chunk_layout():
    """``fnv1a64``, ``_binary_u64`` and ``GeomBatch.from_arrow`` read a
    one-chunk column in place and give the same result for any layout,
    zero chunks included."""
    rng = np.random.default_rng(5)
    n = 40
    strings = pa.array([f"https://ex.com/{i * 7919}/{'x' * (i % 9)}" for i in range(n)])
    sets = pa.array([np.unique(rng.integers(0, 50, i % 6)).astype(np.uint64).tobytes()
                     for i in range(n)], pa.binary())
    geoms = points_geom(np.arange(n), rng.random(n), rng.random(n))
    exp_h = fnv1a64(strings.slice(5))
    exp_v, exp_l = _binary_u64(sets.slice(5))
    exp_g = GeomBatch.from_arrow(geoms.slice(5))
    for name, col in _chunk_layouts(strings).items():
        np.testing.assert_array_equal(fnv1a64(col), exp_h, err_msg=name)
    for name, col in _chunk_layouts(sets).items():
        v, lens = _binary_u64(col)
        np.testing.assert_array_equal(v, exp_v, err_msg=name)
        np.testing.assert_array_equal(lens, exp_l, err_msg=name)
    geo_layouts = {
        "one_chunk": geoms.slice(5).combine_chunks(),
        "multi_chunk": pa.concat_tables([geoms.slice(5, 3), geoms.slice(8, 0), geoms.slice(8)]),
        "sliced": geoms.slice(5),
    }
    for name, t in geo_layouts.items():
        g = GeomBatch.from_arrow(t)
        for f in ("row_id", "kind", "bbox", "xy", "ring_vert_off", "edges"):
            np.testing.assert_array_equal(getattr(g, f), getattr(exp_g, f), err_msg=f"{name} {f}")
    # a one-chunk column is read in place, not copied
    one = pa.chunked_array([strings])
    assert one_array(one).buffers()[2].address == strings.buffers()[2].address
    # zero chunks
    assert fnv1a64(pa.chunked_array([], pa.string())).size == 0
    v, lens = _binary_u64(pa.chunked_array([], pa.binary()))
    assert v.size == 0 and lens.size == 0
    empty = GeomBatch.from_arrow(pa.Table.from_batches([], geoms.schema))
    assert empty.n == 0 and empty.bbox.shape == (0, 4)


def test_fnv1a64_random_ragged_batch():
    rng = np.random.default_rng(3)
    vals = ["".join(map(chr, rng.integers(32, 0x2FF, rng.integers(0, 40)))) for _ in range(2_000)]
    np.testing.assert_array_equal(fnv1a64(pa.array(vals)), _fnv_oracle(vals))


def _hilbert_bitloop(ix, iy, resolution):
    """The classic x2d loop, one vector pass per bit level."""
    x = ix.astype(np.int64).copy()
    y = iy.astype(np.int64).copy()
    d = np.zeros_like(x)
    s = np.int64(1) << (resolution - 1)  # 0 at resolution 0
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= 1
    return d


@pytest.mark.parametrize("r", range(9))
def test_hilbert_matches_bitloop_full_grid(r):
    n = 1 << r
    ys, xs = np.divmod(np.arange(n * n, dtype=np.int64), n)
    got = hilbert_xy2d(xs, ys, r)
    np.testing.assert_array_equal(got, _hilbert_bitloop(xs, ys, r))
    assert np.array_equal(np.sort(got), np.arange(n * n))


@pytest.mark.parametrize("r", [12, 16, 24, 31])
def test_hilbert_matches_bitloop_random_cells(r):
    rng = np.random.default_rng(r)
    x = rng.integers(0, 1 << r, 50_000)
    y = rng.integers(0, 1 << r, 50_000)
    x[:2] = y[:2] = (1 << r) - 1
    x[1] = 0
    got = hilbert_xy2d(x, y, r)
    np.testing.assert_array_equal(got, _hilbert_bitloop(x, y, r))
    assert (got >= 0).all() and (got < 4**r).all()


@pytest.mark.parametrize("r", [32, -1])
def test_resolution_out_of_range_raises(r):
    z = np.zeros(3, np.int64)
    with pytest.raises(ValueError):
        hilbert_xy2d(z, z, r)
    with pytest.raises(ValueError):
        TileAssign(resolution=r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("col", ["lat", "lon"])
def test_tile_assign_nonfinite_raises_with_position(bad, col):
    t = pa.table({"lat": [10.0, -20.0, 30.0, 40.0], "lon": [1.0, 2.0, 3.0, 4.0]})
    vals = t[col].to_numpy().copy()
    vals[2] = bad
    t = t.set_column(t.schema.get_field_index(col), col, pa.array(vals))
    with pytest.raises(BadCoordinateValue) as e:
        TileAssign(resolution=12)(t)
    assert e.value.index == 2


def test_tile_assign_clamps_finite_out_of_range():
    t = pa.table({"lat": [95.0, -1e9, 90.0], "lon": [200.0, -1e9, 180.0]})
    out = TileAssign(resolution=4)(t)
    n = 16
    assert out["tile_id"].to_pylist() == [(n - 1) * n + n - 1, 0, (n - 1) * n + n - 1]
