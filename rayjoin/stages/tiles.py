"""Hierarchical quadtree tiling + Hilbert curve (from scratch; H3/S2-style
API surface per BASELINE.json north_rule — no h3/s2 libs exist in this
sandbox, and the tile scheme itself is engine scope, SURVEY.md §7.4).

Tile scheme: equirectangular quadtree.  At resolution r the world
(lon ∈ [-180,180), lat ∈ [-90,90)) is a 2^r × 2^r grid;

    ix = min(floor((lon+180)/360 * 2^r), 2^r - 1)
    iy = min(floor((lat+ 90)/180 * 2^r), 2^r - 1)
    tile_id = iy * 2^r + ix          (row-major; exactly SQL-expressible)

``hilbert_id`` is the Hilbert-curve position of (ix, iy) — used as the
*partitioning* key (range-partitioning Hilbert ids preserves spatial
locality far better than row-major ids); row-major ``tile_id`` stays the
public/tile-stats key because the DuckDB oracle can compute it.

Parent/child/neighbor navigation mirrors the H3/S2 API shape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import BadCoordinateValue


def latlon_to_xy(lat: np.ndarray, lon: np.ndarray, resolution: int):
    n = np.int64(1) << resolution
    ix = np.minimum(np.floor((lon + 180.0) / 360.0 * n).astype(np.int64), n - 1)
    iy = np.minimum(np.floor((lat + 90.0) / 180.0 * n).astype(np.int64), n - 1)
    ix = np.maximum(ix, 0)
    iy = np.maximum(iy, 0)
    return ix, iy


def xy_to_tile(ix: np.ndarray, iy: np.ndarray, resolution: int) -> np.ndarray:
    return iy * (np.int64(1) << resolution) + ix


def tile_to_xy(tile_id: np.ndarray, resolution: int):
    n = np.int64(1) << resolution
    return tile_id % n, tile_id // n


def tile_center(tile_id: np.ndarray, resolution: int):
    """(lat, lon) of tile centers — exact SQL equivalent:
    lon = (ix + 0.5)/2^r*360 - 180; lat = (iy + 0.5)/2^r*180 - 90."""
    n = float(1 << resolution)
    ix, iy = tile_to_xy(np.asarray(tile_id, np.int64), resolution)
    lon = (ix + 0.5) / n * 360.0 - 180.0
    lat = (iy + 0.5) / n * 180.0 - 90.0
    return lat, lon


def tile_parent(tile_id: np.ndarray, resolution: int, parent_resolution: int) -> np.ndarray:
    """Ancestor tile at a coarser resolution (H3 cell_to_parent analog)."""
    assert parent_resolution <= resolution
    ix, iy = tile_to_xy(np.asarray(tile_id, np.int64), resolution)
    shift = resolution - parent_resolution
    return xy_to_tile(ix >> shift, iy >> shift, parent_resolution)


def tile_children(tile_id: int, resolution: int) -> np.ndarray:
    """The 4 children at resolution+1 (H3 cell_to_children analog)."""
    ix, iy = tile_to_xy(np.asarray([tile_id], np.int64), resolution)
    ix, iy = int(ix[0]) << 1, int(iy[0]) << 1
    out = [
        xy_to_tile(np.int64(ix + dx), np.int64(iy + dy), resolution + 1)
        for dy in (0, 1)
        for dx in (0, 1)
    ]
    return np.array(out, dtype=np.int64)


def tile_neighbors(tile_id: np.ndarray, resolution: int) -> np.ndarray:
    """4-neighbors (E,W,N,S), clipped at the grid edge; shape (n, 4), -1 when
    off-grid (grid_disk analog)."""
    n = np.int64(1) << resolution
    ix, iy = tile_to_xy(np.asarray(tile_id, np.int64).reshape(-1), resolution)
    out = np.full((ix.size, 4), -1, dtype=np.int64)
    for j, (dx, dy) in enumerate([(1, 0), (-1, 0), (0, 1), (0, -1)]):
        nx, ny = ix + dx, iy + dy
        ok = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
        out[ok, j] = xy_to_tile(nx[ok], ny[ok], resolution)
    return out


def _check_resolution(resolution: int) -> None:
    if not 0 <= resolution <= 31:
        raise ValueError(f"resolution must be in 0..31 (int64 Hilbert ids), got {resolution}")


def _hilbert_tables():
    """(state, x nibble, y nibble) -> (8 output bits, next state) for 4
    levels of the classic x2d loop.  A state is the (swap, flip) pair the
    loop's quadrant rotations have applied to the remaining low bits; the
    two commute, so a state is just ``swap | flip << 1``."""
    digits = np.zeros(4 * 256, np.int64)
    nxt = np.zeros(4 * 256, np.int64)
    for state in range(4):
        for xn in range(16):
            for yn in range(16):
                swap, flip, d = state & 1, state >> 1, 0
                for b in (3, 2, 1, 0):
                    rx, ry = (xn >> b & 1) ^ flip, (yn >> b & 1) ^ flip
                    if swap:
                        rx, ry = ry, rx
                    d = d << 2 | ((3 * rx) ^ ry)
                    if ry == 0:
                        flip ^= rx
                        swap ^= 1
                k = state << 8 | xn << 4 | yn
                digits[k], nxt[k] = d, swap | flip << 1
    return digits, nxt


_HILBERT_DIGITS, _HILBERT_NEXT = _hilbert_tables()


def hilbert_xy2d(ix: np.ndarray, iy: np.ndarray, resolution: int) -> np.ndarray:
    """Hilbert-curve distance of grid cells at ``resolution`` in 0..31
    (int64 ids; ``ValueError`` outside that range).

    Same integers as the classic x2d bit loop, 4 levels per step: the grid
    is padded to a multiple of 4 levels (each leading zero level only
    toggles swap, so the start state is ``pad % 2``), then each step looks
    one interleaved (x, y) nibble up in a 4 x 256 state table.  Cost:
    ceil(r/4) table lookups of ~12 array passes each, 3 at r = 12.
    Only the low ``resolution`` bits of ix/iy are read.
    """
    _check_resolution(resolution)
    x = np.asarray(ix, dtype=np.int64)
    y = np.asarray(iy, dtype=np.int64)
    steps = -(-resolution // 4)
    state = np.full(x.shape, (4 * steps - resolution) & 1, np.int64)
    d = np.zeros(x.shape, np.int64)
    for shift in range(4 * steps - 4, -1, -4):
        mask = (1 << min(4, resolution - shift)) - 1
        k = state << 8
        k |= (x >> shift & mask) << 4
        k |= y >> shift & mask
        d <<= 8
        d |= _HILBERT_DIGITS[k]
        state = _HILBERT_NEXT[k]
    return d


class TileAssign:
    """Tile assignment stage (callable for map_batches).

    __init__ captures the resolution constants once (the stage is reused
    across every batch an executor slot processes); __call__ is pure
    Arrow-in / Arrow-out.  The Hilbert id comes from the nibble-table
    ``hilbert_xy2d`` (3 lookups at r = 12); the whole stage costs ~0.07
    µs/row on one core, ~0.03 of it Hilbert.

    ``resolution`` must be in 0..31 (``ValueError`` otherwise).  A NaN or
    ±inf ``lat``/``lon`` (a null reads as NaN) raises
    ``BadCoordinateValue`` whose index is the row's POSITION in the batch,
    not a ``row_id``; finite values outside the world box clamp to the edge
    tile.
    """

    def __init__(self, resolution: int = 12, lat_col: str = "lat", lon_col: str = "lon",
                 with_hilbert: bool = True):
        _check_resolution(resolution)
        self.resolution = resolution
        self.lat_col = lat_col
        self.lon_col = lon_col
        self.with_hilbert = with_hilbert

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = np.asarray(batch[self.lat_col].combine_chunks(), dtype=np.float64)
        lon = np.asarray(batch[self.lon_col].combine_chunks(), dtype=np.float64)
        ok = np.isfinite(lat)
        ok &= np.isfinite(lon)
        if not ok.all():
            raise BadCoordinateValue(int(np.argmin(ok)))
        ix, iy = latlon_to_xy(lat, lon, self.resolution)
        batch = batch.append_column("tile_id", pa.array(xy_to_tile(ix, iy, self.resolution), pa.int64()))
        if self.with_hilbert:
            batch = batch.append_column(
                "hilbert_id", pa.array(hilbert_xy2d(ix, iy, self.resolution), pa.int64())
            )
        return batch


def tile_assign(ds, resolution: int = 12, lat_col: str = "lat", lon_col: str = "lon",
                with_hilbert: bool = True, batch_size: int = 65536):
    """Dataset stage: append tile_id (+ hilbert_id) columns."""
    return ds.map_batches(
        TileAssign(resolution, lat_col, lon_col, with_hilbert),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
