"""Geodesic (great-circle) joins over lon/lat point geometries.

The planar joins treat coordinates as a flat plane; web-scale geocoded
corpora live on a sphere.  These joins find, on the R=6,371,000 m sphere,
every (big, small) pair at great-circle distance <= ``max_meters``
(``geodesic_proximity_map``) and each big point's k nearest smalls
(``geodesic_knn_join``).

Exactness contract: the pair PREDICATE is evaluated on the haversine term

    hav = sin^2(dphi/2) + (cos(phi_b) * cos(phi_s)) * sin^2(dlam/2)

compared against the constant ``sin^2(D / (2R))`` — asin/2R*... is monotone,
so this is exactly "distance <= D" while avoiding asin, whose numpy SIMD
implementation is NOT bit-identical to libm (measured on this box; sin, cos,
sqrt and radians ARE — same caveat as the s2 trig oracle,
rayjoin/stages/s2cell.py:25).  The SQL twin spells the same IEEE operation
order, so the hav column hash-matches bit-for-bit.  ``distance_m`` (computed
with np.arcsin for the user) is intentionally NOT part of the oracle hash.

Plan: the one plan of ``join/broadcast.py``, with ``SphereIndex`` as its
index kind.  The small side is cut into shards, each shard is an STR tree
over lat/lon boxes, and the big points stream past the shards with no
exchange:

  * proximity map: each small point is indexed by the boxes of its cap of
    angular radius theta = D / R (``cap_boxes``); a big point probes them as
    a point and the exact hav test keeps the pair;
  * kNN: the smalls are indexed as points; a big point queries the cap boxes
    of a growing hav radius and ranks its candidates by (hav,
    small_row_id); across shards, ``SphereIndex.gap`` bounds the hav into a
    shard from below, so only shards within a row's kth hav are probed.

Input contract: both sides hold points (anything else raises a ValueError
naming its type) with finite coordinates (``BadCoordinateValue``) and
|lat| <= 90 (ValueError).  A finite lon outside [-180, 180] is wrapped for
the boxes and used as given by hav, which is periodic in lon.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from ..geom.batch import GeomBatch
from ..geom.spec import POINT
from ..state.rtree import STRtree
from .broadcast import BroadcastIndex, _build_shards, _candidates, _stream, _to_table

EARTH_RADIUS_M = 6_371_000.0
_TYPE_NAMES = ("Point", "Line", "LineString", "Polygon", "Rect", "Triangle")
_PROX_SCHEMA = pa.schema([
    pa.field("big_row_id", pa.int64()), pa.field("small_row_id", pa.int64()),
    pa.field("hav", pa.float64()), pa.field("distance_m", pa.float64())])
_KNN_SCHEMA = _PROX_SCHEMA.append(pa.field("knn_rank", pa.int64()))


def _hav(lat_b, lon_b, lat_s, lon_s):
    """Haversine term; operation order mirrors the SQL twin exactly."""
    dp = np.radians(lat_s - lat_b) / 2.0
    dl = np.radians(lon_s - lon_b) / 2.0
    sdp = np.sin(dp)
    sdl = np.sin(dl)
    return sdp * sdp + (
        np.cos(np.radians(lat_b)) * np.cos(np.radians(lat_s))
    ) * (sdl * sdl)


def hav_threshold(max_meters: float) -> float:
    t = np.sin(max_meters / (2.0 * EARTH_RADIUS_M))
    return float(t * t)


def _wrap(lon: np.ndarray) -> np.ndarray:
    """lon wrapped into [-180, 180]; a lon already there is kept as is."""
    return np.where(np.abs(lon) <= 180.0, lon, (lon + 180.0) % 360.0 - 180.0)


def cap_boxes(lon: np.ndarray, lat: np.ndarray, theta: float):
    """``(boxes, owner)``: (m, 4) lat/lon boxes ``xmin, ymin, xmax, ymax`` in
    degrees that cover the cap of angular radius ``theta`` (radians) around
    each point, and the point each box belongs to.  A box spans lat +-
    theta, clipped to [-90, 90], and lon +- asin(sin theta / cos lat), the
    tangent-meridian bound, or all of [-180, 180] when the cap holds a
    pole.  A box across +-180 is split in two with the same owner; a point
    cannot fall in both halves.  The boxes carry a relative (1e-9) and an
    absolute slack: they only filter, the exact hav test decides."""
    lon = _wrap(lon)
    pad = np.degrees(theta) * (1.0 + 1e-9) + 1e-9
    ratio = np.sin(min(theta, np.pi / 2)) * (1.0 + 1e-9) / np.cos(np.radians(lat))
    full = (ratio >= 1.0) | (np.abs(lat) + pad >= 90.0)
    half = np.degrees(np.arcsin(np.minimum(ratio, 1.0))) + 1e-9
    x0 = np.where(full, -180.0, lon - half)
    x1 = np.where(full, 180.0, lon + half)
    y0 = np.maximum(lat - pad, -90.0)
    y1 = np.minimum(lat + pad, 90.0)
    west = np.flatnonzero(x0 < -180.0)
    east = np.flatnonzero(x1 > 180.0)
    boxes = [np.column_stack([np.maximum(x0, -180.0), y0, np.minimum(x1, 180.0), y1]),
             np.column_stack([x0[west] + 360.0, y0[west], np.full(west.size, 180.0), y1[west]]),
             np.column_stack([np.full(east.size, -180.0), y0[east], x1[east] - 360.0, y1[east]])]
    return np.concatenate(boxes), np.concatenate([np.arange(lon.size), west, east])


def _table(schema: pa.Schema, b, s, hav, *rank) -> pa.Table:
    d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(hav, 1.0)))
    return pa.Table.from_arrays([pa.array(a) for a in (b, s, hav, d, *rank)], schema=schema)


class SphereIndex:
    """The sphere's index kind (see ``broadcast.BroadcastIndex``): small
    lon/lat points in an STR tree over the boxes of their cap of radius
    ``max_meters`` for a proximity map, or over the points themselves for
    kNN (``max_meters=None``).  A decoded batch keeps the coordinates as
    given in ``xy``, for hav, and lon wrapped into [-180, 180] in ``bbox``,
    for the boxes; the kNN key is hav."""

    def __init__(self, small, max_meters: float | None = None):
        self.batch = self.decode(_to_table(small))
        if max_meters is None:
            self.tree = STRtree(self.batch.bbox)
        else:
            self.t2 = hav_threshold(max_meters)
            self.tree = STRtree(*cap_boxes(self.batch.bbox[:, 0], self.batch.bbox[:, 1],
                                           max_meters / EARTH_RADIUS_M))

    @staticmethod
    def decode(batch: pa.Table) -> GeomBatch:
        g = BroadcastIndex.decode(batch)
        bad = np.flatnonzero(g.kind != POINT)
        if bad.size:
            raise ValueError(f"geodesic joins take points; row_id {g.row_id[bad[0]]} "
                             f"is a {_TYPE_NAMES[g.kind[bad[0]]]}")
        bad = np.flatnonzero(np.abs(g.bbox[:, 1]) > 90.0)
        if bad.size:
            raise ValueError(f"latitude {g.bbox[bad[0], 1]} of row_id {g.row_id[bad[0]]} "
                             "is outside [-90, 90]")
        g.bbox[:, 0] = g.bbox[:, 2] = _wrap(g.bbox[:, 0])
        return g

    bounds = BroadcastIndex.bounds

    @staticmethod
    def empty(mode: str, with_geos: bool = False) -> pa.Table:
        return {"prox": _PROX_SCHEMA, "knn": _KNN_SCHEMA}[mode].empty_table()

    def prox(self, big: GeomBatch, batch: pa.Table, rows: np.ndarray | None = None) -> pa.Table:
        q, s = _candidates(self, big, rows)
        h = self.key(big, q, s)
        keep = h <= self.t2
        return _table(_PROX_SCHEMA, big.row_id[q[keep]], self.batch.row_id[s[keep]], h[keep])

    def first_key(self, k: int) -> float:
        """First kNN hav radius.  hav is the share of the sphere's area
        within that radius, so this is the expected k-neighbourhood at the
        average density over the extent."""
        x0, y0, x1, y1 = self.tree.root
        area = (x1 - x0) / 720.0 * (np.sin(np.radians(y1)) - np.sin(np.radians(y0)))
        return max(area * min(1.0, (k + 1) / self.batch.n), 1e-12)

    def near(self, big: GeomBatch, rows: np.ndarray, r: float):
        """Candidates (position in ``rows``, small position) of every small
        within hav ``r`` of the big rows ``rows``; a hav of 1 covers the
        sphere."""
        boxes, owner = cap_boxes(big.bbox[rows, 0], big.bbox[rows, 1],
                                 2.0 * np.arcsin(np.sqrt(min(r, 1.0))))
        q, s = self.tree.query(boxes)
        return owner[q], s, np.full(rows.size, r >= 1.0)

    def key(self, big: GeomBatch, b: np.ndarray, s: np.ndarray) -> np.ndarray:
        return _hav(big.xy[b, 1], big.xy[b, 0], self.batch.xy[s, 1], self.batch.xy[s, 0])

    @staticmethod
    def gap(bb: np.ndarray, ext: np.ndarray) -> np.ndarray:
        """(rows, shards) lower bound on the hav from a big point into a
        shard's lat/lon extent: sin^2(dlat/2) + cos(lat) * min(cos y0,
        cos y1) * sin^2(dlon/2), with the latitude gap to the extent and
        the circular longitude gap, less a relative slack for rounding."""
        lon, lat = bb[:, 0:1], bb[:, 1:2]
        x0, y0, x1, y1 = ext.T
        dlat = np.maximum(np.maximum(y0 - lat, lat - y1), 0.0)
        dlon = np.where((lon >= x0) & (lon <= x1), 0.0,
                        np.minimum((x0 - lon) % 360.0, (lon - x1) % 360.0))
        c = np.cos(np.radians(lat)) * np.minimum(np.cos(np.radians(y0)), np.cos(np.radians(y1)))
        g = np.sin(np.radians(dlat) / 2.0) ** 2 + c * np.sin(np.radians(dlon) / 2.0) ** 2
        return g * (1.0 - 1e-9)

    @staticmethod
    def knn_table(b_ids, s_ids, hav, rank) -> pa.Table:
        return _table(_KNN_SCHEMA, b_ids, s_ids, hav, rank)


def geodesic_proximity_map(big, small, *, max_meters: float):
    """Dataset[big_row_id, small_row_id, hav, distance_m] for every pair at
    great-circle distance <= ``max_meters`` (inclusive).  ``big``/``small``
    are point geometry tables/Datasets (geom.encode.points_geom)."""
    if not (np.isfinite(max_meters) and max_meters >= 0.0):
        raise ValueError(f"max_meters must be finite and >= 0, got {max_meters}")
    shards = _build_shards(small, partial(SphereIndex, max_meters=float(max_meters)))
    return _stream(big, SphereIndex, shards, None, mode="prox")


def geodesic_knn_join(big, small, *, k: int, max_meters: float = float("inf")):
    """For each big point the k nearest smalls by GREAT-CIRCLE distance;
    ties break on (hav, small_row_id), exactly the planar knn_join contract
    (join/broadcast.py).  Returns Dataset[big_row_id, small_row_id, hav,
    distance_m, knn_rank] with knn_rank 0-based; ``max_meters`` (inclusive)
    filters BEFORE ranking, so rank counts within-radius neighbors only."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cap = hav_threshold(max_meters) if np.isfinite(max_meters) else np.inf
    shards = _build_shards(small, SphereIndex)
    return _stream(big, SphereIndex, shards, None, mode="knn", k=k, max_distance=cap)


def polyline_chord_length(ds):
    """Per-geometry great-circle CHORD length of lon/lat polylines, in
    FIXED-POINT micro-meters: length_micro = sum over segments of
    floor(1e6 * (2R)*sqrt(hav)).  The chord 2R*sin(d/2R) = 2R*sqrt(hav)
    needs only sqrt (bit-exact vs libm, unlike asin), and flooring each
    SEGMENT to int64 before summing makes the total independent of
    aggregation order — engine == SQL under any plan.  (The chord
    underestimates arc length by <0.13% at 500 km segments; callers
    wanting arcs apply 2R*asin(c/2R) to the emitted value.)

    Input: LINESTRING geometry table/Dataset (geom.encode); output
    Dataset[row_id, n_vertices, length_micro].  Doc-local, no shuffle."""
    import ray.data

    ds = ray.data.from_arrow(ds) if isinstance(ds, pa.Table) else ds

    def per_batch(t: pa.Table) -> pa.Table:
        g = GeomBatch.from_arrow(t)
        xy = g.xy
        off = g.ring_vert_off  # one ring per linestring
        nv = np.diff(off)
        # segment endpoints: every vertex except each ring's last
        mask = np.ones(xy.shape[0], bool)
        if off.size > 1:
            mask[off[1:] - 1] = False
        seg_a = np.flatnonzero(mask)
        lon1, lat1 = xy[seg_a, 0], xy[seg_a, 1]
        lon2, lat2 = xy[seg_a + 1, 0], xy[seg_a + 1, 1]
        h = _hav(lat1, lon1, lat2, lon2)
        term = np.floor(
            1_000_000 * ((2.0 * EARTH_RADIUS_M) * np.sqrt(h))
        ).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(nv - 1)])[:-1]
        total = (np.add.reduceat(term, np.minimum(starts, term.size - 1))
                 if term.size else np.zeros(len(nv), np.int64))
        total[nv - 1 == 0] = 0  # single-vertex lines have no segments
        return pa.table(
            {"row_id": pa.array(g.row_id, pa.int64()),
             "n_vertices": pa.array(nv, pa.int64()),
             "length_micro": pa.array(total, pa.int64())}
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")
