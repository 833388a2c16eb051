"""GeomBatch — zero-ish-copy packed NumPy view of an Arrow geometry batch.

Decodes the wire format (rayjoin.geom.encode.GEOM_SCHEMA) into flat vertex /
ring arrays suitable for the vectorized kernels.  This replaces the
reference's ``SplitGeoSeq`` 6-way type partitioning
(/root/reference/src/structs.rs:83-91, 307-311): instead of six vectors we
keep one flat layout plus ``kind`` codes; kernels bucket candidate pairs by
(kind_a, kind_b).

Normalizations applied at decode (all vectorized):
- triangle rings are closed to 4 vertices (v0 v1 v2 v0) so edge extraction
  yields geo-types ``Triangle::to_lines()``'s 3 edges,
- rect [xmin,ymin,xmax,ymax] expands to the closed 5-vertex clockwise ring
  a,b,c,d,a of ``rect_points`` (/root/reference/src/relates.rs:20-36); the raw
  interval is kept in ``bbox``,
- polygon rings are closed if the fixture stored them open (geo-types
  ``Polygon::new`` closing rule).

Two decoders, chosen from the input alone.  A *fixed-shape* batch — one
kind out of point, line, rect and triangle, one ring per geometry, and that
kind's raw vertex count in every ring — is decoded by reshape: offsets from
``arange``, ``xy`` from the flat values (a triangle gains a copy of v0, a
rect its ring by column writes), ``bbox`` from the vertex columns.  Any
other batch (mixed kinds, linestrings, polygons, unexpected counts) goes
through the ragged ring decode, the reference the fixed-shape decode is
tested against: both give the same arrays, dtypes and bits.

Edges are not built at decode: ``edges`` builds them from ``xy`` and the
offsets the first time a kernel reads them (point-in-rect and
point-in-triangle refine never do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import one_array
from .primitives import repeat_expand
from .spec import LINE, POINT, POLYGON, RECT, TRIANGLE


@dataclass
class GeomBatch:
    n: int
    row_id: np.ndarray  # int64[n]
    kind: np.ndarray  # int8[n]
    bbox: np.ndarray  # float64[n,4] xmin,ymin,xmax,ymax
    # ragged ring structure (after normalization)
    geom_ring_off: np.ndarray  # int64[n+1] -> ring ids per geometry
    ring_vert_off: np.ndarray  # int64[R+1] -> vertex rows per ring
    xy: np.ndarray  # float64[V,2]
    # edges: per ring, contiguous, rings in geometry order
    ring_edge_off: np.ndarray  # int64[R+1] -> edge rows per ring
    _edges: np.ndarray = None  # float64[E,4] sx,sy,ex,ey (lazy; see edges)

    @property
    def edges(self) -> np.ndarray:
        """Edge array, built from xy + offsets on first read; DROPPED from
        pickles (it is ~half of a broadcast index's bytes) and rebuilt once
        per receiving worker that reads it."""
        if self._edges is None:
            self._edges = _build_edges(self.xy, self.ring_vert_off, self.ring_edge_off)
        return self._edges

    @property
    def edge_bounds(self) -> np.ndarray:
        """(E,4) per-edge [minx,miny,maxx,maxy]; computed once, reused by the
        window-clip passes (recomputing min/max on gathered rows per pair was
        a hot spot).  Lazy + excluded from pickles like edges."""
        eb = getattr(self, "_edge_bounds", None)
        if eb is None:
            E = self.edges
            eb = np.empty_like(E)
            np.minimum(E[:, 0], E[:, 2], out=eb[:, 0])
            np.minimum(E[:, 1], E[:, 3], out=eb[:, 1])
            np.maximum(E[:, 0], E[:, 2], out=eb[:, 2])
            np.maximum(E[:, 1], E[:, 3], out=eb[:, 3])
            self._edge_bounds = eb
        return eb

    def __getstate__(self):
        d = self.__dict__.copy()
        d["_edges"] = None
        d.pop("_edge_bounds", None)
        return d

    # ---- accessors -------------------------------------------------------

    def rings_of(self, gids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(first_ring, n_rings) per geometry id."""
        first = self.geom_ring_off[gids]
        n = self.geom_ring_off[gids + 1] - first
        return first, n

    def geom_edge_count(self, gids: np.ndarray) -> np.ndarray:
        first = self.geom_ring_off[gids]
        last = self.geom_ring_off[gids + 1]
        return self.ring_edge_off[last] - self.ring_edge_off[first]

    def geom_edge_start(self, gids: np.ndarray) -> np.ndarray:
        return self.ring_edge_off[self.geom_ring_off[gids]]

    def geom_vert_count(self, gids: np.ndarray) -> np.ndarray:
        first = self.geom_ring_off[gids]
        last = self.geom_ring_off[gids + 1]
        return self.ring_vert_off[last] - self.ring_vert_off[first]

    def geom_vert_start(self, gids: np.ndarray) -> np.ndarray:
        return self.ring_vert_off[self.geom_ring_off[gids]]

    def ext_ring(self, gids: np.ndarray) -> np.ndarray:
        """Exterior (first) ring id per geometry."""
        return self.geom_ring_off[gids]

    def points_xy(self, gids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """For kind==POINT geometries."""
        v = self.ring_vert_off[self.geom_ring_off[gids]]
        return self.xy[v, 0], self.xy[v, 1]

    def line_arr(self, gids: np.ndarray) -> np.ndarray:
        """(k,4) sx,sy,ex,ey for kind==LINE geometries."""
        e = self.ring_edge_off[self.geom_ring_off[gids]]
        return self.edges[e]

    def tri_arr(self, gids: np.ndarray) -> np.ndarray:
        """(k,6) ax,ay,bx,by,cx,cy for kind==TRIANGLE geometries."""
        v = self.ring_vert_off[self.geom_ring_off[gids]]
        return np.column_stack(
            [
                self.xy[v, 0],
                self.xy[v, 1],
                self.xy[v + 1, 0],
                self.xy[v + 1, 1],
                self.xy[v + 2, 0],
                self.xy[v + 2, 1],
            ]
        )

    def rect_arr(self, gids: np.ndarray) -> np.ndarray:
        """(k,4) xmin,ymin,xmax,ymax for kind==RECT geometries (== bbox)."""
        return self.bbox[gids]

    # ---- construction ----------------------------------------------------

    @staticmethod
    def from_arrow(table) -> "GeomBatch":
        return _build(*_columns(table))

    @staticmethod
    def from_numpy(row_id, kind, rings_per_geom, vals_per_ring, flat) -> "GeomBatch":
        return _build(
            int(row_id.size),
            np.asarray(row_id, np.int64),
            np.asarray(kind, np.int8),
            np.asarray(rings_per_geom, np.int64),
            np.asarray(vals_per_ring, np.int64),
            np.asarray(flat, np.float64),
        )


def _columns(table):
    """``_build``'s arguments from an Arrow geometry table or record batch."""
    if isinstance(table, pa.RecordBatch):
        table = pa.Table.from_batches([table])
    row_id = np.asarray(one_array(table.column("row_id")), dtype=np.int64)
    kind = np.asarray(one_array(table.column("geom_type")), dtype=np.int8)
    coords = one_array(table.column("coords"))
    rings_per_geom = np.asarray(pc.list_value_length(coords), dtype=np.int64)
    inner = pc.list_flatten(coords)  # list<double> per ring
    vals_per_ring = np.asarray(pc.list_value_length(inner), dtype=np.int64)
    flat = np.asarray(pc.list_flatten(inner), dtype=np.float64)
    return table.num_rows, row_id, kind, rings_per_geom, vals_per_ring, flat


# raw vertices per ring of each fixed-shape kind -> vertices after normalizing
_FIXED = {POINT: (1, 1), LINE: (2, 2), RECT: (2, 5), TRIANGLE: (3, 4)}


def _build(n, row_id, kind, rings_per_geom, vals_per_ring, flat) -> GeomBatch:
    k = int(kind[0]) if n else None
    if (
        k in _FIXED
        and not (rings_per_geom != 1).any()
        and not (kind != k).any()
        and not (vals_per_ring != 2 * _FIXED[k][0]).any()
    ):
        return _build_fixed(n, row_id, kind, k, flat)
    return _build_ragged(n, row_id, kind, rings_per_geom, vals_per_ring, flat)


def _build_fixed(n, row_id, kind, k, flat) -> GeomBatch:
    """Decode n one-ring geometries of fixed-shape kind ``k`` by reshape."""
    raw, c = _FIXED[k]
    raw_xy = flat.reshape(n, raw, 2)
    if k == TRIANGLE:
        xy = np.empty((n, c, 2), dtype=np.float64)
        xy[:, :raw] = raw_xy
        xy[:, raw] = raw_xy[:, 0]
    elif k == RECT:
        # a=(xmin,ymin) b=(xmin,ymax) c=(xmax,ymax) d=(xmax,ymin), a again
        xy = np.empty((n, c, 2), dtype=np.float64)
        for v, (ix, iy) in enumerate([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]):
            xy[:, v, 0] = raw_xy[:, ix, 0]
            xy[:, v, 1] = raw_xy[:, iy, 1]
    else:
        xy = raw_xy
    xy = xy.reshape(n * c, 2)
    if c == 1:
        bbox = np.tile(xy, 2)
    else:
        bbox = np.empty((n, 4), dtype=np.float64)
        # the ragged decode's reduceat over the same strided columns, so
        # NaN payloads come out the same (a contiguous min may pick another)
        starts = np.arange(0, n * c, c, dtype=np.int64)
        bbox[:, 0] = np.minimum.reduceat(xy[:, 0], starts)
        bbox[:, 1] = np.minimum.reduceat(xy[:, 1], starts)
        bbox[:, 2] = np.maximum.reduceat(xy[:, 0], starts)
        bbox[:, 3] = np.maximum.reduceat(xy[:, 1], starts)
    return GeomBatch(
        n=n,
        row_id=row_id,
        kind=kind,
        bbox=bbox,
        geom_ring_off=np.arange(n + 1, dtype=np.int64),
        ring_vert_off=np.arange(0, (n + 1) * c, c, dtype=np.int64),
        xy=xy,
        ring_edge_off=(np.arange(0, (n + 1) * (c - 1), c - 1, dtype=np.int64)
                       if c > 1 else np.zeros(n + 1, dtype=np.int64)),
    )


def _build_ragged(n, row_id, kind, rings_per_geom, vals_per_ring, flat) -> GeomBatch:
    """Decode any batch ring by ring (the fixed-shape decode's reference)."""
    raw_xy = flat.reshape(-1, 2)
    raw_verts_per_ring = vals_per_ring // 2
    R = raw_verts_per_ring.size
    raw_ring_vert_off = np.concatenate([[0], np.cumsum(raw_verts_per_ring)])
    geom_ring_off = np.concatenate([[0], np.cumsum(rings_per_geom)])

    # ring kind = kind of owning geometry
    ring_kind = np.repeat(kind, rings_per_geom)

    # normalized vertex count per ring
    norm_counts = raw_verts_per_ring.copy()
    is_tri = ring_kind == TRIANGLE
    is_rect = ring_kind == RECT
    is_poly = ring_kind == POLYGON
    norm_counts[is_tri] = 4
    norm_counts[is_rect] = 5
    # polygons: close open rings (first != last)
    if is_poly.any():
        pr = np.flatnonzero(is_poly)
        first_v = raw_ring_vert_off[pr]
        last_v = raw_ring_vert_off[pr + 1] - 1
        nonempty = raw_verts_per_ring[pr] > 0
        open_mask = np.zeros(pr.size, dtype=bool)
        ne = pr[nonempty]
        fx = raw_xy[raw_ring_vert_off[ne]]
        lx = raw_xy[raw_ring_vert_off[ne + 1] - 1]
        open_mask[nonempty] = (fx[:, 0] != lx[:, 0]) | (fx[:, 1] != lx[:, 1])
        norm_counts[pr[open_mask]] += 1

    ring_vert_off = np.concatenate([[0], np.cumsum(norm_counts)])
    V = int(ring_vert_off[-1])
    xy = np.empty((V, 2), dtype=np.float64)

    # scatter: for each ring, copy source verts then append closing verts
    # build gather index: for target position t in ring r at local k:
    #   k < raw_count  -> raw vertex k
    #   k == raw_count (tri/poly close) -> raw vertex 0
    # rects are synthesized separately.
    ring_of_v, local_k = repeat_expand(norm_counts)
    src_base = raw_ring_vert_off[ring_of_v]
    raw_cnt = raw_verts_per_ring[ring_of_v]
    gather = src_base + np.where(local_k < raw_cnt, local_k, 0)
    xy[:] = raw_xy[np.minimum(gather, raw_xy.shape[0] - 1) if raw_xy.size else gather]

    # rect synthesis: ring = a,b,c,d,a with a=(xmin,ymin) b=(xmin,ymax)
    # c=(xmax,ymax) d=(xmax,ymin)   (rect_points order, relates.rs:20-36)
    if is_rect.any():
        rr = np.flatnonzero(is_rect)
        src = raw_ring_vert_off[rr]  # rect raw ring = 2 vertices (min, max)
        xmin = raw_xy[src, 0]
        ymin = raw_xy[src, 1]
        xmax = raw_xy[src + 1, 0]
        ymax = raw_xy[src + 1, 1]
        base = ring_vert_off[rr]
        for off, (cx, cy) in enumerate(
            [
                (xmin, ymin),
                (xmin, ymax),
                (xmax, ymax),
                (xmax, ymin),
                (xmin, ymin),
            ]
        ):
            xy[base + off, 0] = cx
            xy[base + off, 1] = cy

    # edges per ring: count = max(nverts-1, 0)
    edge_counts = np.maximum(norm_counts - 1, 0)
    ring_edge_off = np.concatenate([[0], np.cumsum(edge_counts)])

    # bbox per geometry: min/max over its (normalized) vertices
    bbox = np.empty((n, 4), dtype=np.float64)
    gv_counts = ring_vert_off[geom_ring_off[1:]] - ring_vert_off[geom_ring_off[:-1]]
    bbox[:, 0] = _seg_reduce(np.minimum, xy[:, 0], gv_counts, np.inf)
    bbox[:, 1] = _seg_reduce(np.minimum, xy[:, 1], gv_counts, np.inf)
    bbox[:, 2] = _seg_reduce(np.maximum, xy[:, 0], gv_counts, -np.inf)
    bbox[:, 3] = _seg_reduce(np.maximum, xy[:, 1], gv_counts, -np.inf)

    return GeomBatch(
        n=n,
        row_id=row_id,
        kind=kind,
        bbox=bbox,
        geom_ring_off=geom_ring_off,
        ring_vert_off=ring_vert_off,
        xy=xy,
        ring_edge_off=ring_edge_off,
    )


def _build_edges(xy, ring_vert_off, ring_edge_off) -> np.ndarray:
    edge_counts = np.diff(ring_edge_off)
    ring_of_e, ek = repeat_expand(edge_counts)
    sv = ring_vert_off[ring_of_e] + ek
    return np.column_stack([xy[sv, 0], xy[sv, 1], xy[sv + 1, 0], xy[sv + 1, 1]])


def _seg_reduce(ufunc, values, counts, empty_val):
    out = np.full(counts.size, empty_val)
    nonempty = counts > 0
    if values.size and nonempty.any():
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
    return out
