"""STR-packed R-tree over NumPy bbox arrays.

From-scratch bulk-loaded R-tree (Sort-Tile-Recursive packing) replacing the
reference's per-type ``rstar`` trees (/root/reference/src/rtrees.rs:24-96).
Like the reference, the tree stores only (id, bbox) entries — geometry
payloads stay in the GeomBatch — and the indexed side's boxes are expected to
be pre-dilated by ``max_distance`` (``cheap_buffer``,
/root/reference/src/rtrees.rs:159-166).  Candidate generation is inclusive
bbox overlap (rstar ``locate_in_envelope_intersecting`` semantics); any
bulk-packed tree is semantically equivalent since trees only affect candidate
generation, never the final predicate answer (SURVEY.md §2.3).

The tree is STR's own layout — x-slices, each a y-sorted run of 16-entry
leaves — and a batch of query boxes descends it vectorized: two
``np.searchsorted`` calls over the prefix-max slice ``xmax`` and suffix-min
slice ``xmin`` find the candidate slices, a segmented binary search over each
run's prefix-max leaf ``ymax`` and suffix-min leaf ``ymin`` finds the
candidate leaves, and every slice, leaf and entry in range gets an exact
inclusive box test.  Pairs come out sorted by query index, then by packed
position.  Slices and runs are sorted by box center, so wide entries loosen
the prefix bounds: the worst case adds O(√(n/16)) slice and leaf tests per
query.

A chunk of probes that are all finite points (``x0 == x1``, ``y0 == y1``)
skips the tree: it is answered from a uniform grid over the entries' finite
extent, built on the tree's first all-point query and kept on the tree
(pickling drops it, so a broadcast index does not grow).  Each axis has
about √(3n) cells; each cell holds a CSR list of the packed positions of the
entries whose box overlaps it, in ascending order.  A point costs one floor,
one gather of its cell's list and the same exact box test per listed entry,
and the pairs come out in the tree's order.  The grid is O(n) integers: the
side halves while the entries cover more than ``_GRID_COVER * n`` cells, and
when the average cell list is still longer than a leaf (wide or coincident
entries), no grid is built and the tree answers points too.  On 21k
regions (side 250, 154k list entries) the build takes about 0.015 s and
1.7 MB, and 250k points take about 0.05 s against 0.2 s down the tree (one
core).
"""

from __future__ import annotations

import math

import numpy as np

LEAF = 16  # entries per leaf; also the longest average point-grid cell list
_GRID_COVER = 8  # the point grid holds at most this many list entries per entry


def _overlaps(x0, y0, x1, y1, box, k) -> np.ndarray:
    """Inclusive overlap of query sides with ``box[:, k]``; a NaN side
    never rejects."""
    return ~((x0 > box[2][k]) | (x1 < box[0][k]) | (y0 > box[3][k]) | (y1 < box[1][k]))


def _expand(q: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Pairs (q[i], k) for every k in [lo[i], hi[i]), in order."""
    cnt = np.maximum(hi - lo, 0)
    k = np.arange(int(cnt.sum()), dtype=np.int64)
    k += np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return np.repeat(q, cnt), k


class _PointGrid:
    """Uniform grid over packed entry boxes: per cell, the ascending packed
    positions of the entries that overlap it (CSR ``start``/``pos``)."""

    def __init__(self, extent, side: int):
        self.lo = [a0 for a0, _ in extent]
        # a zero, infinite or overflowing axis width gets one cell
        self.scale = [side / (a1 - a0) if a1 > a0 and math.isfinite(side / (a1 - a0)) else 0.0
                      for a0, a1 in extent]
        self.side = [side if sc else 1 for sc in self.scale]

    def cells(self, v: np.ndarray, axis: int, upper: bool = False) -> np.ndarray:
        """Grid column (axis 0) or row (axis 1) of each coordinate: one floor
        expression, monotone in ``v``, clamped to the grid.  A NaN lower
        side maps to the first cell and a NaN upper side to the last, so a
        NaN side spans its axis, as ``_overlaps`` never rejects on it."""
        top = self.side[axis] - 1
        if top == 0:
            return np.zeros(v.shape, np.int64)
        f = np.floor((v - self.lo[axis]) * self.scale[axis])
        f = np.fmax(np.fmin(f, top), 0) if upper else np.fmin(np.fmax(f, 0), top)
        return f.astype(np.int64)

    @staticmethod
    def build(box: np.ndarray) -> "_PointGrid | None":
        """The grid over ``box`` (4, n), or None when its cell lists would
        average more than ``LEAF`` entries."""
        n = box.shape[1]
        extent = []
        for a in (box[0:3:2], box[1:4:2]):
            fin = a[np.isfinite(a)]
            extent.append((float(fin.min()), float(fin.max())) if fin.size else (0.0, 0.0))
        side = max(math.isqrt(3 * n), 1)
        while True:
            g = _PointGrid(extent, side)
            lx, ly, hx, hy = (g.cells(box[k], k % 2, k >= 2) for k in range(4))
            w = np.maximum(hx - lx + 1, 0)
            cnt = w * np.maximum(hy - ly + 1, 0)
            cover = int(cnt.sum())
            if cover <= _GRID_COVER * n or side == 1:
                break
            side //= 2
        ncell = g.side[0] * g.side[1]
        if cover > LEAF * ncell:
            return None
        p, k = _expand(np.arange(n, dtype=np.int64), 0, cnt)
        cell = (ly[p] + k // w[p]) * g.side[0] + lx[p] + k % w[p]
        g.pos = p[np.argsort(cell, kind="stable")]
        g.start = np.zeros(ncell + 1, np.int64)
        np.cumsum(np.bincount(cell, minlength=ncell), out=g.start[1:])
        return g

    def query(self, x: np.ndarray, y: np.ndarray, box: np.ndarray):
        """(query_idx, packed position) of every entry of ``box`` that holds
        the point (x, y), sorted by query, then packed position."""
        c = self.cells(y, 1) * self.side[0] + self.cells(x, 0)
        q, k = _expand(np.arange(x.size, dtype=np.int64), self.start[c], self.start[c + 1])
        pos = self.pos[k]
        keep = _overlaps(x[q], y[q], x[q], y[q], box, pos)
        return q[keep], pos[keep]


def _bound(a: np.ndarray, base: np.ndarray, n: int, v: np.ndarray, below) -> np.ndarray:
    """Per pair, the first i in the run [base, base + n) with not
    ``below(a[i], v)``, else base + n; ``a`` is nondecreasing on each run."""
    while n > 1:
        half = n >> 1
        base = np.where(below(a[base + half], v), base + half, base)
        n -= half
    return base + below(a[base], v)


class STRtree:
    """Bulk-packed static R-tree; query returns (query_idx, entry_id) pairs."""

    def __init__(self, bbox: np.ndarray, ids: np.ndarray | None = None):
        bbox = np.ascontiguousarray(bbox, dtype=np.float64)
        n = bbox.shape[0]
        self.n = n
        self.ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
        if n == 0:
            self.order = np.empty(0, dtype=np.int64)
            return
        c = LEAF
        # STR pack: sort by x-center, tile into sqrt(L) vertical slices,
        # sort each slice by y-center
        cx = (bbox[:, 0] + bbox[:, 2]) * 0.5
        cy = (bbox[:, 1] + bbox[:, 3]) * 0.5
        n_leaves = math.ceil(n / c)
        n_slices = math.ceil(math.sqrt(n_leaves))
        slice_sz = c * math.ceil(n_leaves / n_slices)
        order = np.argsort(cx, kind="stable")
        for s in range(0, n, slice_sz):
            seg = order[s : s + slice_sz]
            seg_sorted = seg[np.argsort(cy[seg], kind="stable")]
            order[s : s + slice_sz] = seg_sorted
        self.order = order

        # entries: four SoA (leaves, c) arrays, padded with inverted-infinite
        # boxes to whole leaves and to runs of equal length; a NaN side of a
        # leaf widens to ±inf, which passes every test exactly as the NaN
        # does and keeps the prefix bounds sortable
        self.run = run = slice_sz // c
        n_runs = -(-n_leaves // run)
        ent = np.empty((4, n_runs * run * c), dtype=np.float64)
        ent[:2], ent[2:] = np.inf, -np.inf
        ent[:, :n] = bbox[order].T
        self.entries = ent.reshape(4, n_runs * run, c)
        self.leaves = np.concatenate([np.fmax(self.entries[:2].min(axis=2), -np.inf),
                                      np.fmin(self.entries[2:].max(axis=2), np.inf)])
        runs = self.leaves.reshape(4, n_runs, run)
        self.slices = np.concatenate([runs[:2].min(axis=2), runs[2:].max(axis=2)])
        self.root = np.concatenate([self.slices[:2].min(axis=1), self.slices[2:].max(axis=1)])
        self.sx_hi = np.maximum.accumulate(self.slices[2])
        self.sx_lo = np.minimum.accumulate(self.slices[0, ::-1])[::-1].copy()
        # per run: prefix-max leaf ymax, suffix-min leaf ymin
        self.ly_hi = np.maximum.accumulate(runs[3], axis=1).ravel()
        self.ly_lo = np.minimum.accumulate(runs[1, :, ::-1], axis=1)[:, ::-1].ravel()

    def __getstate__(self):
        # the point grid is rebuilt on demand, never shipped
        state = self.__dict__.copy()
        state.pop("_grid", None)
        return state

    def _point_grid(self) -> _PointGrid | None:
        if "_grid" not in self.__dict__:
            self._grid = _PointGrid.build(self.entries.reshape(4, -1)[:, : self.n])
        return self._grid

    def query(self, qbox: np.ndarray, chunk: int = 8192) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive bbox-overlap candidates.

        qbox: (m,4) query boxes -> (query_idx, entry_id) with entry_id from
        ``ids`` (original row identity), sorted by query_idx then packed
        position.  Processed in probe chunks so the (pairs, 16) entry-test
        temporaries stay cache-sized.  A chunk of finite points is answered
        from the point grid (built on the first such chunk) when the tree
        has one; every other chunk descends the tree.  Both give the same
        pairs in the same order.
        """
        qbox = np.ascontiguousarray(qbox, dtype=np.float64)
        m = qbox.shape[0]
        if self.n == 0 or m == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        if m > chunk:
            qs, es = [], []
            for lo in range(0, m, chunk):
                q, e = self.query(qbox[lo : lo + chunk], chunk)
                qs.append(q + lo)
                es.append(e)
            return np.concatenate(qs), np.concatenate(es)
        x0, y0, x1, y1 = qbox.T
        if (x0 == x1).all() and (y0 == y1).all() and np.isfinite(qbox).all():
            grid = self._point_grid()
            if grid is not None:
                q, pos = grid.query(x0, y0, self.entries.reshape(4, -1))
                return q, self.ids[self.order[pos]]
        # root: early exit for queries outside the whole index
        q = np.flatnonzero(_overlaps(x0, y0, x1, y1, self.root[:, None], 0))
        # a NaN query side bounds nothing
        lo = np.searchsorted(self.sx_hi, np.fmax(x0[q], -np.inf), "left")
        hi = np.searchsorted(self.sx_lo, np.fmin(x1[q], np.inf), "right")
        q, s = _expand(q, lo, hi)
        keep = _overlaps(x0[q], y0[q], x1[q], y1[q], self.slices, s)
        q, s = q[keep], s[keep]
        first = s * self.run
        lo = _bound(self.ly_hi, first, self.run, np.fmax(y0[q], -np.inf), np.less)
        hi = _bound(self.ly_lo, first, self.run, np.fmin(y1[q], np.inf), np.less_equal)
        q, f = _expand(q, lo, hi)
        keep = _overlaps(x0[q], y0[q], x1[q], y1[q], self.leaves, f)
        q, f = q[keep], f[keep]
        hit = _overlaps(x0[q, None], y0[q, None], x1[q, None], y1[q, None], self.entries, f)
        i, j = np.nonzero(hit)
        q, pos = q[i], f[i] * self.entries.shape[2] + j
        keep = pos < self.n
        if not keep.all():
            # an unbounded query also overlaps the padding
            q, pos = q[keep], pos[keep]
        return q, self.ids[self.order[pos]]


def dilate(bbox: np.ndarray, max_distance) -> np.ndarray:
    """cheap_buffer (/root/reference/src/rtrees.rs:159-166): dilate AABBs on
    all sides; applied to the indexed (small) side only.  ``max_distance``
    may be a scalar or a per-row array (the per-row-radius proximity
    variant dilates each indexed box by its own radius)."""
    if np.ndim(max_distance) == 0:
        if max_distance == 0.0:
            return bbox
        r = float(max_distance)
    else:
        r = np.asarray(max_distance, np.float64)
        if r.size != bbox.shape[0]:
            raise ValueError("per-row radius length != bbox count")
    out = bbox.copy()
    out[:, 0] -= r
    out[:, 1] -= r
    out[:, 2] += r
    out[:, 3] += r
    return out
