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
"""

from __future__ import annotations

import math

import numpy as np


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

    def __init__(self, bbox: np.ndarray, ids: np.ndarray | None = None, leaf_size: int = 16):
        bbox = np.ascontiguousarray(bbox, dtype=np.float64)
        n = bbox.shape[0]
        self.n = n
        self.ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, np.int64)
        if n == 0:
            self.order = np.empty(0, dtype=np.int64)
            return
        c = leaf_size
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

    def query(self, qbox: np.ndarray, chunk: int = 8192) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive bbox-overlap candidates.

        qbox: (m,4) query boxes -> (query_idx, entry_id) with entry_id from
        ``ids`` (original row identity), sorted by query_idx then packed
        position.  Processed in probe chunks so the (pairs, 16) entry-test
        temporaries stay cache-sized.
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
