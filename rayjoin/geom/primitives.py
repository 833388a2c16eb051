"""Vectorized (NumPy) low-level geometry primitives + segmented machinery.

Each function here is the vector twin of a scalar primitive in
``rayjoin.geom.spec`` and must agree with it bit-for-bit (same formulas, same
operation order; tested by tests/test_kernels.py equivalence suites).

The segmented helpers implement ragged per-pair reductions (any/all/min/sum)
used by the composite kernels in ``rayjoin.geom.relates``: candidate pairs
expand to (edge × edge) or (vertex × ring-edge) rows via ``cross_expand`` /
``repeat_expand``, per-row kernels run flat, and results reduce back to one
value per pair.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

EPS = 2.220446049250313e-16  # f64::EPSILON


# ---------------------------------------------------------------------------
# segmented machinery
# ---------------------------------------------------------------------------


def repeat_expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """counts[P] -> (pair_id[T], local_k[T]) with T = counts.sum()."""
    counts = np.asarray(counts, dtype=np.int64)
    pair_id = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    local_k = np.arange(pair_id.size, dtype=np.int64) - starts[pair_id]
    return pair_id, local_k


def cross_expand(
    counts_a: np.ndarray, counts_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair cross product expansion.

    counts_a[P], counts_b[P] -> (pair_id[T], ka[T], kb[T]) where T =
    sum(counts_a*counts_b); ka/kb are local indices within each pair's A/B
    item lists.
    """
    counts_a = np.asarray(counts_a, dtype=np.int64)
    counts_b = np.asarray(counts_b, dtype=np.int64)
    tot = counts_a * counts_b
    pair_id, k = repeat_expand(tot)
    nb = np.maximum(counts_b[pair_id], 1)
    ka = k // nb
    kb = k % nb
    return pair_id, ka, kb


def seg_any(mask: np.ndarray, pair_id: np.ndarray, n_pairs: int) -> np.ndarray:
    if mask.size == 0:
        return np.zeros(n_pairs, dtype=bool)
    return np.bincount(pair_id[mask], minlength=n_pairs).astype(bool)


def seg_all(mask: np.ndarray, pair_id: np.ndarray, n_pairs: int) -> np.ndarray:
    """all() per pair; pairs with zero rows -> True (Rust all-on-empty)."""
    if mask.size == 0:
        return np.ones(n_pairs, dtype=bool)
    return np.bincount(pair_id[~mask], minlength=n_pairs) == 0


def seg_min(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """min() per pair over contiguous (expansion-ordered) values;
    pairs with zero rows -> +inf."""
    counts = np.asarray(counts, dtype=np.int64)
    out = np.full(counts.size, np.inf)
    nonempty = counts > 0
    if values.size == 0 or not nonempty.any():
        return out
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # reduceat over only the non-empty segments (reduceat misbehaves on
    # empty segments: it returns values[start] of the next segment).
    # fmin = NaN-ignoring min: the engine's defined behavior where the
    # reference panics on NaN distances (see spec._nanmin).
    red = np.fmin.reduceat(values, starts[nonempty])
    out[nonempty] = red
    return out


# ---------------------------------------------------------------------------
# scalar-twin vector kernels (flat arrays of rows)
# ---------------------------------------------------------------------------


def v_dist(ax, ay, bx, by):
    dx = bx - ax
    dy = by - ay
    return np.sqrt(dx * dx + dy * dy)


def v_relative_eq(a, b):
    d = np.abs(a - b)
    return (d <= EPS) | (d <= np.maximum(np.abs(a), np.abs(b)) * EPS)


def v_point_contains_point(ax, ay, bx, by):
    """spec.point_contains_point."""
    return v_relative_eq(v_dist(ax, ay, bx, by), 0.0)


def v_line_contains_point(sx, sy, ex, ey, px, py):
    """spec.line_contains_point (triangle-inequality with relative_eq)."""
    tdist = v_dist(sx, sy, ex, ey)
    pdist = v_dist(sx, sy, px, py) + v_dist(px, py, ex, ey)
    return v_relative_eq(tdist, pdist)


def v_line_intersects_line(asx, asy, aex, aey, bsx, bsy, bex, bey):
    """spec.line_intersects_line (Cramer + parallel endpoint fallback).

    The (rare) parallel fallback — 12 sqrt's per row — is evaluated only on
    the parallel subset.
    """
    a1 = aex - asx
    a2 = aey - asy
    b1 = bsx - bex
    b2 = bsy - bey
    c1 = bsx - asx
    c2 = bsy - asy
    d = a1 * b2 - a2 * b1
    parallel = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (c1 * b2 - c2 * b1) / d
        u = (a1 * c2 - a2 * c1) / d
    out = (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    out &= ~parallel
    if parallel.any():
        p = np.flatnonzero(parallel)
        pasx, pasy, paex, paey = asx[p], asy[p], aex[p], aey[p]
        pbsx, pbsy, pbex, pbey = bsx[p], bsy[p], bex[p], bey[p]
        out[p] = (
            v_line_contains_point(pasx, pasy, paex, paey, pbsx, pbsy)
            | v_line_contains_point(pasx, pasy, paex, paey, pbex, pbey)
            | v_line_contains_point(pbsx, pbsy, pbex, pbey, pasx, pasy)
            | v_line_contains_point(pbsx, pbsy, pbex, pbey, paex, paey)
        )
    return out


def v_point_seg_distance(px, py, sx, sy, ex, ey):
    """spec.line_segment_distance."""
    degen = (sx == ex) & (sy == ey)
    dx = ex - sx
    dy = ey - sy
    d2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        r = ((px - sx) * dx + (py - sy) * dy) / d2
        s = ((sy - py) * dx - (sx - px) * dy) / d2
        perp = np.abs(s) * np.sqrt(d2)
        out = np.where(
            degen | (r <= 0.0),
            v_dist(px, py, sx, sy),
            np.where(r >= 1.0, v_dist(px, py, ex, ey), perp),
        )
    return out


def v_seg_seg_distance(asx, asy, aex, aey, bsx, bsy, bex, bey):
    """spec.line_line_distance: 0 if intersecting else min of 4 point-seg."""
    inter = v_line_intersects_line(asx, asy, aex, aey, bsx, bsy, bex, bey)
    d = np.fmin.reduce(  # NaN-ignoring (spec._nanmin semantics)
        [
            v_point_seg_distance(asx, asy, bsx, bsy, bex, bey),
            v_point_seg_distance(aex, aey, bsx, bsy, bex, bey),
            v_point_seg_distance(bsx, bsy, asx, asy, aex, aey),
            v_point_seg_distance(bex, bey, asx, asy, aex, aey),
        ]
    )
    return np.where(inter, 0.0, d)


def v_tri_sign(px, py, ax, ay, bx, by):
    return (px - bx) * (ay - by) - (ax - bx) * (py - by)


def v_triangle_contains_point_geo(ax, ay, bx, by, cx, cy, px, py):
    """spec.triangle_contains_point_geo (sign-equality variant)."""
    d1 = v_tri_sign(px, py, ax, ay, bx, by)
    d2 = v_tri_sign(px, py, bx, by, cx, cy)
    d3 = v_tri_sign(px, py, cx, cy, ax, ay)
    return ((d1 < 0.0) == (d2 < 0.0)) & ((d2 < 0.0) == (d3 < 0.0))


def v_tri_Contains_point(ax, ay, bx, by, cx, cy, px, py):
    """spec._tri_Contains_point: collapsed-triangle patch + geo sign test."""
    collapsed = (ax == bx) & (ay == by) & (bx == cx) & (by == cy)
    coincide = (ax == px) & (ay == py)
    geo = v_triangle_contains_point_geo(ax, ay, bx, by, cx, cy, px, py)
    return np.where(collapsed, coincide, geo)


def v_rect_contains_point(xmin, ymin, xmax, ymax, px, py):
    """spec.rect_contains_point (inclusive)."""
    return (px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)


def v_rect_contains_rect(a, b):
    """a, b: (n,4) arrays [xmin,ymin,xmax,ymax]."""
    return (
        (a[:, 0] <= b[:, 0]) & (a[:, 2] >= b[:, 2]) & (a[:, 1] <= b[:, 1]) & (a[:, 3] >= b[:, 3])
    )


def v_rect_intersects_rect(a, b):
    return ~(
        (a[:, 0] > b[:, 2]) | (a[:, 2] < b[:, 0]) | (a[:, 1] > b[:, 3]) | (a[:, 3] < b[:, 1])
    )

