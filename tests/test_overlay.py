"""Convex overlay kernel: scalar/vector bit-exact agreement, integer-exact
cases, and the with_geos batch operator."""
import numpy as np
import pyarrow as pa
import pytest

from rayjoin.geom.encode import points_geom, rects_geom, tris_geom
from rayjoin.geom.overlay import (
    clip_area_scalar,
    clip_convex,
    intersection_area_batch,
)


def _rand_tri(rng):
    while True:
        p = rng.uniform(-5, 5, (3, 2))
        a = 0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                   - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        if abs(a) > 1e-3:
            if a < 0:
                p = p[::-1]
            return [tuple(v) for v in p]


def _rand_rect(rng):
    x0, y0 = rng.uniform(-5, 0, 2)
    w, h = rng.uniform(0.5, 5, 2)
    return [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]


def test_clip_convex_bit_exact_vs_scalar():
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(500):
        a = _rand_tri(rng) if rng.random() < 0.5 else _rand_rect(rng)
        b = _rand_tri(rng) if rng.random() < 0.5 else _rand_rect(rng)
        pairs.append((a, b))
    SM = max(len(a) for a, _ in pairs)
    CM = max(len(b) for _, b in pairs)
    n = len(pairs)
    SV = np.zeros((n, SM, 2)); sc = np.zeros(n, np.int64)
    CV = np.zeros((n, CM, 2)); cc = np.zeros(n, np.int64)
    for i, (a, b) in enumerate(pairs):
        SV[i, :len(a)] = a; sc[i] = len(a)
        CV[i, :len(b)] = b; cc[i] = len(b)
    got = clip_convex(SV, sc, CV, cc)
    exp = np.array([clip_area_scalar(a, b) for a, b in pairs])
    assert (got.view(np.int64) == exp.view(np.int64)).all()
    # sanity bounds: 0 <= area <= min(|a|, |b|) (+ tiny fp slack)
    from rayjoin.geom.overlay import signed_area_scalar

    caps = np.array([min(signed_area_scalar(a), signed_area_scalar(b))
                     for a, b in pairs])
    assert (got >= -1e-12).all() and (got <= caps + 1e-9).all()


def test_clip_exact_integer_cases():
    tri = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
    sq2 = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    sq3 = [(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)]
    far = [(10.0, 10.0), (11.0, 10.0), (11.0, 11.0), (10.0, 11.0)]
    assert clip_area_scalar(tri, sq2) == 4.0   # square inside triangle
    assert clip_area_scalar(tri, sq3) == 7.0   # 9 - corner triangle of area 2
    assert clip_area_scalar(tri, far) == 0.0   # disjoint
    assert clip_area_scalar(sq2, tri) == 4.0   # symmetric
    assert clip_area_scalar(tri, tri) == 8.0   # self


def test_intersection_area_batch_kinds():
    bt = tris_geom(np.arange(3),
                   np.array([0., 0., 10.]), np.array([0., 0., 10.]),
                   np.array([4., 1., 14.]), np.array([0., 0., 10.]),
                   np.array([0., 0., 10.]), np.array([4., 1., 14.]))
    st = rects_geom(np.arange(3),
                    np.array([0., 5., 10.]), np.array([0., 5., 10.]),
                    np.array([2., 6., 20.]), np.array([2., 6., 20.]))
    tbl = pa.table({
        "big_row_id": pa.array([0, 1, 2], pa.int64()),
        "small_row_id": pa.array([0, 1, 2], pa.int64()),
        "big_geom_type": bt["geom_type"], "big_coords": bt["coords"],
        "small_geom_type": st["geom_type"], "small_coords": st["coords"],
    })
    out = intersection_area_batch(tbl)["inter_area"].to_pylist()
    assert out[0] == 4.0 and out[1] == 0.0 and out[2] > 0.0
    # rect x rect closed form and point rows -> exact zero for points
    pt = points_geom(np.arange(2), np.array([1., 9.]), np.array([1., 9.]))
    rt = rects_geom(np.arange(2), np.array([0., 0.]), np.array([0., 0.]),
                    np.array([2., 2.]), np.array([2., 2.]))
    tbl2 = pa.table({
        "big_row_id": pa.array([0, 1], pa.int64()),
        "small_row_id": pa.array([0, 1], pa.int64()),
        "big_geom_type": pt["geom_type"], "big_coords": pt["coords"],
        "small_geom_type": rt["geom_type"], "small_coords": rt["coords"],
    })
    assert intersection_area_batch(tbl2)["inter_area"].to_pylist() == [0.0, 0.0]


@pytest.mark.usefixtures("ray_session")
def test_rasterize_area_triangles_vs_scalar():
    """Triangle fractional coverage == scalar S-H clip vs every candidate
    tile; per-geometry areas sum to the triangle area (partition property,
    as tiles tile the plane)."""
    import ray.data

    from rayjoin.geom.overlay import clip_area_scalar, signed_area_scalar
    from rayjoin.geom.encode import tris_geom
    from rayjoin.pipelines.raster import rasterize_area
    from rayjoin.stages.tiles import latlon_to_xy

    rng = np.random.default_rng(8)
    res, n = 6, 1 << 6
    ax = rng.uniform(-30, 30, 10); ay = rng.uniform(-30, 30, 10)
    bx, by = ax + rng.uniform(2, 15, 10), ay + rng.uniform(-4, 4, 10)
    cx, cy = ax + rng.uniform(-4, 4, 10), ay + rng.uniform(2, 15, 10)
    t = tris_geom(np.arange(10), ax, ay, bx, by, cx, cy)
    out = rasterize_area(ray.data.from_arrow(t), resolution=res).to_pandas()
    got = {(r.geom_row_id, r.tile_id): r.area for r in out.itertuples()}
    exp = {}
    for i in range(10):
        tri = [(ax[i], ay[i]), (bx[i], by[i]), (cx[i], cy[i])]
        if signed_area_scalar(tri) < 0:
            tri = tri[::-1]
        x0, x1 = min(p[0] for p in tri), max(p[0] for p in tri)
        y0, y1 = min(p[1] for p in tri), max(p[1] for p in tri)
        ix0, iy0 = latlon_to_xy(np.array([y0]), np.array([x0]), res)
        ix1, iy1 = latlon_to_xy(np.array([y1]), np.array([x1]), res)
        for iy in range(int(iy0[0]), int(iy1[0]) + 1):
            for ix in range(int(ix0[0]), int(ix1[0]) + 1):
                tx0 = ix / n * 360.0 - 180.0
                tx1 = (ix + 1) / n * 360.0 - 180.0
                ty0 = iy / n * 180.0 - 90.0
                ty1 = (iy + 1) / n * 180.0 - 90.0
                rect = [(tx0, ty0), (tx1, ty0), (tx1, ty1), (tx0, ty1)]
                a = clip_area_scalar(tri, rect)
                if a > 0:
                    exp[(i, iy * n + ix)] = a
    assert set(got) == set(exp)
    for key in exp:
        assert got[key] == exp[key]  # bit-exact (same kernel order)
    # partition property: per-triangle coverage sums to the triangle area
    sums = out.groupby("geom_row_id")["area"].sum()
    for i in range(10):
        tri_area = abs(signed_area_scalar(
            [(ax[i], ay[i]), (bx[i], by[i]), (cx[i], cy[i])]))
        assert abs(sums[i] - tri_area) < 1e-9 * max(tri_area, 1)


def test_buffer_points_shape():
    """Buffered points are CCW k-gons of the right radius; buffering then
    measuring area approaches pi*r^2."""
    from rayjoin.geom.overlay import buffer_points_batch, signed_area_scalar

    t = pa.table({
        "row_id": pa.array([1, 2], pa.int64()),
        "x": pa.array([0.0, 10.0]), "y": pa.array([0.0, -5.0]),
        "radius": pa.array([2.0, 0.5]),
    })
    out = buffer_points_batch(t, k=64)
    for i, r, cx, cy in ((0, 2.0, 0.0, 0.0), (1, 0.5, 10.0, -5.0)):
        ring = out["coords"][i][0].as_py()
        pts = [(ring[2 * j], ring[2 * j + 1]) for j in range(64)]
        for vx, vy in pts:
            assert abs((vx - cx) ** 2 + (vy - cy) ** 2 - r * r) < 1e-9
        a = signed_area_scalar(pts)
        assert a > 0  # CCW
        assert abs(a - np.pi * r * r) < 0.02 * r * r


def brute_hot_components(x, y, cell, threshold):
    """{packed cell id: (blob id, n)} of ``grid_hot_components`` with its
    default packing, by a union-find over the 4-adjacent hot cells."""
    import collections

    cnt = collections.Counter(
        (int(np.floor(xx / cell)), int(np.floor(yy / cell)))
        for xx, yy in zip(x, y))
    hot = {c: v for c, v in cnt.items() if v >= threshold}
    pid = {c: (c[0] + 16) * 1024 + (c[1] + 16) for c in hot}
    parent = {c: c for c in hot}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for (a, b) in list(hot):
        for nb in ((a + 1, b), (a, b + 1)):
            if nb in hot:
                ra, rb = find((a, b)), find(nb)
                if ra != rb:
                    parent[rb] = ra
    comp = {}
    for c in hot:
        comp.setdefault(find(c), []).append(c)
    want = {}
    for members in comp.values():
        blob = min(pid[m] for m in members)
        for m in members:
            want[pid[m]] = (blob, hot[m])
    return want


def test_grid_hot_components_vs_bruteforce(ray_session):
    import ray.data

    from rayjoin.pipelines.raster import grid_hot_components

    rng = np.random.default_rng(7)
    n = 3000
    # clustered points: a few gaussian blobs plus uniform noise
    cx = rng.choice([-100.0, -96.0, 40.0, 44.0, 120.0], n)
    cy = rng.choice([-40.0, 20.0, 24.0], n)
    x = np.clip(cx + rng.normal(0, 6, n), -180, 179.9)
    y = np.clip(cy + rng.normal(0, 6, n), -90, 89.9)
    pts = ray.data.from_arrow(pa.table({
        "x": pa.array(x, pa.float64()), "y": pa.array(y, pa.float64()),
    })).repartition(5)
    out = grid_hot_components(pts, cell_deg=8.0, threshold=5).to_pandas()
    got = {int(r.cell_id): (int(r.blob_id), int(r.n))
           for r in out.itertuples()}
    assert got == brute_hot_components(x, y, 8.0, 5)
    assert len({b for b, _ in got.values()}) > 1  # several blobs formed


# ---------------------------------------------------------------------------
# Liang–Barsky clipped length
# ---------------------------------------------------------------------------


def _pair_table(lines, rects):
    """(big=LINESTRING, small=RECT) *_with_geos pair batch from python
    lists: lines[i] = [(x, y), ...], rects[i] = (x0, y0, x1, y1)."""
    from rayjoin.geom.encode import pack_single_rings
    from rayjoin.geom.spec import LINESTRING, RECT

    n = len(lines)
    nv = len(lines[0])
    flat = np.array([c for v in lines for p in v for c in p], np.float64)
    rflat = np.array([c for r in rects for c in r], np.float64)
    return pa.table({
        "big_row_id": pa.array(np.arange(n), pa.int64()),
        "small_row_id": pa.array(np.arange(n) + 1000, pa.int64()),
        "big_geom_type": pa.array(np.full(n, LINESTRING, np.int8), pa.int8()),
        "big_coords": pack_single_rings(flat, 2 * nv),
        "small_geom_type": pa.array(np.full(n, RECT, np.int8), pa.int8()),
        "small_coords": pack_single_rings(rflat, 4),
    })


def test_clip_length_bit_exact_vs_scalar():
    from rayjoin.geom.overlay import clip_length_batch, clip_length_scalar

    rng = np.random.default_rng(11)
    nv = 6
    lines, rects = [], []
    for _ in range(800):
        lines.append([tuple(rng.uniform(-6, 6, 2)) for _ in range(nv)])
        x0, y0 = rng.uniform(-5, 0, 2)
        w, h = rng.uniform(0.5, 6, 2)
        rects.append((x0, y0, x0 + w, y0 + h))
    # force degenerate + axis-aligned + boundary-running segments
    lines[0] = [(0.0, 0.0)] * nv                                  # all-degenerate
    lines[1] = [(-10.0, 0.5), (10.0, 0.5)] + [(10.0, 0.5)] * (nv - 2)  # horiz crossing
    rects[1] = (-1.0, 0.0, 1.0, 1.0)
    lines[2] = [(1.0, -5.0), (1.0, 5.0)] + [(1.0, 5.0)] * (nv - 2)     # runs ON x=1 edge
    rects[2] = (0.0, 0.0, 1.0, 1.0)
    lines[3] = [(9.0, 9.0), (9.5, 9.5)] * (nv // 2)                    # fully outside
    rects[3] = (0.0, 0.0, 1.0, 1.0)
    out = clip_length_batch(_pair_table(lines, rects))
    got = np.asarray(out["clip_micro"], dtype=np.int64)
    exp = np.array([clip_length_scalar(v, r) for v, r in zip(lines, rects)],
                   np.int64)
    assert (got == exp).all()
    # pinned cases: horiz crossing clips to width 2 exactly; the
    # edge-running segment counts its full in-rect run (closed rect) —
    # 999999, not 1e6: (0.6 - 0.5)*10 rounds DOWN in IEEE and the contract
    # floors (exactly what the SQL twin computes)
    assert got[1] == 2_000_000
    assert got[2] == 999_999
    assert got[0] == 0 and got[3] == 0


def test_clip_length_non_line_pairs_zero():
    from rayjoin.geom.overlay import clip_length_batch
    from rayjoin.geom.spec import RECT

    t = _pair_table([[(0.0, 0.0), (1.0, 1.0)]], [(0.0, 0.0, 2.0, 2.0)])
    t = t.set_column(t.schema.get_field_index("big_geom_type"), "big_geom_type",
                     pa.array(np.array([RECT], np.int8), pa.int8()))
    out = clip_length_batch(t)
    assert out["clip_micro"].to_pylist() == [0]


def test_pack_rings_layout():
    """pack_rings: 2 rings x 8 doubles per geometry, exterior first."""
    from rayjoin.geom.encode import pack_rings

    flat = np.arange(32, dtype=np.float64)  # 2 geometries
    col = pack_rings(flat, 8, 2)
    assert len(col) == 2
    g0 = col[0].as_py()
    assert len(g0) == 2 and g0[0] == list(range(8)) and g0[1] == list(range(8, 16))
    assert col[1].as_py()[1] == list(range(24, 32))


def test_line_density_vs_scalar(ray_session):
    """line_density == brute: per tile, sum of scalar Liang–Barsky clip
    over every segment of every line (full-grid scan, no bbox pruning)."""
    import ray.data

    from rayjoin.geom.encode import _geom_table, pack_single_rings
    from rayjoin.geom.overlay import clip_length_scalar
    from rayjoin.geom.spec import LINESTRING
    from rayjoin.pipelines.raster import line_density

    rng = np.random.default_rng(23)
    res, n = 4, 16
    nl, nv = 30, 5
    flat = rng.uniform(-170, 170, (nl, 2 * nv))
    flat[:, 1::2] = rng.uniform(-85, 85, (nl, nv))
    lines = _geom_table(np.arange(nl), LINESTRING,
                        pack_single_rings(flat.ravel(), 2 * nv))
    got = (line_density(ray.data.from_arrow(lines).repartition(3), resolution=res)
           .to_pandas().set_index("tile_id")["density_micro"].to_dict())
    exp = {}
    for i in range(nl):
        verts = [(flat[i, 2 * j], flat[i, 2 * j + 1]) for j in range(nv)]
        for iy in range(n):
            for ix in range(n):
                rect = (ix / n * 360.0 - 180.0, iy / n * 180.0 - 90.0,
                        (ix + 1) / n * 360.0 - 180.0, (iy + 1) / n * 180.0 - 90.0)
                m = clip_length_scalar(verts, rect)
                if m:
                    key = iy * n + ix
                    exp[key] = exp.get(key, 0) + m
    assert got == exp


def test_line_cross_points_vs_scalar():
    """Proper-crossing points == scalar parametric solve; touches and
    collinear overlaps excluded."""
    from rayjoin.geom.encode import lines_geom
    from rayjoin.geom.overlay import line_cross_points_batch

    rng = np.random.default_rng(43)
    n = 500
    A = rng.integers(-50, 50, (n, 4)).astype(np.float64)
    B = rng.integers(-50, 50, (n, 4)).astype(np.float64)
    # pinned rows: touch at endpoint (excluded), collinear overlap
    # (excluded), clean crossing (included)
    A[0] = (0, 0, 2, 0); B[0] = (2, 0, 4, 5)      # endpoint touch
    A[1] = (0, 0, 4, 0); B[1] = (1, 0, 3, 0)      # collinear overlap
    A[2] = (0, -2, 0, 2); B[2] = (-1, 0, 1, 0)    # crossing at origin
    bt = lines_geom(np.arange(n), A[:, 0], A[:, 1], A[:, 2], A[:, 3])
    st = lines_geom(np.arange(n), B[:, 0], B[:, 1], B[:, 2], B[:, 3])
    tbl = pa.table({
        "big_row_id": pa.array(np.arange(n), pa.int64()),
        "small_row_id": pa.array(np.arange(n), pa.int64()),
        "big_geom_type": bt["geom_type"], "big_coords": bt["coords"],
        "small_geom_type": st["geom_type"], "small_coords": st["coords"],
    })
    out = line_cross_points_batch(tbl)
    got = {int(r["big_row_id"]): (r["ix"], r["iy"])
           for r in out.to_pylist()}
    assert 0 not in got and 1 not in got
    assert got[2] == (0.0, 0.0)
    for i in range(n):
        ax1, ay1, ax2, ay2 = A[i]
        bx1, by1, bx2, by2 = B[i]
        d1 = (bx2-bx1)*(ay1-by1) - (by2-by1)*(ax1-bx1)
        d2 = (bx2-bx1)*(ay2-by1) - (by2-by1)*(ax2-bx1)
        d3 = (ax2-ax1)*(by1-ay1) - (ay2-ay1)*(bx1-ax1)
        d4 = (ax2-ax1)*(by2-ay1) - (ay2-ay1)*(bx2-ax1)
        proper = (((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0
                  and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0)
        assert (i in got) == proper
        if proper:
            t = d1 / (d1 - d2)
            assert got[i] == (ax1 + t * (ax2 - ax1), ay1 + t * (ay2 - ay1))
