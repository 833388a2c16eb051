"""STRtree candidate generation == brute-force inclusive bbox overlap."""

import zlib

import numpy as np
import pytest

from rayjoin.state.rtree import _GRID_COVER, STRtree, dilate

EMPTY = [np.inf, np.inf, -np.inf, -np.inf]  # bbox of an empty geometry


def _rand_boxes(rng, n, scale=100.0):
    p = rng.uniform(0, scale, size=(n, 2))
    wh = rng.uniform(0, scale / 10, size=(n, 2))
    return np.column_stack([p[:, 0], p[:, 1], p[:, 0] + wh[:, 0], p[:, 1] + wh[:, 1]])


def _brute_pairs(qbox, ebox):
    hits = ~(
        (qbox[:, None, 0] > ebox[None, :, 2])
        | (qbox[:, None, 2] < ebox[None, :, 0])
        | (qbox[:, None, 1] > ebox[None, :, 3])
        | (qbox[:, None, 3] < ebox[None, :, 1])
    )
    return np.nonzero(hits)


def _brute(qbox, ebox):
    q, e = _brute_pairs(qbox, ebox)
    return set(zip(q.tolist(), e.tolist()))


def _clustered(rng, n):
    # tight cluster, probed from far away and from its own x-range
    ebox = _rand_boxes(rng, n, scale=1.0)
    far = _rand_boxes(rng, 100) + 200.0
    above = _rand_boxes(rng, 100, scale=1.0)
    above[:, [1, 3]] += 50.0
    return ebox, np.concatenate([far, above, ebox[:20]])


def _edge_points(rng):
    # unit-cell grid; point queries on corners, edge midpoints and centers
    gx, gy = np.meshgrid(np.arange(12.0), np.arange(9.0))
    ebox = np.column_stack([gx.ravel(), gy.ravel(), gx.ravel() + 1, gy.ravel() + 1])
    px, py = np.meshgrid(np.arange(-0.5, 14.0, 0.5), np.arange(-0.5, 11.0, 0.5))
    p = np.column_stack([px.ravel(), py.ravel()])
    return ebox, np.column_stack([p, p])


def _shape(name):
    """(entry boxes, query boxes, ids) for one adversarial index shape."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    ids = None
    if name.startswith("n="):
        n = int(name[2:])
        ebox, qbox = _rand_boxes(rng, n), _rand_boxes(rng, 400)
        qbox[:, 2:] += 10.0
    elif name == "world_entry":
        ebox = np.vstack([_rand_boxes(rng, 500), [[-1e9, -1e9, 1e9, 1e9]]])
        qbox = _rand_boxes(rng, 200, scale=150.0) - 25.0
    elif name == "wide_entries":
        wide = _rand_boxes(rng, 5)
        wide[:, 2] = wide[:, 0] + 200.0
        ebox = np.vstack([_rand_boxes(rng, 300), wide, _rand_boxes(rng, 300)])
        qbox = _rand_boxes(rng, 300, scale=300.0) - 50.0
    elif name == "identical":
        ebox = np.tile([[10.0, 10.0, 20.0, 20.0]], (300, 1))
        qbox = _rand_boxes(rng, 200, scale=40.0)
    elif name == "clustered_far":
        ebox, qbox = _clustered(rng, 500)
    elif name == "empty_geoms":
        ebox = _rand_boxes(rng, 400)
        ebox[rng.choice(400, 40, replace=False)] = EMPTY
        qbox = _rand_boxes(rng, 200)
        qbox[rng.choice(200, 20, replace=False)] = EMPTY
    elif name == "nan_entries":
        # a NaN side never rejects, so such an entry matches on that axis
        ebox = _rand_boxes(rng, 400)
        ebox[rng.choice(400, 30, replace=False), rng.integers(0, 4, 30)] = np.nan
        ebox[rng.choice(400, 3, replace=False)] = np.nan
        qbox = _rand_boxes(rng, 200)
    elif name == "edge_points":
        ebox, qbox = _edge_points(rng)
    elif name == "custom_ids":
        ebox, qbox = _rand_boxes(rng, 333), _rand_boxes(rng, 200)
        ids = rng.permutation(333) * 7 + 5
    else:  # many_queries: m > the default probe chunk
        ebox, qbox = _rand_boxes(rng, 300), _rand_boxes(rng, 20_000)
    return ebox, qbox, ids


# n=1000: 63 leaves in slices of 8 -> the last slice and last leaf partial
SHAPES = ["n=1", "n=15", "n=16", "n=17", "n=257", "n=1000", "world_entry", "wide_entries",
          "identical", "clustered_far", "empty_geoms", "nan_entries", "edge_points",
          "custom_ids", "many_queries"]


def _sorted_pairs(q, e):
    o = np.lexsort((e, q))
    return q[o].astype(np.int64), e[o].astype(np.int64)


@pytest.mark.parametrize("name", SHAPES)
def test_query_matches_oracle(name):
    ebox, qbox, ids = _shape(name)
    q, e = STRtree(ebox, ids=ids).query(qbox)
    assert q.dtype == e.dtype == np.int64
    assert (np.diff(q) >= 0).all()  # the order contract: grouped by query
    bq, be = _brute_pairs(qbox, ebox)
    got_q, got_e = _sorted_pairs(q, e)
    want_q, want_e = _sorted_pairs(bq, be if ids is None else ids[be])
    assert np.array_equal(got_q, want_q) and np.array_equal(got_e, want_e)


def test_unbounded_queries_match_bruteforce():
    # NaN and infinite query sides never reject (the ~(a > b | ...) form),
    # and never report the last leaf's padding
    rng = np.random.default_rng(5)
    ebox = _rand_boxes(rng, 37)
    qbox = np.array([[-np.inf, -np.inf, np.inf, np.inf], [np.nan] * 4,
                     [np.nan, 0.0, np.nan, 50.0], [-np.inf, 20.0, np.inf, 30.0]])
    q, e = STRtree(ebox).query(qbox)
    assert set(zip(q.tolist(), e.tolist())) == _brute(qbox, ebox)


def test_query_matches_bruteforce():
    rng = np.random.default_rng(42)
    for n, m in [(0, 5), (1, 3), (7, 7), (300, 200), (2000, 100)]:
        ebox = _rand_boxes(rng, n)
        qbox = _rand_boxes(rng, m)
        tree = STRtree(ebox)
        q, e = tree.query(qbox)
        assert set(zip(q.tolist(), e.tolist())) == _brute(qbox, ebox)


def test_touching_boxes_are_candidates():
    # inclusive overlap (rstar locate_in_envelope_intersecting semantics)
    ebox = np.array([[0.0, 0.0, 1.0, 1.0]])
    tree = STRtree(ebox)
    q, e = tree.query(np.array([[1.0, 1.0, 2.0, 2.0]]))
    assert q.size == 1
    q, e = tree.query(np.array([[1.0001, 0.0, 2.0, 1.0]]))
    assert q.size == 0


def test_dilate_for_proximity():
    # pair at exactly max_distance along an axis must be a candidate
    ebox = np.array([[0.0, 0.0, 0.0, 0.0]])
    tree = STRtree(dilate(ebox, 5.0))
    q, e = tree.query(np.array([[5.0, 0.0, 5.0, 0.0]]))
    assert q.size == 1


def test_custom_ids():
    rng = np.random.default_rng(1)
    ebox = _rand_boxes(rng, 50)
    ids = np.arange(50) * 10 + 3
    tree = STRtree(ebox, ids=ids)
    q, e = tree.query(ebox[:5])
    assert set(e.tolist()) <= set(ids.tolist())
    # each box overlaps itself
    for i in range(5):
        assert ids[i] in e[q == i]


# ---------------------------------------------------------------------------
# point probes: the uniform point grid must give the tree's pairs, in order
# ---------------------------------------------------------------------------


def _assert_packed_order(tree, ebox, ids, qbox):
    """``tree.query(qbox)`` equals brute force, sorted by query, then by
    packed position (``tree.order``'s inverse)."""
    q, e = tree.query(qbox)
    bq, be = _brute_pairs(qbox, ebox)
    inv = np.empty(ebox.shape[0], np.int64)
    inv[tree.order] = np.arange(ebox.shape[0])
    o = np.lexsort((inv[be], bq))
    want_e = be[o] if ids is None else ids[be[o]]
    assert q.dtype == e.dtype == np.int64
    assert np.array_equal(q, bq[o]) and np.array_equal(e, want_e)


def _probe_points(tree, ebox, rng):
    """Finite points on entry corners and centers, on grid cell boundaries
    and the grid extent's edges, outside the extent, and duplicated."""
    fin = ebox[np.isfinite(ebox).all(axis=1)]
    xs = [fin[:, 0], fin[:, 2], fin[:, 0], fin[:, 2], (fin[:, 0] + fin[:, 2]) / 2]
    ys = [fin[:, 1], fin[:, 3], fin[:, 3], fin[:, 1], (fin[:, 1] + fin[:, 3]) / 2]
    pts = [np.column_stack([np.concatenate(xs), np.concatenate(ys)])]
    g = tree._point_grid()
    if g is not None:
        # every cell boundary line, crossed with the other axis' boundaries
        bx = g.lo[0] + np.arange(g.side[0] + 1) / (g.scale[0] or 1.0)
        by = g.lo[1] + np.arange(g.side[1] + 1) / (g.scale[1] or 1.0)
        gx, gy = np.meshgrid(bx, by)
        pts.append(np.column_stack([gx.ravel(), gy.ravel()]))
        pts.append(np.column_stack([np.nextafter(gx.ravel(), -np.inf),
                                    np.nextafter(gy.ravel(), np.inf)]))
        lo = np.array(g.lo)
        pts.append(np.array([lo - 1.0, lo + 1e6, [lo[0], lo[1] + 1e6], [-1e300, 1e300]]))
    p = np.concatenate(pts)
    p = p[np.isfinite(p).all(axis=1)]
    p = np.concatenate([p, p[rng.integers(0, len(p), min(len(p), 50))]])
    return np.column_stack([p, p])


@pytest.mark.parametrize("name", SHAPES)
def test_point_probes_match_bruteforce_in_order(name):
    ebox, _, ids = _shape(name)
    tree = STRtree(ebox, ids=ids)
    qbox = _probe_points(tree, ebox, np.random.default_rng(3))
    _assert_packed_order(tree, ebox, ids, qbox)
    _assert_packed_order(tree, ebox, ids, qbox[::-1].copy())


@pytest.mark.parametrize("name", ["n=257", "nan_entries", "world_entry", "empty_geoms"])
def test_nonfinite_points_and_mixed_chunks(name):
    # a NaN or infinite point, or one box, sends its chunk down the tree
    ebox, qbox, ids = _shape(name)
    tree = STRtree(ebox, ids=ids)
    pts = _probe_points(tree, ebox, np.random.default_rng(4))[:300]
    odd = np.array([[np.nan] * 4, [np.inf] * 4, [-np.inf] * 4,
                    [np.nan, 5.0, np.nan, 5.0], [np.inf, 5.0, np.inf, 5.0]])
    for mixed in (np.concatenate([pts, odd]), np.concatenate([pts, qbox[:5]]),
                  np.concatenate([odd, pts, qbox[:5]])):
        _assert_packed_order(tree, ebox, ids, mixed)
        _assert_packed_order(tree, ebox, ids, mixed[::-1].copy())
    # chunks of 64: all-point chunks take the grid, the rest the tree
    mixed = np.concatenate([pts, odd, pts])
    q, e = tree.query(mixed, chunk=64)
    want_q, want_e = tree.query(mixed)
    assert np.array_equal(q, want_q) and np.array_equal(e, want_e)


def _world(rng, n_small, n_world):
    world = np.tile([[-1e9, -1e9, 1e9, 1e9], [-np.inf, -np.inf, np.inf, np.inf]],
                    (n_world // 2, 1))
    return np.vstack([_rand_boxes(rng, n_small, scale=10.0), world])


@pytest.mark.parametrize("case, side", [
    ("one_point", None),  # 50 entries in one cell: lists too long
    ("few_at_one_point", (1, 1)),
    ("single", (1, 1)),
    ("vertical_line", (1, 17)),  # zero-width x axis, 100 entries
    ("world_8", (19, 19)),  # isqrt(3n) = 38 covers too many cells: halved once
    ("world_20", None),  # halved, and lists are still too long
    ("identical", None),  # halved down to one cell
])
def test_point_grid_fallback_rules(case, side):
    rng = np.random.default_rng(11)
    if case == "one_point":
        ebox = np.tile([[3.0, 4.0, 3.0, 4.0]], (50, 1))
    elif case == "few_at_one_point":
        ebox = np.tile([[3.0, 4.0, 3.0, 4.0]], (10, 1))
    elif case == "single":
        ebox = np.array([[1.0, 2.0, 3.0, 5.0]])
    elif case == "vertical_line":
        y = rng.uniform(0, 10, 100)
        ebox = np.column_stack([np.full(100, 5.0), y, np.full(100, 5.0), y + 0.01])
    elif case == "identical":
        ebox = _shape("identical")[0]
    else:
        ebox = _world(rng, 500, int(case[6:]))
    tree = STRtree(ebox)
    g = tree._point_grid()
    assert (None if g is None else tuple(g.side)) == side
    if g is not None:
        assert g.pos.size <= _GRID_COVER * ebox.shape[0]
    pts = _probe_points(tree, ebox, rng)
    pts = np.concatenate([pts, _rand_boxes(rng, 300, scale=12.0)[:, [0, 1, 0, 1]] - 1.0])
    _assert_packed_order(tree, ebox, None, pts)


def test_pickle_drops_point_grid():
    import pickle

    ebox, _, _ = _shape("n=1000")
    tree = STRtree(ebox)
    before = pickle.dumps(tree)
    pts = _probe_points(tree, ebox, np.random.default_rng(2))
    q, e = tree.query(pts)
    assert tree.__dict__.get("_grid") is not None
    after = pickle.dumps(tree)
    assert len(after) == len(before) and after == before
    q2, e2 = pickle.loads(after).query(pts)
    assert np.array_equal(q, q2) and np.array_equal(e, e2)
