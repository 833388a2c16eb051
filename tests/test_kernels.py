"""Vectorized kernels ≡ scalar spec, bit-for-bit.

The analog of the reference's proptest differential layer
(/root/reference/src/proptests.rs:109-144): every (method, type-pair) bucket
is exercised via seeded cross products of the proptest-style generators plus
the degenerate corpus, and the vectorized result must equal the scalar spec
exactly (booleans identical; distances bit-identical).
"""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from rayjoin import Interaction
from rayjoin.fixtures import degenerate_cases, mixed_random, pillboxes
from rayjoin.geom import encode, spec
from rayjoin.geom import batch as gbatch
from rayjoin.geom.batch import GeomBatch
from rayjoin.geom.relates import relate, to_spec
from rayjoin.geom.spec import Line, LineString, Point, Polygon, Rect, Triangle


def _batch(geoms):
    return GeomBatch.from_arrow(encode.geoms_to_table(geoms))


def _cross_check(small, big, methods=("intersects", "contains", "distance")):
    _check_pairs(small, big, methods)
    # the same geometries again as one-kind batches, so that the fixed-shape
    # decode (points, lines, rects, triangles) meets the spec too
    kinds_a = sorted({g.kind for g in small})
    kinds_b = sorted({g.kind for g in big})
    if len(kinds_a) == len(kinds_b) == 1:
        return
    for ka in kinds_a:
        for kb in kinds_b:
            _check_pairs([g for g in small if g.kind == ka],
                         [g for g in big if g.kind == kb], methods)


def _check_pairs(small, big, methods):
    A = _batch(small)
    B = _batch(big)
    na, nb = len(small), len(big)
    ia, ib = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
    ia, ib = ia.ravel(), ib.ravel()
    for method in methods:
        got = relate(method, A, ia, B, ib)
        fn = {"intersects": spec.intersects, "contains": spec.contains, "distance": spec.distance}[
            method
        ]
        exp = np.array([fn(small[i], big[j]) for i, j in zip(ia, ib)])
        if method == "distance":
            bad = np.flatnonzero(got != exp)
        else:
            bad = np.flatnonzero(got != exp.astype(bool))
        assert bad.size == 0, (
            f"{method}: {bad.size} mismatches; first: pair "
            f"({small[ia[bad[0]]]}, {big[ib[bad[0]]]}) got={got[bad[0]]} exp={exp[bad[0]]}"
        )


def test_batch_decode_roundtrip():
    geoms = mixed_random(60, seed=11) + pillboxes(3, seed=12)
    batch = _batch(geoms)
    for i, g in enumerate(geoms):
        g2 = to_spec(batch, i)
        assert spec.envelope(g2) == pytest.approx(spec.envelope(g), abs=0.0)
        assert tuple(batch.bbox[i]) == spec.envelope(g)


def test_mixed_random_equivalence():
    small = mixed_random(28, seed=100)
    big = mixed_random(28, seed=200)
    _cross_check(small, big)


def test_mixed_random_equivalence_second_seed():
    small = mixed_random(24, seed=300)
    big = mixed_random(24, seed=301)
    _cross_check(small, big)


def test_self_join_equivalence():
    g = mixed_random(25, seed=7)
    _cross_check(g, g)


def test_degenerate_equivalence():
    geoms = []
    for _, small, big, _ in degenerate_cases():
        geoms.extend(small)
        if big is not None:
            geoms.extend(big)
    # add extra boundary-sitting probes
    geoms += [
        Point(0.0, 0.0),
        Point(1.0, 0.0),
        Rect(0.0, 0.0, 1.0, 1.0),
        Rect(1.0, 0.0, 2.0, 1.0),  # touching edge
        Triangle(0.0, 0.0, 1.0, 1.0, 2.0, 2.0),  # collinear
        Line(0.0, 0.0, 2.0, 0.0),
        Line(1.0, 0.0, 3.0, 0.0),  # collinear overlap
        LineString(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))),
        Polygon.new([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]),
        Polygon.new(
            [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)],
            [[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]],
        ),
    ]
    _cross_check(geoms, geoms)


def test_pillbox_equivalence():
    pb = pillboxes(12, seed=5, width=100.0, height=50.0)  # dense plane → overlaps
    _cross_check(pb, pb)


def test_polygon_hole_cases():
    holed = Polygon.new(
        [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        [[(2.0, 2.0), (8.0, 2.0), (8.0, 8.0), (2.0, 8.0)]],
    )
    probes = [
        Point(5.0, 5.0),  # in hole
        Point(1.0, 1.0),  # in material
        Point(0.0, 5.0),  # on exterior boundary
        Point(2.0, 5.0),  # on hole boundary
        Line(4.0, 4.0, 6.0, 6.0),  # inside hole
        Line(1.0, 1.0, 9.0, 1.0),  # through material
        Rect(3.0, 3.0, 7.0, 7.0),  # rect inside hole
        Rect(-1.0, -1.0, 11.0, 11.0),  # rect containing everything
        Triangle(4.0, 4.0, 6.0, 4.0, 5.0, 6.0),  # tri in hole
        LineString(((3.0, 3.0), (7.0, 3.0), (7.0, 7.0))),
        Polygon.new([(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]),  # poly in hole
    ]
    _cross_check([holed], probes)
    _cross_check(probes, [holed])
    _cross_check(probes, probes)


def test_linestring_contains_walk_vectorized():
    """The geo 'look_for' walk (spanning collinear segments) and the LS⊇LS
    any/all composition, vectorized == scalar."""
    from rayjoin.geom.spec import Line, LineString

    cases_a = [
        LineString(((0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 4.0))),
        LineString(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))),
        LineString(((0.0, 0.0), (2.0, 0.0))),
    ]
    cases_b = [
        Line(1.0, 0.0, 3.0, 0.0),  # spans two collinear segments
        Line(3.0, 0.0, 4.0, 1.0),
        Line(0.0, 0.0, 4.0, 0.0),
        Line(0.5, 0.5, 1.5, 1.5),
        LineString(((1.0, 0.0), (3.0, 0.0))),
        LineString(((0.0, 0.0), (1.0, 1.0))),
        LineString(((1.0, 0.0), (3.0, 0.0), (4.0, 1.0))),
    ]
    _cross_check(cases_a, cases_b, methods=("contains",))


# ---- fixed-shape decode ≡ ragged decode ------------------------------------

_DECODED = ("bbox", "geom_ring_off", "ring_vert_off", "xy", "ring_edge_off", "edges")


def _assert_same_decode(got, ref):
    assert got.n == ref.n
    for f in _DECODED:
        x, y = getattr(got, f), getattr(ref, f)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), f
        assert x.tobytes() == y.tobytes(), f  # bits: NaN payloads, -0.0


def _special_values(rng, size):
    """Floats with NaN (both signs), ±inf, ±0.0 and ties mixed in."""
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
    v = rng.uniform(-2.0, 2.0, size)
    pick = rng.random(size) < 0.3
    v[pick] = special[rng.integers(0, special.size, int(pick.sum()))]
    return v


def _single_kind_tables():
    """One-kind geometry tables with special values: rects come out
    inverted about half the time, triangles include degenerate ones."""
    rng = np.random.default_rng(13)
    n = 400
    c = [_special_values(rng, n) for _ in range(6)]
    # degenerate triangles: a repeated vertex, collinear, all three equal
    c[2][:10], c[3][:10] = c[0][:10], c[1][:10]
    c[4][10:20], c[5][10:20] = 2 * c[2][10:20] - c[0][10:20], 2 * c[3][10:20] - c[1][10:20]
    for j in (2, 4):
        c[j][20:30], c[j + 1][20:30] = c[0][20:30], c[1][20:30]
    rid = np.arange(n)
    return {
        "point": encode.points_geom(rid, c[0], c[1]),
        "line": encode.lines_geom(rid, *c[:4]),
        "rect": encode.rects_geom(rid, *c[:4]),
        "triangle": encode.tris_geom(rid, *c),
    }


def _layouts(t):
    """The same rows as one chunk, several chunks, and a non-zero-offset slice."""
    return {
        "one_chunk": t,
        "multi_chunk": pa.concat_tables([t.slice(0, 7), t.slice(7, 150), t.slice(157)]),
        "sliced": t.slice(3, t.num_rows - 11),
    }


@pytest.mark.parametrize("kind", ["point", "line", "rect", "triangle"])
def test_fixed_shape_decode_matches_ragged(kind, monkeypatch):
    t = _single_kind_tables()[kind]
    ragged = gbatch._build_ragged
    refs = {name: ragged(*gbatch._columns(tt)) for name, tt in _layouts(t).items()}
    # a one-kind batch must never take the ragged decode
    monkeypatch.setattr(gbatch, "_build_ragged", None)
    for name, tt in _layouts(t).items():
        got = GeomBatch.from_arrow(tt)
        _assert_same_decode(got, refs[name])
        np.testing.assert_array_equal(got.row_id, refs[name].row_id)
        # edges are rebuilt after a pickle round trip (they are not pickled)
        _assert_same_decode(pickle.loads(pickle.dumps(got)), refs[name])
    # empty batch: the fixed-shape decode of zero rows equals the ragged one
    n, row_id, kinds, rings, vals, flat = gbatch._columns(t.slice(0, 0))
    _assert_same_decode(gbatch._build_fixed(n, row_id, kinds, int(t["geom_type"][0].as_py()), flat),
                        ragged(n, row_id, kinds, rings, vals, flat))


def test_point_probe_builds_no_edges():
    """CONTAINS point probes of rects and triangles read bbox and xy only, so
    neither side builds its edges."""
    from rayjoin.join.broadcast import BroadcastIndex

    regions = encode.geoms_to_table([
        Rect(0.0, 0.0, 2.0, 2.0), Triangle(1.0, 1.0, 4.0, 1.0, 1.0, 4.0), Rect(3.0, 3.0, 5.0, 5.0),
    ])
    index = BroadcastIndex(regions)
    rng = np.random.default_rng(3)
    points = encode.points_geom(np.arange(500), rng.uniform(-1, 6, 500), rng.uniform(-1, 6, 500))
    big = BroadcastIndex.decode(points)
    out = index.join(big, points, interaction=Interaction.CONTAINS)
    exp = [(b, s) for b, g in encode.table_to_geoms(points)
           for s, reg in encode.table_to_geoms(regions) if spec.contains(reg, g)]
    assert sorted(zip(out["big_row_id"].to_pylist(), out["small_row_id"].to_pylist())) == sorted(exp)
    assert index.batch._edges is None and big._edges is None
