"""Density clustering over point geometries (exact DBSCAN).

DBSCAN (Ester et al., KDD'96) expressed entirely over the engine's existing
scale primitives — no new shuffle machinery:

  eps-neighborhood edges   -> the partitioned proximity SELF-join
                              (rayjoin/join/partitioned.py)
  ST-DBSCAN time filter    -> both endpoints' timestamps read in place from
                              a sharded lookup of ``times``
  degree / core points     -> per-batch Arrow pre-aggregation + ONE groupby
                              (the shuffle carries per-block partial counts,
                              not edges)
  core-core components     -> core membership of both endpoints by lookup
                              inside the edge map, per-block contraction,
                              then dup_clusters (driver union-find for
                              small pair graphs, distributed pointer
                              doubling above the row/byte caps)
  border/core assignment   -> the component labels by lookup + a min groupby
  noise                    -> two left_anti lookups (core, border)

Every lookup is a key join on a side sharded and built once
(rayjoin/join/equi.py): the edge list streams past it with no exchange,
and the driver never holds an id set.

Determinism contract (this engine's documented semantics — stricter than the
paper's first-scan-wins labelling, so serial == parallel == SQL):

  * a cluster's id is the MIN row_id among its CORE points;
  * a border point within eps of core points from several clusters joins the
    MIN cluster id (the paper leaves this to scan order);
  * neighborhood counts INCLUDE the point itself (|N_eps(p)| >= min_pts,
    the scikit-learn convention), and the eps test is inclusive (<=),
    matching proximity_map (reference semantics: inclusive max_distance,
    /root/reference/src/lib.rs proximity docs).

Output: one row per input point — (row_id, cluster_id, is_core) with
cluster_id == -1 for noise.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_OUT_EMPTY = pa.table(
    {
        "row_id": pa.array([], pa.int64()),
        "cluster_id": pa.array([], pa.int64()),
        "is_core": pa.array([], pa.bool_()),
    }
)


class TimesMissingRowId(ValueError):
    """ST-DBSCAN's ``times`` has no timestamp for a point's row_id."""

    def __init__(self, row_id: int):
        self.row_id = row_id
        super().__init__(f"times missing row_id {row_id}")


def _pin_out(t: pa.Table, is_core: bool) -> pa.Table:
    return pa.table(
        {
            "row_id": t["row_id"].cast(pa.int64()),
            "cluster_id": t["cluster_id"].cast(pa.int64()),
            "is_core": pa.array([is_core] * t.num_rows, pa.bool_()),
        }
    )


def dbscan(points, *, eps: float, min_pts: int,
           components_method: str = "auto",
           metric: str = "euclidean",
           times=None, eps_t: int | None = None):
    """Exact DBSCAN over a point geometry table/Dataset (columns
    row_id/geom_type/coords, as built by ``geom.encode.points_geom``).
    row_ids must be unique.  Returns Dataset[row_id, cluster_id, is_core]
    covering EVERY input point (noise rows carry cluster_id == -1).

    ``eps`` is the inclusive neighborhood radius, ``min_pts`` the core
    threshold (self-inclusive).  ``components_method`` forwards to
    ``dup_clusters`` ("auto" | "driver" | "distributed").

    Membership and labels are key lookups on sharded sides built once
    (``join.equi.KeyLookup``): the edge list streams past them in place,
    so no edge row is copied or shuffled and the driver holds no id set.

    ``metric``: "euclidean" (planar; eps in coordinate units, partitioned
    self-join) or "geodesic" (lon/lat points on the R=6371km sphere; eps in
    METERS, pole- and antimeridian-safe self-join from join/geodesic.py).
    Everything downstream of the edge list is shared.

    ``times`` + ``eps_t`` turn this into ST-DBSCAN (Birant & Kut 2007):
    ``times`` is a Dataset/Table[row_id, t] (int64; every point present,
    else ``TimesMissingRowId``) and a pair is a neighbor only when BOTH
    the spatial eps and |t_a - t_b| <= eps_t hold.  The temporal predicate
    filters the spatial edge list, reading both endpoints' timestamps in
    place from a lookup of ``times`` (``KeyLookup.get``).
    """
    import ray.data
    from ray.data.aggregate import Min, Sum

    from ..config import Config
    from ..join.equi import KeyLookup, equi_join
    from ..join.partitioned import partitioned_proximity_map
    from ..util import drop_schemaless_empty_blocks
    from .dedup import _clusters_numpy, dup_clusters

    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    pts = ray.data.from_arrow(points) if isinstance(points, pa.Table) else points
    pts = pts.materialize()

    # 1) eps-neighborhood edge list via the partitioned proximity self-join.
    #    Every point pairs with itself (distance 0), so every point appears
    #    as big_row_id at least once.  Pairs come out in BOTH directions
    #    (each point sits on both sides), which the degree count and the
    #    component edges both want.
    if metric == "euclidean":
        edges = partitioned_proximity_map(pts, pts, Config(max_distance=float(eps)))
    elif metric == "geodesic":
        from ..join.geodesic import geodesic_proximity_map

        edges = geodesic_proximity_map(pts, pts, max_meters=float(eps))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    edges = edges.map_batches(
        lambda t: t.select(["big_row_id", "small_row_id"]),
        batch_format="pyarrow",
    )

    def edge_arrays(t):
        return (np.asarray(t["big_row_id"].combine_chunks(), np.int64),
                np.asarray(t["small_row_id"].combine_chunks(), np.int64))

    # 1b) ST-DBSCAN temporal predicate on the spatial edge list
    if times is not None:
        if eps_t is None:
            raise ValueError("times given without eps_t")
        tds = ray.data.from_arrow(times) if isinstance(times, pa.Table) else times
        tlook = KeyLookup(tds.map_batches(
            lambda t: pa.table({"row_id": t["row_id"].cast(pa.int64()),
                                "t": t["t"].cast(pa.int64())}),
            batch_format="pyarrow"), "row_id")
        et = int(eps_t)

        def tfilter(t: pa.Table) -> pa.Table:
            a, b = edge_arrays(t)
            (ta, hit_a), (tb, hit_b) = tlook.get(a, "t"), tlook.get(b, "t")
            missing = np.concatenate([a[~hit_a], b[~hit_b]])
            if missing.size:
                raise TimesMissingRowId(int(missing[0]))
            return t.filter(pa.array(np.abs(ta - tb) <= et))

        edges = edges.map_batches(tfilter, batch_format="pyarrow")
    edges = edges.materialize()

    # 2) core points: |N_eps(p)| >= min_pts.  Partial count per block, one
    #    tiny groupby over (row_id, cnt) partials.
    def deg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("big_row_id").aggregate([("big_row_id", "count")])
        return pa.table(
            {"row_id": g["big_row_id"].cast(pa.int64()),
             "cnt": g["big_row_id_count"].cast(pa.int64())}
        )

    mp = pa.scalar(int(min_pts), pa.int64())
    core_ids = (
        edges.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("row_id")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], mp)).select(["row_id"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    core = KeyLookup(core_ids, "row_id")

    # 3) connected components of core points under the eps relation.  Both
    #    endpoints must be core; self-edges keep singleton-core clusters
    #    alive (a core point whose eps-neighbors are all border).  Each edge
    #    block contracts to <= one (node, local-root) row per distinct node
    #    by a local union-find: contraction over ANY edge partition keeps
    #    global connectivity, so dup_clusters sees O(n) rows instead of
    #    O(n * degree).
    def core_edges(t: pa.Table) -> pa.Table:
        a, b = edge_arrays(t)
        m = core.contains(a)
        m[m] = core.contains(b[m])
        if not m.any():
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        return _clusters_numpy(a[m], b[m]).rename_columns(["id_a", "id_b"])

    # with no core point the graph is empty, which only the driver plan
    # takes (the distributed plan's hash joins fail on empty sides)
    comp = dup_clusters(edges.map_batches(core_edges, batch_format="pyarrow"),
                        method=components_method if core_ids.count() else "driver"
                        ).materialize()
    # every core point, and only those, has a component label
    labels = KeyLookup(comp, "doc_id")

    # 4) border points: non-core with a core neighbor; the MIN neighboring
    #    cluster id, pre-reduced per block before one min groupby
    def border_partial(t: pa.Table) -> pa.Table:
        a, b = edge_arrays(t)
        m = ~labels.contains(a)
        lab, hit = labels.get(b[m], "cluster_id")
        g = (pa.table({"row_id": pa.array(a[m][hit], pa.int64()),
                       "cluster_id": pa.array(lab[hit], pa.int64())})
             .group_by("row_id").aggregate([("cluster_id", "min")]))
        return pa.table({"row_id": g["row_id"], "cluster_id": g["cluster_id_min"]})

    border = (
        edges.map_batches(border_partial, batch_format="pyarrow")
        .groupby("row_id")
        .aggregate(Min("cluster_id", alias_name="cluster_id"))
        .materialize()
    )

    # 5) noise: neither core nor border
    noise = equi_join(labels.join(pts, "row_id", how="left_anti"), border, "row_id",
                      how="left_anti")

    core_out = comp.map_batches(
        lambda t: _pin_out(pa.table({"row_id": t["doc_id"], "cluster_id": t["cluster_id"]}),
                           True),
        batch_format="pyarrow",
    )
    border_out = border.map_batches(lambda t: _pin_out(t, False), batch_format="pyarrow")
    noise_out = noise.map_batches(
        lambda t: _pin_out(t.append_column(
            "cluster_id", pa.array(np.full(t.num_rows, -1, np.int64))), False),
        batch_format="pyarrow")

    out = core_out.union(border_out).union(noise_out)
    return drop_schemaless_empty_blocks(out, _OUT_EMPTY)
