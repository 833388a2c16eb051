"""Density clustering over point geometries (exact DBSCAN).

DBSCAN (Ester et al., KDD'96) expressed entirely over the engine's existing
scale primitives — no new shuffle machinery:

  eps-neighborhood edges   -> the partitioned proximity SELF-join
                              (sharded broadcast of dilated boxes;
                              rayjoin/join/partitioned.py)
  degree / core points     -> per-batch Arrow pre-aggregation + ONE groupby
                              (the shuffle carries per-block partial counts,
                              not edges)
  core-core components     -> dup_clusters (driver union-find for small pair
                              graphs, distributed pointer doubling —
                              O(log diameter) hash-join rounds — above the
                              row/byte caps)
  border/core assignment   -> one hash join + a min groupby
  noise                    -> one left_anti hash join

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


def _times_at(ids_s: np.ndarray, tv: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Timestamps of ``ids`` from the row_id-sorted (ids_s, tv) arrays."""
    pos = np.searchsorted(ids_s, ids)
    ok = pos < ids_s.size
    ok[ok] = ids_s[pos[ok]] == ids[ok]
    if not ok.all():
        raise TimesMissingRowId(int(ids[~ok][0]))
    return tv[pos]


def _pin_out(t: pa.Table, is_core: bool) -> pa.Table:
    return pa.table(
        {
            "row_id": t["row_id"].cast(pa.int64()),
            "cluster_id": t["cluster_id"].cast(pa.int64()),
            "is_core": pa.array([is_core] * t.num_rows, pa.bool_()),
        }
    )


def ids_noise_only(pts):
    """All-noise output: every point with cluster_id -1, is_core false."""
    return pts.map_batches(
        lambda t: _pin_out(
            pa.table(
                {"row_id": t["row_id"].cast(pa.int64()),
                 "cluster_id": pa.array([-1] * t.num_rows, pa.int64())}
            ),
            False,
        ),
        batch_format="pyarrow",
    )


def dbscan(points, *, eps: float, min_pts: int,
           components_method: str = "auto",
           core_broadcast_rows: int = 16_000_000,
           metric: str = "euclidean",
           times=None, eps_t: int | None = None):
    """Exact DBSCAN over a point geometry table/Dataset (columns
    row_id/geom_type/coords, as built by ``geom.encode.points_geom``).
    row_ids must be unique.  Returns Dataset[row_id, cluster_id, is_core]
    covering EVERY input point (noise rows carry cluster_id == -1).

    ``eps`` is the inclusive neighborhood radius, ``min_pts`` the core
    threshold (self-inclusive).  ``components_method`` forwards to
    ``dup_clusters`` ("auto" | "driver" | "distributed").

    Two physical plans for the membership/label steps, picked by core count
    (the engine's usual broadcast-vs-join tiering):

    - core set (and comp labels) <= ``core_broadcast_rows`` (x8B = 128 MiB
      plasma object at the default): sorted-array broadcast, prepared in a
      Ray task (driver stays O(1)); edge classification and label lookup are
      searchsorted inside map_batches — ZERO hash-join shuffles of the edge
      list.
    - above the cap: hash joins of the edge list against the core/label
      Datasets (5 shuffles; correct at any size).

    ``metric``: "euclidean" (planar; eps in coordinate units, partitioned
    self-join) or "geodesic" (lon/lat points on the R=6371km sphere; eps in
    METERS, pole- and antimeridian-safe grid self-join from
    join/geodesic.py).  Everything downstream of the edge list is shared.

    ``times`` + ``eps_t`` turn this into ST-DBSCAN (Birant & Kut 2007):
    ``times`` is a Dataset/Table[row_id, t] (int64; every point present,
    else both tiers raise ``TimesMissingRowId``)
    and a pair is a neighbor only when BOTH the spatial eps and
    |t_a - t_b| <= eps_t hold.  The temporal predicate filters the spatial
    edge list through the engine's usual tiering: a sorted (row_id, t)
    plasma broadcast + searchsorted inside map_batches under
    ``core_broadcast_rows``, two hash joins above it.
    """
    import ray
    import ray.data
    from ray.data.aggregate import Min, Sum

    from ..config import Config
    from ..join.partitioned import partitioned_proximity_map
    from ..util import drop_schemaless_empty_blocks
    from .dedup import _num_join_partitions, dup_clusters

    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    pts = ray.data.from_arrow(points) if isinstance(points, pa.Table) else points
    pts = pts.materialize()

    # 1) eps-neighborhood edge list via the partitioned proximity self-join.
    #    Every point pairs with itself (distance 0), so every point appears
    #    as big_row_id at least once.  Pairs come out in BOTH directions
    #    (each point sits on both sides), which the degree count and the
    #    component edges both want.  map_groups can emit schemaless empty
    #    blocks that would crash the hash joins below — scrub them once.
    edge_schema = pa.table(
        {"big_row_id": pa.array([], pa.int64()),
         "small_row_id": pa.array([], pa.int64())}
    )
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
    edges = drop_schemaless_empty_blocks(edges, edge_schema)

    # 1b) ST-DBSCAN temporal predicate on the spatial edge list
    if times is not None:
        if eps_t is None:
            raise ValueError("times given without eps_t")
        tds = ray.data.from_arrow(times) if isinstance(times, pa.Table) else times
        n_times = tds.count()
        if n_times <= core_broadcast_rows:
            @ray.remote
            def _prep_times(tabs):
                tabs = ray.get(list(tabs))  # a LIST of refs is not auto-resolved
                cat = pa.concat_tables([t for t in tabs if t.num_rows])
                ids = np.asarray(cat["row_id"], dtype=np.int64)
                tv = np.asarray(cat["t"], dtype=np.int64)
                o = np.argsort(ids, kind="stable")
                return ids[o], tv[o]

            tref = _prep_times.remote(
                tds.select_columns(["row_id", "t"]).to_arrow_refs())
            et = np.int64(int(eps_t))

            def tfilter(t: pa.Table, tref=tref) -> pa.Table:
                ids_s, tv = ray.get(tref)
                a = np.asarray(t["big_row_id"].combine_chunks(), dtype=np.int64)
                b = np.asarray(t["small_row_id"].combine_chunks(), dtype=np.int64)
                ta = _times_at(ids_s, tv, a)
                tb = _times_at(ids_s, tv, b)
                keep = np.abs(ta - tb) <= et
                return t.filter(pa.array(keep))

            edges = edges.map_batches(tfilter, batch_format="pyarrow")
        else:
            ta_ds = tds.map_batches(
                lambda t: pa.table({"big_row_id": t["row_id"].cast(pa.int64()),
                                    "ta": t["t"].cast(pa.int64())}),
                batch_format="pyarrow")
            tb_ds = tds.map_batches(
                lambda t: pa.table({"small_row_id": t["row_id"].cast(pa.int64()),
                                    "tb": t["t"].cast(pa.int64())}),
                batch_format="pyarrow")
            nj = _num_join_partitions(edges)
            # left joins: an endpoint without a timestamp shows as a null
            # and fails below instead of silently dropping its edges
            edges = (edges.join(ta_ds, "left_outer", nj, on=("big_row_id",))
                     .join(tb_ds, "left_outer", nj, on=("small_row_id",)))
            et = pa.scalar(int(eps_t), pa.int64())

            def tkeep(t: pa.Table) -> pa.Table:
                for col, tcol in (("big_row_id", "ta"), ("small_row_id", "tb")):
                    if t[tcol].null_count:
                        missing = t[col].filter(pc.is_null(t[tcol]))
                        raise TimesMissingRowId(missing[0].as_py())
                keep = pc.less_equal(
                    pc.abs(pc.subtract(t["ta"], t["tb"])), et)
                return t.filter(keep).select(["big_row_id", "small_row_id"])

            edges = edges.map_batches(tkeep, batch_format="pyarrow")
        edges = drop_schemaless_empty_blocks(edges.materialize(), edge_schema)

    # 2) core points: |N_eps(p)| >= min_pts.  Partial count per block, one
    #    tiny groupby over (row_id, cnt) partials.
    def deg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("big_row_id").aggregate([("big_row_id", "count")])
        return pa.table(
            {"row_id": g["big_row_id"].cast(pa.int64()),
             "cnt": g["big_row_id_count"].cast(pa.int64())}
        )

    mp = pa.scalar(int(min_pts), pa.int64())
    core = (
        edges.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("row_id")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], mp)).select(["row_id"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    core = drop_schemaless_empty_blocks(
        core, pa.table({"row_id": pa.array([], pa.int64())})
    )

    nparts = _num_join_partitions()

    # No core points -> everything is noise.  (Short-circuit matters beyond
    # taste: a hash join whose right side is an EMPTY dataset shuffles
    # schemaless partition blocks and dies inside acero.)
    if core.count() == 0:
        return ids_noise_only(pts)

    n_core = core.count()

    # 3) connected components of core points under the eps relation.  Both
    #    endpoints must be core; self-edges keep singleton-core clusters
    #    alive (a core point whose eps-neighbors are all border).
    def contract(a: np.ndarray, b: np.ndarray) -> pa.Table:
        # local union-find per edge block: a dense eps-graph has ~degree x n
        # edges, but each block contracts to <= one (node, local-root) row
        # per distinct node.  Contraction over ANY edge partition preserves
        # global connectivity, so dup_clusters sees a graph of O(n) rows
        # instead of O(n * degree) (with the broadcast membership tier this
        # took the 1M-point stress from 281s to 17.6s combined).
        from .dedup import _clusters_numpy

        if a.size == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        return _clusters_numpy(a, b).rename_columns(["id_a", "id_b"])

    def premin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"row_id": pa.array([], pa.int64()),
                             "cluster_id": pa.array([], pa.int64())})
        g = t.group_by("row_id").aggregate([("cluster_id", "min")])
        return pa.table({"row_id": g["row_id"].cast(pa.int64()),
                         "cluster_id": g["cluster_id_min"].cast(pa.int64())})

    assigned_schema = pa.table({"row_id": pa.array([], pa.int64()),
                                "cluster_id": pa.array([], pa.int64())})

    @ray.remote(num_cpus=0)
    def _sorted_ids(*tabs):
        keep = [x for x in tabs if x.num_rows]
        if not keep:
            return np.empty(0, np.int64)
        t = pa.concat_tables(keep)
        return np.sort(np.asarray(t.column(0), dtype=np.int64))

    @ray.remote(num_cpus=0)
    def _sorted_lookup(*tabs):
        keep = [x for x in tabs if x.num_rows]
        if not keep:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        t = pa.concat_tables(keep)
        k = np.asarray(t["doc_id"], dtype=np.int64)
        v = np.asarray(t["cluster_id"], dtype=np.int64)
        o = np.argsort(k, kind="stable")
        return k[o], v[o]

    def _in_sorted(sorted_ids: np.ndarray, vals: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(sorted_ids, vals)
        pos = np.minimum(pos, max(sorted_ids.size - 1, 0))
        return sorted_ids[pos] == vals

    if n_core <= core_broadcast_rows:
        # --- broadcast tier: membership/labels as sorted plasma arrays
        # (prepared in a Ray task — the driver never holds them), edge
        # classification by searchsorted in map_batches.  No edge shuffle
        # beyond the one dup_clusters round over CONTRACTED rows.
        core_ref = _sorted_ids.remote(*core.to_arrow_refs())

        def edge_arrays(t):
            return (np.asarray(t["big_row_id"].combine_chunks(), np.int64),
                    np.asarray(t["small_row_id"].combine_chunks(), np.int64))

        def cc_edges(t: pa.Table) -> pa.Table:
            cid = ray.get(core_ref)
            a, b = edge_arrays(t)
            m = _in_sorted(cid, a) & _in_sorted(cid, b)
            return contract(a[m], b[m])

        comp = dup_clusters(
            edges.map_batches(cc_edges, batch_format="pyarrow"),
            method=components_method,
        ).materialize()
        comp_ref = _sorted_lookup.remote(*comp.to_arrow_refs())

        def border_partial(t: pa.Table) -> pa.Table:
            cid = ray.get(core_ref)
            ck, cv = ray.get(comp_ref)
            a, b = edge_arrays(t)
            m = ~_in_sorted(cid, a) & _in_sorted(cid, b)
            lab = cv[np.searchsorted(ck, b[m])]
            return premin(pa.table(
                {"row_id": pa.array(a[m], pa.int64()),
                 "cluster_id": pa.array(lab, pa.int64())}
            ))

        border = (
            edges.map_batches(border_partial, batch_format="pyarrow")
            .groupby("row_id")
            .aggregate(Min("cluster_id", alias_name="cluster_id"))
            .materialize()
        )
        border = drop_schemaless_empty_blocks(border, assigned_schema)
        border_ref = _sorted_ids.remote(*border.to_arrow_refs())

        def noise_filter(t: pa.Table) -> pa.Table:
            cid = ray.get(core_ref)
            bid = ray.get(border_ref)
            v = np.asarray(t["row_id"].combine_chunks(), np.int64)
            m = ~_in_sorted(cid, v)
            if bid.size:
                m &= ~_in_sorted(bid, v)
            v = v[m]
            return _pin_out(pa.table(
                {"row_id": pa.array(v, pa.int64()),
                 "cluster_id": pa.array(np.full(v.size, -1, np.int64), pa.int64())}
            ), False)

        noise = pts.map_batches(
            lambda t: pa.table({"row_id": t["row_id"].cast(pa.int64())}),
            batch_format="pyarrow",
        ).map_batches(noise_filter, batch_format="pyarrow")
    else:
        # --- join tier: hash joins of the edge list (any size).  A join can
        # emit EMPTY-SCHEMA partition blocks that crash the next join's
        # acero stage — scrub between every chained pair; joins also crash
        # on an EMPTY side, hence the count() guards.
        half = edges.join(core, "inner", nparts, on=("big_row_id",),
                          right_on=("row_id",)).select_columns(
            ["big_row_id", "small_row_id"])
        half = drop_schemaless_empty_blocks(half, edge_schema)
        core_edges = (
            half.join(core, "inner", nparts, on=("small_row_id",),
                      right_on=("row_id",))
            .select_columns(["big_row_id", "small_row_id"])
            .map_batches(
                lambda t: contract(
                    np.asarray(t["big_row_id"].combine_chunks(), np.int64),
                    np.asarray(t["small_row_id"].combine_chunks(), np.int64),
                ),
                batch_format="pyarrow",
            )
        )
        comp = dup_clusters(core_edges, method=components_method).materialize()

        nc_edges = edges.join(core, "left_anti", nparts, on=("big_row_id",),
                              right_on=("row_id",))
        nc_edges = drop_schemaless_empty_blocks(nc_edges, edge_schema)
        if nc_edges.count() == 0:  # every point is core (e.g. min_pts == 1)
            border = ray.data.from_arrow(assigned_schema)
        else:
            border = (
                nc_edges.join(comp, "inner", nparts, on=("small_row_id",),
                              right_on=("doc_id",))
                .map_batches(
                    lambda t: pa.table(
                        {"row_id": t["big_row_id"].cast(pa.int64()),
                         "cluster_id": t["cluster_id"].cast(pa.int64())}
                    ),
                    batch_format="pyarrow",
                )
                .map_batches(premin, batch_format="pyarrow")
                .groupby("row_id")
                .aggregate(Min("cluster_id", alias_name="cluster_id"))
                .materialize()
            )
            border = drop_schemaless_empty_blocks(border, assigned_schema)

        ids = pts.map_batches(
            lambda t: pa.table({"row_id": t["row_id"].cast(pa.int64())}),
            batch_format="pyarrow",
        )
        noncore = ids.join(core, "left_anti", nparts, on=("row_id",))
        noncore = drop_schemaless_empty_blocks(
            noncore, pa.table({"row_id": pa.array([], pa.int64())})
        )
        if border.count() > 0 and noncore.count() > 0:
            noncore = noncore.join(border, "left_anti", nparts, on=("row_id",))
        noise = noncore.map_batches(
            lambda t: _pin_out(
                pa.table(
                    {"row_id": t["row_id"],
                     "cluster_id": pa.array([-1] * t.num_rows, pa.int64())}
                ),
                False,
            ),
            batch_format="pyarrow",
        )

    core_out = comp.map_batches(
        lambda t: _pin_out(
            pa.table({"row_id": t["doc_id"], "cluster_id": t["cluster_id"]}),
            True,
        ),
        batch_format="pyarrow",
    )
    border_out = border.map_batches(
        lambda t: _pin_out(t, False), batch_format="pyarrow"
    )

    out = core_out.union(border_out).union(noise)
    return drop_schemaless_empty_blocks(out, _OUT_EMPTY)
