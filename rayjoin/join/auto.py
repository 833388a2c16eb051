"""Join frontend: one call per join, over the one plan of ``SpatialIndex``.

Each function indexes the small side (``SpatialIndex`` sets the shard count
K from its rows and bytes) and probes the big side against it.  The only
plan choice is K, so these are thin calls; ``spatial_anti_join`` adds the
subtraction of matched ids on top of the join.
"""

from __future__ import annotations

from ..config import Config, Interaction
from .broadcast import SpatialIndex


def spatial_join(big, small, interaction: Interaction, config: Config = Config()):
    """Dataset[big_row_id, small_row_id]."""
    return SpatialIndex(small, config).spatial_join(big, interaction)


def proximity_map(big, small, config: Config):
    """Dataset[big_row_id, small_row_id, distance]; inclusive threshold."""
    return SpatialIndex(small, config).proximity_map(big)


def knn_join(big, small, k: int, max_distance: float = float("inf")):
    """Dataset[big_row_id, small_row_id, distance, rank]; ties (distance,
    small_row_id)."""
    return SpatialIndex(small).knn_join(big, k=k, max_distance=max_distance)


def spatial_anti_join(big, small, interaction: Interaction, config: Config = Config()):
    """Spatial ANTI join: Dataset[big_row_id] of big rows with NO small
    partner under ``interaction`` (points outside every service area, docs
    matching no geofence).

    Plan — subtract the matching join, never re-scan with NOT EXISTS: the
    positive join runs through ``spatial_join``, per-batch partials collapse
    its pair bag to distinct matched ids, the big side contributes one
    zero-count row per row_id (a column-pruned scan), and ONE groupby keeps
    ids whose match count stayed zero.  Matched-pair volume never lands on
    the driver and the anti set is exact even when a big row matches in
    many shards.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    from .broadcast import _to_table

    if isinstance(big, (list, tuple, pa.Table)):
        big = ray.data.from_arrow(_to_table(big))
    pairs = spatial_join(big, small, interaction, config)

    def matched(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["big_row_id"].combine_chunks(), dtype=np.int64)
        uniq = np.unique(ids)
        return pa.table({"big_row_id": pa.array(uniq, pa.int64()),
                         "n": pa.array(np.ones(uniq.size, np.int64),
                                       pa.int64())})

    def zeros(t: pa.Table) -> pa.Table:
        ids = t["row_id"].combine_chunks().cast(pa.int64())
        return pa.table({"big_row_id": ids,
                         "n": pa.repeat(pa.scalar(0, pa.int64()), len(ids))})

    bag = (big.map_batches(zeros, batch_format="pyarrow")
           .union(pairs.map_batches(matched, batch_format="pyarrow")))
    tot = bag.groupby("big_row_id").aggregate(Sum("n", alias_name="n"))

    def unmatched(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["n"], 0)).select(["big_row_id"])

    return tot.map_batches(unmatched, batch_format="pyarrow")
