"""rayjoin — a Ray-Data-native spatial-join + tiling engine.

Built from scratch on ray.data.Dataset / map_batches / actor pools, with the
join semantics of the reference crate msalib/spatial-join (see SURVEY.md):

- spatial joins (Intersects / Within / Contains) over six 2-D euclidean
  geometry types (point, line, linestring, polygon, rect, triangle),
- proximity maps (inclusive distance-threshold joins emitting distances),
- kNN joins (new engine scope; ties broken by (distance, small_row_id)),
- geocoding + hierarchical quadtree/Hilbert tiling for Common-Crawl-style
  Parquet page corpora,
- skew-aware spatial partitioning (sampled Hilbert ranges),
- checkpoint manifests with per-partition lineage.

Reference semantics: /root/reference/src/{index.rs,relates_impl.rs,gen.py}.
"""

from .config import Config, Interaction, SpatialJoinError


def __getattr__(name):
    # lazy: keep `import rayjoin` light (no ray import) for kernel-only users
    if name == "SpatialIndex":
        from .join.broadcast import SpatialIndex

        return SpatialIndex
    if name in ("partitioned_spatial_join", "partitioned_proximity_map",
                "partitioned_knn_join"):
        from .join import partitioned

        return getattr(partitioned, name)
    if name in ("asof_join", "band_join"):
        from .functions import temporal

        return getattr(temporal, name)
    if name in ("stratified_sample", "cap_per_key", "domain_cap",
                "decontaminate", "benchmark_ngram_ref", "pack_sequences",
                "redact_text"):
        from .functions import corpus_ops

        return getattr(corpus_ops, name)
    if name in ("spatial_join", "proximity_map", "knn_join"):
        from .join import auto

        return getattr(auto, name)
    if name == "grouped_quantiles":
        from .functions.stats import grouped_quantiles

        return grouped_quantiles
    if name == "knn_join_embeddings":
        from .functions.ann import knn_join_embeddings

        return knn_join_embeddings
    if name in ("latlon_to_s2", "s2_assign", "s2_parent", "s2_children",
                "s2_edge_neighbors", "s2_cell_center"):
        from .stages import s2cell

        return getattr(s2cell, name)
    if name in ("extract_text", "extract_text_batch", "html_escape_column"):
        from .stages import extract

        return getattr(extract, name)
    if name in ("geom_measures", "measures_batch"):
        from .geom import measures

        return getattr(measures, name)
    raise AttributeError(name)


__all__ = [
    "Config",
    "Interaction",
    "SpatialJoinError",
    "SpatialIndex",
    # join frontends over SpatialIndex (the only plan choice: shard count K)
    "spatial_join",
    "proximity_map",
    "knn_join",
    # the same joins with whole-block probes, for two large sides
    "partitioned_spatial_join",
    "partitioned_proximity_map",
    "partitioned_knn_join",
    # temporal joins (Ray Data has no native as-of / range join)
    "asof_join",
    "band_join",
    # corpus curation (training-data pipeline scope)
    "stratified_sample",
    "cap_per_key",
    "domain_cap",
    "decontaminate",
    "benchmark_ngram_ref",
    "pack_sequences",
    "redact_text",
    # distributed exact statistics
    "grouped_quantiles",
    # two-sided embedding k-NN join (both sides large, IVF-bucketed)
    "knn_join_embeddings",
    # cube-face (S2-style) cells — skew-bounded global tiling
    "latlon_to_s2",
    "s2_assign",
    "s2_parent",
    "s2_children",
    "s2_edge_neighbors",
    "s2_cell_center",
    # html -> text extraction (the byte-identity invariant)
    "extract_text",
    "extract_text_batch",
    "html_escape_column",
    # geometry measures (area / length / centroid)
    "geom_measures",
    "measures_batch",
]
