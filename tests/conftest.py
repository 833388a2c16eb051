import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver instruction)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


class _BuildSpy:
    """Stands in for ``shards._build_shard``: records each build task's
    cuts (None for a one-shard build) and build function."""

    def __init__(self, fn):
        self.fn = fn
        self.cuts = []
        self.builds = []

    def remote(self, build, cut_key, cuts, shard, *blocks):
        self.cuts.append(cuts)
        self.builds.append(build)
        return self.fn.remote(build, cut_key, cuts, shard, *blocks)

    def sharded_key_lookup(self) -> bool:
        """Whether some key lookup (``join.equi.KeyIndex``) was built in
        more than one shard."""
        from rayjoin.join.equi import KeyIndex

        return any(c is not None and getattr(b, "func", None) is KeyIndex
                   for b, c in zip(self.builds, self.cuts))


@pytest.fixture
def force_shards(monkeypatch):
    """``force_shards(n, k)`` shrinks a shard cap so a small side of ``n``
    rows (``by="rows"``) or ``n`` bytes (``by="bytes"``) makes ``k`` shards,
    and returns a spy on the shard build tasks started from then on.  The
    caps are shared by every client of ``rayjoin.shards``: the spatial
    joins' small side and the key joins' right side."""
    import rayjoin.shards as shards

    def force(n: int, k: int, by: str = "rows") -> _BuildSpy:
        cap = {"rows": "DEFAULT_BROADCAST_ROWS", "bytes": "DEFAULT_BROADCAST_BYTES"}[by]
        monkeypatch.setattr(shards, cap, -(-n // k))
        spy = _BuildSpy(shards._build_shard)
        monkeypatch.setattr(shards, "_build_shard", spy)
        return spy

    return force
