"""AtomicDiskCache under fire: concurrent writers, torn entries, crashes.

The serving deployment runs N workers against one cache directory, so
the disk caches must deliver their contract -- readers never observe a
partial entry, and any corrupt/foreign/truncated file reads as a miss --
under real process-level concurrency, not just in unit-sized stories.
"""

import concurrent.futures
import os
import pickle
from pathlib import Path

from repro.engine.runner import _POOL_FALLBACK_ERRORS, ResultCache
from repro.plan.cache import PlanCache
from repro.utils.diskcache import AtomicDiskCache, scan_cache_dir

KEYS = [f"key{i}" for i in range(8)]
ROUNDS = 150


class RawPlanEntries(AtomicDiskCache):
    """PlanCache's suffix without its semantic validation.

    These tests hammer the shared atomic-store machinery with synthetic
    payloads; the real :class:`PlanCache` now rejects anything that is
    not a structurally valid ``PlanResult`` (see ``test_analysis.py``),
    so the generic-atomicity stories run on a raw subclass.
    """

    suffix = PlanCache.suffix


def _hammer(cache_dir, worker):
    """Interleave stores and loads; return observed payload kinds."""
    cache = RawPlanEntries(cache_dir)
    seen_bad = 0
    for i in range(ROUNDS):
        key = KEYS[(worker + i) % len(KEYS)]
        cache.store(key, {"worker": worker, "i": i, "pad": b"x" * 4096})
        value = cache.load(KEYS[(worker * 3 + i) % len(KEYS)])
        # The contract: a complete entry from SOME writer, or a miss.
        if value is not None and not (isinstance(value, dict)
                                      and len(value["pad"]) == 4096):
            seen_bad += 1
    return seen_bad


class TestConcurrentHammer:
    def test_parallel_writers_never_tear(self, tmp_path):
        cache_dir = str(tmp_path)
        workers = 4
        try:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                bad = list(pool.map(_hammer, [cache_dir] * workers,
                                    range(workers)))
        except _POOL_FALLBACK_ERRORS:
            # Sandboxes without process spawning still exercise the
            # atomic-store path under thread-level interleaving.
            with concurrent.futures.ThreadPoolExecutor(workers) as pool:
                bad = list(pool.map(_hammer, [cache_dir] * workers,
                                    range(workers)))
        assert bad == [0] * workers
        # Every surviving entry is complete and loadable.
        cache = RawPlanEntries(cache_dir)
        loaded = [cache.load(k) for k in KEYS]
        assert all(v is None or len(v["pad"]) == 4096 for v in loaded)
        assert any(v is not None for v in loaded)
        # No stray temp files once every writer has finished.
        assert not [n for n in os.listdir(cache_dir) if n.endswith(".tmp")]


class TestTornEntries:
    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        cache.store("k", {"x": 1})
        whole = Path(cache.path("k")).read_bytes()
        with open(cache.path("k"), "wb") as fh:
            fh.write(whole[: len(whole) // 2])    # simulate a torn write
        assert cache.load("k") is None

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        with open(cache.path("k"), "wb") as fh:
            fh.write(b"\x80\x05this is not a pickle")
        assert cache.load("k") is None

    def test_empty_entry_is_a_miss(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        Path(cache.path("k")).write_bytes(b"")
        assert cache.load("k") is None

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        # Version-skew protection: ResultCache only serves QRRun values.
        cache = ResultCache(str(tmp_path))
        with open(cache.path("k"), "wb") as fh:
            pickle.dump({"not": "a QRRun"}, fh)
        assert cache.load("k") is None

    def test_unpicklable_store_is_silent_and_leaves_no_temp(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        cache.store("k", lambda: None)            # lambdas don't pickle
        assert cache.load("k") is None
        assert os.listdir(str(tmp_path)) == []


class TestLoadMany:
    def test_bulk_probe_matches_per_key_loads(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        for i in range(8):
            cache.store(f"k{i}", {"i": i})
        keys = [f"k{i}" for i in range(12)]       # k8..k11 are misses
        found = cache.load_many(keys)
        assert found == {f"k{i}": {"i": i} for i in range(8)}
        assert all(cache.load(k) == v for k, v in found.items())

    def test_duplicate_keys_collapse(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        cache.store("k", {"x": 1})
        assert cache.load_many(["k", "k", "k", "miss"]) == {"k": {"x": 1}}

    def test_empty_and_missing_directory(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        assert cache.load_many([]) == {}
        absent = RawPlanEntries(str(tmp_path / "never-created"))
        assert absent.load_many([f"k{i}" for i in range(10)]) == {}

    def test_torn_entry_is_a_miss_in_bulk(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        for i in range(6):
            cache.store(f"k{i}", {"i": i})
        whole = Path(cache.path("k2")).read_bytes()
        with open(cache.path("k2"), "wb") as fh:
            fh.write(whole[: len(whole) // 2])    # simulate a torn write
        with open(cache.path("k4"), "wb") as fh:
            fh.write(b"\x80\x05garbage")
        found = cache.load_many([f"k{i}" for i in range(6)])
        assert set(found) == {"k0", "k1", "k3", "k5"}

    def test_small_batches_skip_the_scan(self, tmp_path):
        # <= 2 distinct keys go through plain load(); same contract.
        cache = RawPlanEntries(str(tmp_path))
        cache.store("a", 1)
        assert cache.load_many(["a", "b"]) == {"a": 1}

    def test_mixed_suffixes_stay_namespaced(self, tmp_path):
        # A plan cache's bulk probe must not surface result entries
        # sharing the directory (suffix namespacing, as with load()).
        plan = RawPlanEntries(str(tmp_path))
        plan.store("k", {"plan": True})
        ResultCache(str(tmp_path)).store("k", {"result": True})
        many = plan.load_many(["k", "k2", "k3"])
        assert many == {"k": {"plan": True}}


class TestSharedIdiom:
    def test_both_caches_share_the_atomic_base(self):
        for cls in (ResultCache, PlanCache):
            assert issubclass(cls, AtomicDiskCache)
        # Distinct suffixes namespace them within a shared directory.
        assert ResultCache.suffix != PlanCache.suffix

    def test_suffix_namespacing_in_one_directory(self, tmp_path):
        shared = str(tmp_path)
        RawPlanEntries(shared).store("k", "plan-entry")
        ResultCache(shared).store("k", "not-a-qrrun")
        assert RawPlanEntries(shared).load("k") == "plan-entry"
        # ResultCache's entry exists but fails its value_type check.
        assert ResultCache(shared).load("k") is None
        assert scan_cache_dir(shared, ".plan.pkl")["entries"] == 1

    def test_info_and_clear(self, tmp_path):
        cache = RawPlanEntries(str(tmp_path))
        cache.store("a", 1)
        cache.store("b", 2)
        info = cache.info()
        assert info["entries"] == 2 and info["bytes"] > 0
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0
