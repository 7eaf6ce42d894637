"""The one on-disk cache idiom every layer shares.

Three subsystems persist pickle-per-entry caches -- the engine's result
cache, the planner's plan cache, and the Schedule IR's compiled-program
cache -- and the serving layer (:mod:`repro.serve`) runs *N* workers
against one cache directory.  :class:`AtomicDiskCache` centralizes the
crash/concurrency contract they all need:

* **Atomic publication.**  Entries are written to a ``NamedTemporaryFile``
  in the *same directory* and published with :func:`os.replace`, so a
  reader never opens a half-written entry and a crashed writer leaves at
  worst a stray ``*.tmp`` file (reaped by ``clear()``), never a corrupt
  entry.  Same-directory matters: ``os.replace`` is only atomic within a
  filesystem.

* **Torn reads are misses.**  A concurrent writer on a non-POSIX
  filesystem, a partially-synced entry after power loss, or an entry
  pickled by an incompatible version can make :func:`pickle.load` raise
  nearly anything (``UnpicklingError``, ``EOFError``, ``AttributeError``,
  ``ImportError``, ``IndexError``, ``ValueError``...).  ``load`` treats
  *every* failure as a cache miss -- the caches are optimizations, and a
  miss costs a recompute while an exception kills a serving worker.

* **Best-effort stores.**  A store that fails (disk full, unpicklable
  field) cleans up its temp file and returns; it must never discard the
  computed value it was trying to persist.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from typing import Any, Dict, Iterable, Optional

from repro.obs.metrics import get_registry


class AtomicDiskCache:
    """Pickle-per-entry on-disk cache, safe for concurrent readers/writers.

    Subclasses pin :attr:`suffix` (the entry filename extension, which
    doubles as the namespace when several caches share a directory) and
    optionally :attr:`value_type` (entries failing an ``isinstance``
    check load as misses -- version skew protection) and
    :attr:`metrics_name` (registering hit/miss/store/eviction counts
    under ``cache.<name>.*`` in the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry`).
    """

    #: Entry filename suffix, e.g. ``".pkl"`` / ``".plan.pkl"``.
    suffix = ".pkl"
    #: Optional expected type of stored values; mismatches load as misses.
    value_type: Optional[type] = None
    #: Registry namespace (``cache.<metrics_name>.hits`` etc.); ``None``
    #: leaves the cache uncounted.
    metrics_name: Optional[str] = None

    def validate_value(self, value: Any) -> bool:
        """Subclass hook: semantic validation of an unpickled entry.

        Runs after the :attr:`value_type` check on every :meth:`load`.
        Entries that unpickle to the right type but fail this check --
        a compiled program with out-of-range ranks, a plan result with
        the wrong shape -- read as misses and are additionally counted
        under ``cache.<name>.invalid``, so a poisoned shared cache
        degrades to recomputes instead of serving garbage.
        """
        return True

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    def _count(self, event: str, amount: int = 1) -> None:
        if self.metrics_name is not None and amount:
            get_registry().counter(
                f"cache.{self.metrics_name}.{event}").inc(amount)

    def path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}{self.suffix}")

    def load(self, key: str) -> Optional[Any]:
        """The cached value, or ``None`` on any miss (including torn entries)."""
        try:
            with open(self.path(key), "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # Torn/partial/incompatible entries read as misses, never raise:
            # corrupted pickle streams can fail with almost any exception
            # type, and a serving worker must survive all of them.
            self._count("misses")
            return None
        if self.value_type is not None and not isinstance(value, self.value_type):
            self._count("misses")
            return None
        if not self.validate_value(value):
            self._count("invalid")
            self._count("misses")
            return None
        self._count("hits")
        return value

    def load_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Bulk :meth:`load`: ``{key: value}`` for every key that hits.

        Misses (including torn entries, exactly as in :meth:`load`) are
        simply absent from the result.  One directory scan answers the
        existence question for the whole batch, so probing *N* keys
        costs one ``scandir`` plus an ``open`` per *present* entry
        instead of *N* ``open`` attempts -- the lattice planner's bulk
        plan-cache probe.  Duplicate keys are read once.
        """
        distinct = list(dict.fromkeys(keys))
        if len(distinct) <= 2:
            # Below the scandir break-even, per-key probes are cheaper.
            out = {k: self.load(k) for k in distinct}
            return {k: v for k, v in out.items() if v is not None}
        try:
            with os.scandir(self.cache_dir) as it:
                present = {e.name for e in it if e.is_file()}
        except FileNotFoundError:
            self._count("misses", len(distinct))
            return {}
        found: Dict[str, Any] = {}
        absent = 0
        for key in distinct:
            if f"{key}{self.suffix}" not in present:
                absent += 1
                continue
            value = self.load(key)      # torn-entry-as-miss semantics
            if value is not None:
                found[key] = value
        self._count("misses", absent)
        return found

    def store(self, key: str, value: Any) -> None:
        """Atomically publish *value* under *key* (best-effort)."""
        # Write-then-rename in the same directory: concurrent readers and
        # N serving workers sharing this cache never observe a partial
        # entry, and the last complete writer wins.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh)
            os.replace(tmp, self.path(key))
            self._count("stores")
        except Exception:
            # Caching is an optimization; failure to store must not
            # discard the computed value.
            with contextlib.suppress(OSError):
                os.unlink(tmp)

    # -- maintenance --------------------------------------------------------------

    def info(self) -> dict:
        """Entry count and byte total: ``{"path", "entries", "bytes"}``."""
        return scan_cache_dir(self.cache_dir, self.suffix)

    def clear(self) -> int:
        """Delete every entry (and stray temp file); return entries removed."""
        removed = clear_cache_dir(self.cache_dir, self.suffix)
        self._count("evictions", removed)
        return removed


def scan_cache_dir(cache_dir: str, suffix: str) -> dict:
    """Survey one cache directory without constructing (or creating) it."""
    entries = 0
    size = 0
    with contextlib.suppress(FileNotFoundError), os.scandir(cache_dir) as it:
        for entry in it:
            if entry.is_file() and entry.name.endswith(suffix):
                entries += 1
                size += entry.stat().st_size
    return {"path": os.path.abspath(cache_dir), "entries": entries,
            "bytes": size}


def clear_cache_dir(cache_dir: str, suffix: str) -> int:
    """Delete every ``*suffix`` entry and stray ``*.tmp``; return entries removed."""
    removed = 0
    try:
        with os.scandir(cache_dir) as it:
            names = [e.name for e in it if e.is_file()
                     and (e.name.endswith(suffix) or e.name.endswith(".tmp"))]
    except FileNotFoundError:
        return 0
    for name in names:
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(cache_dir, name))
            if name.endswith(suffix):
                removed += 1
    return removed
