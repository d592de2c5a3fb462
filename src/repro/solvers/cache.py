"""Content-addressed result cache for the unified solver facade.

Every solver in the package is deterministic, so a
:class:`~repro.solvers.result.SolveResult` is fully determined by the
*content* of the instance and the fully-bound solver spec.  The cache key
is therefore::

    key = sha256( instance.content_hash() + "|" + bound_spec.canonical()
                  + "|" + repro.__version__ )

where :meth:`~repro.core.instance.Instance.content_hash` covers the
processor count, the tasks (id, p, s, in insertion order), precedence
edges and — for uniform machines — processor speeds, the canonical
bound spec string (e.g. ``"sbo(delta=1.0, inner=lpt)"``) pins the solver
*and* every defaulted parameter, and the package version guards
persistent caches against intended solver-behaviour changes between
releases (bumping ``__version__`` invalidates every key).  Two cache
backends implement the same small interface:

* :class:`LRUCache` — in-memory, bounded, thread-safe; the per-process
  default;
* :class:`DiskCache` — one pickle file per key under a cache directory,
  written atomically, surviving process restarts; corrupt or truncated
  entries degrade to misses.

A stored entry is the pickled :class:`SolveResult`.  Its instance pickles
as flat task columns (ids, ``p``, ``s``, labels, plus edges or speeds)
and its schedules as processor and start-time vectors, so an entry holds
no per-task objects and a put or a hit costs about as much as the
numbers.  An entry written in an older layout (per-task instances, or
the two schedule classes that preceded the single
:class:`~repro.core.schedule.Schedule`) fails to unpickle; it is counted
as ``corrupt``, removed and treated as a miss, and the next solve stores
a fresh entry under the same key (the keys are unchanged).

Caching is enabled three ways:

* **per call** — ``solve(inst, spec, cache=my_cache)`` (a cache object or
  a directory path) or ``solve_many(..., cache=...)``;
* **per process** — :func:`configure_cache` installs a default that every
  ``solve()`` / ``solve_many()`` call consults until reconfigured;
* **CLI** — ``repro solve --cache DIR`` and
  ``repro experiments --cache DIR``.

A hit returns a shallow copy of the stored result whose provenance
records ``"cache": "hit"``; the stored ``wall_time`` (the original
compute time) is preserved so throughput studies stay meaningful.
*Shallow* means the ``schedule``/``raw``/``objectives`` objects are
shared with the cache entry (a :class:`DiskCache` hit gets fresh copies
via the pickle round-trip, an :class:`LRUCache` hit aliases them) —
treat results as immutable, as the schedule classes already are.

Caching never fails a successful solve: results whose native objects
cannot be pickled are simply not stored on disk, and corrupt or stale
entries degrade to misses.

Only results of the *stock builtin* entries are cached.  A solver
registered at runtime — or a builtin overridden with
``register(..., replace=True)`` — is invisible to the key (two
implementations could share a name), so ``solve()``/``solve_many()``
silently skip the cache for those specs rather than risk serving a
different solver's results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.solvers.result import SolveResult

__all__ = [
    "CacheStats",
    "ResultCache",
    "LRUCache",
    "DiskCache",
    "cache_key",
    "configure_cache",
    "default_cache",
    "resolve_cache",
]

#: Accepted by the ``cache=`` argument of ``solve``/``solve_many`` and by
#: :func:`configure_cache`: ``None`` (use the process default), ``False``
#: (bypass any cache), ``True`` (the installed process default; an error
#: when none is configured), a directory path (persistent
#: :class:`DiskCache`), or a :class:`ResultCache` instance.
CacheLike = Union[None, bool, str, Path, "ResultCache"]


def cache_key(instance, canonical_spec: str) -> str:
    """The content-addressed key of a ``(instance, bound spec)`` pair.

    ``instance`` is an :class:`~repro.core.instance.Instance` (or
    subclass), or a precomputed ``content_hash()`` hex string — callers
    that key many specs against one instance pass the hash once instead
    of recomputing it per spec.
    """
    from repro import __version__  # late import: repro re-exports this module

    instance_hash = instance if isinstance(instance, str) else instance.content_hash()
    digest = hashlib.sha256()
    digest.update(instance_hash.encode("ascii"))
    digest.update(b"|")
    digest.update(canonical_spec.encode("utf-8"))
    # Version-guard persistent caches: an intended solver-behaviour change
    # ships as a version bump, which must invalidate every stored result.
    digest.update(b"|")
    digest.update(__version__.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters kept by every cache backend.

    ``corrupt`` counts entries that were found but could not be served —
    truncated/corrupt pickles and stale payloads that are not a
    :class:`SolveResult` — and were removed from the backing store.  Each
    such lookup also counts as a miss.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.corrupt = 0


class ResultCache:
    """Base class of the cache backends: counted ``get``/``put`` by key.

    Subclasses implement ``_load``/``_store``/``__len__``/``clear``; the
    base class keeps the :class:`CacheStats` bookkeeping in one place.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()

    def get(self, key: str) -> Optional[SolveResult]:
        """Return the stored result for ``key``, counting a hit or miss."""
        result = self._load(key)
        with self._stats_lock:
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return result

    def get_many(self, keys) -> list:
        """Batched :meth:`get`: one result slot per key (``None`` on miss).

        The base implementation is a plain loop; backends with per-lookup
        synchronisation overhead (:class:`LRUCache`) override it to take
        their lock once per batch instead of once per key.
        """
        return [self.get(key) for key in keys]

    def put(self, key: str, result: SolveResult) -> None:
        """Store ``result`` under ``key`` (overwrites silently)."""
        self._store(key, result)

    def _note_corrupt(self) -> None:
        """Record a corrupt/stale entry dropped by a backend's ``_load``."""
        with self._stats_lock:
            self.stats.corrupt += 1

    def _load(self, key: str) -> Optional[SolveResult]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _store(self, key: str, result: SolveResult) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class LRUCache(ResultCache):
    """Bounded in-memory cache with least-recently-used eviction."""

    def __init__(self, maxsize: int = 1024) -> None:
        super().__init__()
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, SolveResult]" = OrderedDict()
        self._lock = threading.Lock()

    def _load(self, key: str) -> Optional[SolveResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def get_many(self, keys) -> list:
        results = []
        hits = 0
        with self._lock:
            for key in keys:
                result = self._entries.get(key)
                if result is not None:
                    self._entries.move_to_end(key)
                    hits += 1
                results.append(result)
        with self._stats_lock:
            self.stats.hits += hits
            self.stats.misses += len(results) - hits
        return results

    def _store(self, key: str, result: SolveResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskCache(ResultCache):
    """Persistent cache: one pickle file per key under ``directory``.

    Entries are sharded into 256 key-prefix subdirectories
    (``directory/<key[:2]>/<key>.pkl``) so very large sweeps never pile a
    million files into one directory.  Files are written
    atomically (temp file + ``os.replace``) so a concurrent or interrupted
    writer can never leave a half-written entry behind; unreadable entries
    are treated as misses and removed.

    ``max_bytes`` bounds the total size of the stored entries: after every
    store, least-recently-used entries (by file mtime — refreshed on every
    hit) are trimmed until the cache fits the bound again.  The bound is
    enforced per cache *object* under a lock; concurrent processes sharing
    one directory each enforce it best-effort, which can transiently
    overshoot but never grows without bound.
    """

    def __init__(
        self, directory: Union[str, Path], max_bytes: Optional[int] = None
    ) -> None:
        super().__init__()
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._trim_lock = threading.Lock()
        self._size_bytes: Optional[int] = None  # lazily scanned

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def _entry_files(self) -> list:
        """Every stored entry."""
        return list(self.directory.glob("??/*.pkl"))

    def _load(self, key: str) -> Optional[SolveResult]:
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                TypeError):
            # Corrupt / truncated / stale entry (an older object layout
            # fails with UnpicklingError, AttributeError — a class or
            # restore function that is gone — or TypeError — a restore
            # function called with its old arguments): degrade to
            # a miss and remove it so every future lookup doesn't re-pay
            # the failed read (and the dead file doesn't occupy
            # max_bytes budget).
            self._unlink(path)
            self._note_corrupt()
            return None
        if isinstance(result, SolveResult):
            try:
                os.utime(path)  # refresh LRU recency for eviction
            except OSError:
                pass
            return result
        # Unpickled cleanly but is not a SolveResult — a stale payload
        # from a foreign writer.
        self._unlink(path)
        self._note_corrupt()
        return None

    def _store(self, key: str, result: SolveResult) -> None:
        # Caching is an optimization: a result that cannot be stored (an
        # unpicklable native object in ``raw``, a full or read-only disk)
        # must never fail the solve that produced it — skip it silently.
        path = self._path(key)
        try:
            path.parent.mkdir(exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            with self._trim_lock:
                replaced = self._file_size(path)
                os.replace(tmp_name, path)
                if self._size_bytes is not None:
                    self._size_bytes += self._file_size(path) - replaced
        except (OSError, pickle.PicklingError, TypeError, AttributeError, ValueError):
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            self._trim()

    # ------------------------------------------------------------------ #
    # size bookkeeping and max-bytes trimming
    # ------------------------------------------------------------------ #
    @staticmethod
    def _file_size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _unlink(self, path: Path) -> None:
        with self._trim_lock:
            size = self._file_size(path)
            try:
                path.unlink()
            except OSError:
                return
            if self._size_bytes is not None:
                self._size_bytes -= size

    def size_bytes(self) -> int:
        """Total bytes of the stored entries (cached after the first scan)."""
        with self._trim_lock:
            if self._size_bytes is None:
                self._size_bytes = sum(self._file_size(p) for p in self._entry_files())
            return self._size_bytes

    def _trim(self) -> None:
        """Evict least-recently-used entries until the bound holds again."""
        if self.size_bytes() <= self.max_bytes:
            return
        entries = sorted(
            ((p, self._file_size(p)) for p in self._entry_files()),
            key=lambda item: self._mtime(item[0]),
        )
        for path, _size in entries:
            if self.size_bytes() <= self.max_bytes:
                break
            self._unlink(path)

    @staticmethod
    def _mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    def __len__(self) -> int:
        return len(self._entry_files())

    def clear(self) -> None:
        for path in self._entry_files():
            path.unlink(missing_ok=True)
        with self._trim_lock:
            self._size_bytes = 0


# --------------------------------------------------------------------------- #
# process-wide default
# --------------------------------------------------------------------------- #
_DEFAULT_CACHE: Optional[ResultCache] = None


def _build(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return LRUCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, Path)):
        return DiskCache(cache)
    raise TypeError(
        f"cache must be None, a bool, a directory path, or a ResultCache; "
        f"got {type(cache).__name__}"
    )


def configure_cache(cache: CacheLike = True) -> Optional[ResultCache]:
    """Install the process-wide default cache and return it.

    ``configure_cache()`` enables an in-memory :class:`LRUCache`;
    ``configure_cache(path)`` a persistent :class:`DiskCache`;
    ``configure_cache(None)`` (or ``False``) disables the default again.
    Every subsequent ``solve()`` / ``solve_many()`` call that does not
    pass an explicit ``cache=`` argument uses the installed default.
    """
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = _build(cache)
    return _DEFAULT_CACHE


def default_cache() -> Optional[ResultCache]:
    """The currently installed process-wide default cache (or ``None``)."""
    return _DEFAULT_CACHE


def resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Resolve a per-call ``cache=`` argument against the process default.

    ``None`` defers to the default, ``False`` bypasses caching even when a
    default is installed, ``True`` requires an installed default (a
    call-local cache would silently never hit, and a per-call argument
    must not install process-wide state — so it is an error instead), and
    a path or cache object is used directly.
    """
    if cache is None:
        return _DEFAULT_CACHE
    if cache is True:
        if _DEFAULT_CACHE is None:
            raise TypeError(
                "cache=True requires a process default cache; call "
                "configure_cache() first, or pass a cache object or directory path"
            )
        return _DEFAULT_CACHE
    return _build(cache)
