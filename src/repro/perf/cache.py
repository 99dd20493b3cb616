"""Persistent, content-addressed cache of results: API responses and
sweep cells.

Full Figure 3/4 sweeps re-simulate every (workload, configuration) cell
on every ``python -m repro figures`` invocation even when
nothing changed, and a service answers the same request many times.
:class:`ResultCache` memoizes those results on disk, keyed by a stable
hash of *everything the result depends on*:

- the inputs (a normalized v1 request; or a sweep cell's workload name,
  parameters, scale, :class:`~repro.sim.config.SystemConfig` fields and
  energy model fields),
- and a **code fingerprint** — a hash over the source files of the
  packages that compute the result (``repro.sim``, ``repro.energy``,
  ``repro.workloads`` for sweep cells; see
  :data:`repro.api.core.CHECK_CODE_PACKAGES` for check, batch and audit
  responses) — so every entry self-invalidates the moment any relevant
  source changes.

Only results are cached, never intermediate structures: an enumeration
or a solver core is rebuilt on a miss, and an in-process memo
(:mod:`repro.solver.bridge`) shares cores within a process.

Entries live under ``~/.cache/repro`` by default (override with the
``REPRO_CACHE_DIR`` environment variable), one file per key, named by
the key hash (content-addressed: equal inputs collide on the same file,
different inputs cannot).  Every value is stored as JSON, so reading an
entry never runs code.  Records carry a ``schema_version`` that is part
of the key, so a format change orphans old entries instead of
misreading them; orphaned ``.pkl`` entries from older versions are
never opened, only counted and removed by :meth:`ResultCache.clear`.

Robustness rules:

- **Atomic writes** — values are written to a temp file in the cache
  directory and ``os.replace``d into place, so a killed process can
  never leave a half-written entry under a valid name *at that path*.
- **Corruption is a miss** — any unreadable, truncated, or garbage
  entry (e.g. from a crash mid-write on a filesystem without atomic
  rename) is treated as a cache miss and overwritten; it never
  propagates an exception into the caller.

The cache is safe to share between concurrent processes: readers only
see complete files, and concurrent writers of the same key write the
same bytes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
import threading
from functools import lru_cache
from typing import Any, Optional, Tuple, Union

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable enabling/disabling the default cache for library
#: callers that pass ``cache=None`` (``1``/``on`` enable, anything else
#: disables; the CLI flags take precedence).
CACHE_ENV = "REPRO_CACHE"

#: On-disk format version.  Part of every key: bumping it invalidates
#: every existing entry without touching them.
SCHEMA_VERSION = 1

#: Packages whose sources determine a sweep cell's result.
SWEEP_CODE_PACKAGES = ("repro.sim", "repro.energy", "repro.workloads")

#: Entry-file suffixes :meth:`ResultCache.clear` and
#: :meth:`ResultCache.entry_count` see.  ``.pkl`` files are orphans of
#: older versions, which also stored enumerations and solver cores in
#: a binary codec; nothing opens them.
_ENTRY_SUFFIXES = (".json", ".pkl")


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


@lru_cache(maxsize=None)
def code_fingerprint(packages: Tuple[str, ...]) -> str:
    """Hash of every ``*.py`` and ``*.json`` file under the given packages.

    The fingerprint is part of every cache key, so editing any file in a
    fingerprinted package silently invalidates all entries that depended
    on it.  Packaged JSON data participates because it could steer
    results the same way code does.  Hashing a few dozen small files
    takes ~1 ms and is cached per process.
    """
    digest = hashlib.sha256()
    for package in packages:
        module = importlib.import_module(package)
        module_file = getattr(module, "__file__", None)
        if module_file is None:  # namespace package / frozen: no sources
            digest.update(f"{package}:<no-source>".encode())
            continue
        root = os.path.dirname(os.path.abspath(module_file))
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if not filename.endswith((".py", ".json")):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                digest.update(f"{package}/{rel}\0".encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\0")
    return digest.hexdigest()


def _canonical(material: Any) -> str:
    """Deterministic JSON encoding of the key material."""
    return json.dumps(material, sort_keys=True, separators=(",", ":"), default=repr)


#: Guards every store's ``hits``/``misses``/``stores`` increments: the
#: service's dispatcher threads share one store.  Module-level, so a
#: store stays picklable.
_COUNTS_LOCK = threading.Lock()


class ResultCache:
    """A content-addressed on-disk cache: key hash -> value file.

    ``hits``/``misses``/``stores`` count this instance's traffic (e.g.
    for :mod:`repro.obs.metrics` surfacing); the on-disk store itself is
    shared by every instance pointing at the same directory.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entry subdirectories already created by this instance.  Every
        #: ``put`` used to re-stat the directory via ``os.makedirs``;
        #: with 256 two-hex-digit shards a handful of stats per check
        #: added up on bulk workloads, so directories are ensured once.
        self._dirs_ensured: set = set()

    # -- keys ------------------------------------------------------------------
    def key(self, kind: str, material: Any) -> str:
        """The content hash of (*kind*, schema version, *material*)."""
        payload = _canonical(
            {"kind": kind, "schema_version": SCHEMA_VERSION, "material": material}
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- lookup / insert -------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``.  Corrupted or truncated entries are a miss."""
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                record = json.load(handle)
            if (
                not isinstance(record, dict)
                or record.get("schema_version") != SCHEMA_VERSION
                or "value" not in record
            ):
                raise ValueError("malformed cache record")
        except FileNotFoundError:
            with _COUNTS_LOCK:
                self.misses += 1
            return False, None
        except Exception:
            # Garbage from a crash mid-write (or a foreign file): drop it
            # so the subsequent put() rewrites a clean entry.
            with _COUNTS_LOCK:
                self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        with _COUNTS_LOCK:
            self.hits += 1
        return True, record["value"]

    def put(self, key: str, value: Any) -> str:
        """Atomically store *value* under *key*; returns the entry path.

        The record is encoded to one string and written in one call:
        ``json.dump`` on a file handle issues a write per encoder chunk,
        several times the cost on a 100 KB batch response, for the same
        bytes.
        """
        path = self._path(key)
        directory = os.path.dirname(path)
        if directory not in self._dirs_ensured:
            os.makedirs(directory, exist_ok=True)
            self._dirs_ensured.add(directory)
        data = json.dumps(
            {"schema_version": SCHEMA_VERSION, "value": value},
            separators=(",", ":"),
        ).encode()
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        except FileNotFoundError:
            # The shard directory was removed externally after we ensured
            # it (e.g. an rmtree between puts); recreate and retry once.
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with _COUNTS_LOCK:
            self.stores += 1
        return path

    # -- maintenance -----------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(_ENTRY_SUFFIXES + (".part",)):
                    try:
                        os.unlink(os.path.join(dirpath, filename))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def entry_count(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(f.endswith(_ENTRY_SUFFIXES) for f in filenames)
        return count

    def __repr__(self) -> str:
        return (
            f"ResultCache({self.root!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )


#: What callers may pass as a ``cache=`` argument.
CacheSpec = Union[None, bool, str, ResultCache]


def resolve_cache(cache: CacheSpec = None) -> Optional[ResultCache]:
    """Normalize a ``cache=`` argument to a :class:`ResultCache` or None.

    - ``None`` — consult the ``REPRO_CACHE`` environment variable
      (``1``/``on``/``true`` enable the default cache; unset or anything
      else leaves caching off).  Library calls default to this, so tests
      and embedders are unaffected unless they opt in.
    - ``True`` — the default cache (``REPRO_CACHE_DIR`` or
      ``~/.cache/repro``); ``False`` — disabled.
    - a string — a cache rooted at that directory.
    - a :class:`ResultCache` — used as-is.
    """
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, str):
        return ResultCache(cache)
    if cache is None:
        env = os.environ.get(CACHE_ENV, "").strip().lower()
        cache = env in ("1", "on", "true", "yes")
    return ResultCache() if cache else None
