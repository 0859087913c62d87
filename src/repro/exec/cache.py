"""Content-addressed compilation cache.

Simulation campaigns re-run the same workload under several paradigms
and tile overrides, and every host-loop iteration recompiles the fat
binary and re-lowers the region from scratch even when the tDFG and
:class:`~repro.config.system.SystemConfig` are identical.  This module
memoizes those artifacts by *content fingerprint*:

* keys are SHA-256 digests of a canonical encoding of everything the
  compilation depends on (tDFG structure, system parameters, tile
  override), so they are stable across processes and across runs;
* values live in an in-process LRU, optionally write-through persisted
  under ``.repro_cache/`` (one pickle per entry, sharded by key prefix);
* hits never change modeled timing — a cache hit returns the same
  lowering a fresh compile would have produced, and the JIT's *modeled*
  memoization cycles (§4.2) are accounted separately per run.

The module holds one process-global active cache (in-memory by default;
set ``REPRO_CACHE_DIR`` or call :func:`configure_cache` for disk
persistence) so that the backend and the JIT share it without plumbing.
A tiny CLI inspects or clears the on-disk store::

    python -m repro.exec [--dir .repro_cache] [--clear]
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path

from repro.trace import events as _trace
from repro.trace import metrics as _metrics
from repro.trace.events import Category as _Cat

DEFAULT_CACHE_DIR = ".repro_cache"
DEFAULT_MAX_ENTRIES = 8192

# Orphaned-``*.tmp`` collection: a writer holds its tempfile for
# milliseconds, so anything this old was left by a killed process.
TMP_ORPHAN_AGE_SECONDS = 300.0

#: a waiting FileLock's first retry pause; it doubles from there
LOCK_FIRST_BACKOFF_S = 0.0005


# ----------------------------------------------------------------------
# Cross-process file lock
# ----------------------------------------------------------------------
class FileLock:
    """A lockfile-based mutex shared by every process using one cache dir.

    Acquisition publishes a ``pid:token`` claim identifying the holder
    atomically: the claim is written to a private ``*.tmp`` file, which
    is then hard-linked to ``path`` (``os.link`` fails with ``EEXIST``
    while the lock is held) and unlinked.  So the lockfile never exists
    without its claim, and a holder killed at any instant leaves either
    no lockfile or one naming its pid.  A lockfile whose holder process
    is gone — or, for unparseable/legacy content, one older than
    ``stale_after`` seconds — is presumed abandoned by a killed writer
    and is broken.  Acquisition failure after ``timeout`` raises
    :class:`TimeoutError` rather than deadlocking the campaign.

    Stale-break is made race-free in three steps: (1) breaking requires
    its own ``<path>.breaker`` mutex, so at most one process is ever in
    the break path; (2) a *live* holder (its pid answers ``kill -0``) is
    never broken regardless of age — a long-held lock times the waiter
    out instead of being stolen; (3) the claim token is re-read
    immediately before the unlink, so a lock released-and-reacquired by
    someone else mid-break is left alone.

    A waiter retries after :data:`LOCK_FIRST_BACKOFF_S`, doubling the
    pause up to ``poll_interval``: a short hold is handed over within
    about its own length, and a long one costs few retries.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        timeout: float = 10.0,
        stale_after: float = 30.0,
        poll_interval: float = 0.01,
    ) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self._held = False
        self._token: str | None = None

    def acquire(self) -> None:
        import time

        deadline = time.monotonic() + self.timeout
        backoff = min(LOCK_FIRST_BACKOFF_S, self.poll_interval)
        while True:
            token = f"{os.getpid()}:{os.urandom(8).hex()}"
            if self._publish(token):
                self._held = True
                self._token = token
                return
            self._break_if_stale()
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not acquire {self.path} within "
                    f"{self.timeout:.1f}s"
                )
            time.sleep(backoff)
            backoff = min(2 * backoff, self.poll_interval)

    def _publish(self, token: str) -> bool:
        """Create the lockfile already holding *token*; False if held.

        A process killed after creating its private ``*.tmp`` claim
        file and before unlinking it leaves that file behind, which
        nothing reads; :meth:`sweep_dead_claims` removes it.
        """
        claim = f"{self.path}.{token.replace(':', '-')}.tmp"
        fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        try:
            try:
                os.write(fd, token.encode())
            finally:
                os.close(fd)
            os.link(claim, self.path)
        except FileExistsError:
            return False
        finally:
            os.unlink(claim)
        return True

    def release(self) -> None:
        if self._held:
            self._held = False
            self._token = None
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def sweep_dead_claims(self) -> None:
        """Unlink the private claim files of processes that are gone."""
        prefix = f"{self.path.name}."
        for claim in self.path.parent.glob(f"{prefix}*.tmp"):
            pid = claim.name[len(prefix):].split("-", 1)[0]
            if self._holder_alive(f"{pid}:") is False:
                claim.unlink(missing_ok=True)

    @staticmethod
    def _holder_alive(claim: str) -> bool | None:
        """True/False when the claim names a checkable pid, else None."""
        pid_text = claim.split(":", 1)[0].strip()
        try:
            pid = int(pid_text)
        except ValueError:
            return None  # legacy/foreign content: fall back to age
        if pid <= 0:
            return None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError):
            return True  # exists but not ours to signal
        return True

    def _break_if_stale(self) -> None:
        import time

        try:
            stat = self.path.stat()
            claim = self.path.read_text()
        except OSError:
            return  # released between our open() and stat()
        alive = self._holder_alive(claim)
        if alive is True:
            return  # never steal from a live holder, however old
        if alive is None and time.time() - stat.st_mtime <= self.stale_after:
            return  # unparseable claim: only age can condemn it
        # The holder looks dead. Serialize the break itself behind a
        # dedicated mutex so exactly one process performs the unlink,
        # and re-verify the claim under that mutex: between our read
        # above and here the lock may have been released and re-acquired
        # by a live process whose lock we must not destroy.
        breaker = self.path.with_name(self.path.name + ".breaker")
        try:
            bfd = os.open(breaker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                if time.time() - breaker.stat().st_mtime > self.stale_after:
                    breaker.unlink(missing_ok=True)  # breaker died breaking
            except OSError:
                pass
            return  # someone else is breaking; retry O_EXCL next loop
        try:
            os.close(bfd)
            try:
                if self.path.read_text() == claim:
                    self.path.unlink(missing_ok=True)
            except OSError:
                pass  # already released: nothing to break
        finally:
            breaker.unlink(missing_ok=True)

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# ----------------------------------------------------------------------
# Canonical encoding + stable digests
# ----------------------------------------------------------------------
def canonical(obj):
    """Encode *obj* as JSON-serializable primitives, deterministically.

    Handles the value types compilation keys are made of: primitives,
    enums, (nested, frozen) dataclasses, dicts, sequences and sets.
    Unlike :func:`hash`, the result does not depend on the process'
    string-hash seed, so digests agree across worker processes.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; json would too, but be explicit.
        return float.hex(obj)
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__] + [
            [f.name, canonical(getattr(obj, f.name))] for f in fields(obj)
        ]
    if isinstance(obj, dict):
        return ["dict"] + sorted(
            ([canonical(k), canonical(v)] for k, v in obj.items()),
            key=repr,
        )
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return ["set"] + sorted((canonical(v) for v in obj), key=repr)
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


# Per-dataclass encoding plan: (type tag, field names in declaration
# order).  ``fields()`` walks the class dict on every call; compilation
# keys hash the same few dataclass types thousands of times per
# campaign, so the plan is computed once per type.
_DATACLASS_PLAN: dict[type, tuple[bytes, tuple[str, ...]]] = {}


def _encode(out: list, obj) -> None:
    """Append a deterministic, injective byte encoding of *obj* to *out*.

    This is the hot-path twin of :func:`canonical`: same value domain,
    same determinism guarantees (no dependence on the string-hash seed),
    but it emits length-prefixed byte tokens directly instead of
    building nested lists and JSON-serializing them.  Only
    :func:`stable_digest` consumes the encoding, so its exact byte
    format is free to differ from ``canonical()``'s list form — digests
    just change, and content-addressed caches re-fill.
    """
    t = obj.__class__
    if t is int:
        out.append(b"i%d;" % obj)
    elif t is str:
        raw = obj.encode("utf-8", "surrogatepass")
        out.append(b"s%d:" % len(raw))
        out.append(raw)
    elif t is float:
        # float.hex round-trips exactly, like canonical().
        out.append(b"f" + float.hex(obj).encode() + b";")
    elif t is bool:
        out.append(b"T" if obj else b"F")
    elif obj is None:
        out.append(b"N;")
    elif t is tuple or t is list:
        for item in obj:
            if item.__class__ is not int:
                out.append(b"[")
                for item in obj:
                    _encode(out, item)
                out.append(b"]")
                break
        else:
            # Int-only sequences (domain bounds, index lists) dominate
            # digest traffic; one C-level repr replaces N recursions.
            # The exact-class check excludes bools, repr of an int tuple
            # is ASCII and deterministic, and the "I" prefix is unused
            # by every other token, so injectivity holds.
            out.append(b"I" + repr(tuple(obj)).encode() + b";")
    elif t is dict:
        # Sort by encoded bytes: deterministic for any key mix, and
        # injective because each pair's encoding is self-delimiting.
        pairs = []
        for key, value in obj.items():
            buf: list = []
            _encode(buf, key)
            _encode(buf, value)
            pairs.append(b"".join(buf))
        pairs.sort()
        out.append(b"{")
        out.extend(pairs)
        out.append(b"}")
    else:
        _encode_slow(out, obj, t)


#: Pre-built byte tokens per enum *member*, keyed by ``id``.  Members are
#: class attributes and so live for the process lifetime, which keeps ids
#: stable; keying by the member itself would let IntEnum members of
#: different classes (equal as ints) alias each other's tokens.
_ENUM_TOKENS: dict[int, bytes] = {}


def _encode_slow(out: list, obj, t: type) -> None:
    """Uncommon types: dataclasses (planned per type), enums, subclasses."""
    plan = _DATACLASS_PLAN.get(t)
    if plan is not None:
        tag, names = plan
        out.append(tag)
        for name in names:
            _encode(out, getattr(obj, name))
        out.append(b")")
        return
    if isinstance(obj, enum.Enum):
        # Enum before int: IntEnum members must not collide with ints.
        tok = _ENUM_TOKENS.get(id(obj))
        if tok is None:
            tok = _ENUM_TOKENS[id(obj)] = (
                b"e" + t.__name__.encode() + b":" + obj.name.encode() + b";"
            )
        out.append(tok)
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = tuple(f.name for f in fields(obj))
        tag = b"d" + t.__name__.encode() + b"("
        _DATACLASS_PLAN[t] = (tag, names)
        out.append(tag)
        for name in names:
            _encode(out, getattr(obj, name))
        out.append(b")")
        return
    if isinstance(obj, (set, frozenset)):
        members = []
        for item in obj:
            buf: list = []
            _encode(buf, item)
            members.append(b"".join(buf))
        members.sort()
        out.append(b"<")
        out.extend(members)
        out.append(b">")
        return
    if isinstance(obj, str):
        raw = obj.encode("utf-8", "surrogatepass")
        out.append(b"s%d:" % len(raw))
        out.append(raw)
        return
    if isinstance(obj, int):
        out.append(b"i%d;" % obj)
        return
    if isinstance(obj, float):
        out.append(b"f" + float.hex(obj).encode() + b";")
        return
    if isinstance(obj, (list, tuple)):
        out.append(b"[")
        for item in obj:
            _encode(out, item)
        out.append(b"]")
        return
    if isinstance(obj, dict):
        pairs = []
        for key, value in obj.items():
            buf: list = []
            _encode(buf, key)
            _encode(buf, value)
            pairs.append(b"".join(buf))
        pairs.sort()
        out.append(b"{")
        out.extend(pairs)
        out.append(b"}")
        return
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def stable_digest(obj) -> str:
    """SHA-256 hex digest of a deterministic encoding of *obj*.

    Accepts the same value domain as :func:`canonical` and has the same
    cross-process stability, via the streaming byte encoder above (one
    hash over joined tokens instead of nested lists + JSON).
    """
    out: list = []
    _encode(out, obj)
    return hashlib.sha256(b"".join(out)).hexdigest()


def result_digest(result) -> str:
    """Digest of a JSON-transportable result payload.

    Job results travel two routes: straight out of ``run_job_spec``
    (Python ints/floats/tuples) or through the serve WAL and HTTP API
    (JSON round-trip, which erases tuple-vs-list and may re-type
    numerics).  Normalizing through JSON before digesting guarantees the
    same result hashes identically on both routes — the invariant the
    record/replay diff (repro.replay) is built on.
    """
    try:
        normalized = json.loads(json.dumps(result, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"result is not JSON-transportable: {exc}"
        ) from exc
    return stable_digest(normalized)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/eviction counters, mergeable across worker processes."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0  # subset of ``hits`` served from the disk store
    disk_stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "CacheStats":
        # Field-by-field construction: ``dataclasses.replace`` shows up
        # in campaign profiles (the engine snapshots stats per region).
        return CacheStats(
            self.hits,
            self.misses,
            self.stores,
            self.evictions,
            self.disk_hits,
            self.disk_stores,
        )

    def delta(self, before: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(before, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def summary(self) -> str:
        return (
            f"{self.lookups} lookups, {self.hits} hits "
            f"({self.hit_rate:.0%}), {self.disk_hits} from disk, "
            f"{self.stores} stores, {self.evictions} evictions"
        )


@dataclass(frozen=True)
class LayoutFailure:
    """Negative cache entry: this key deterministically fails to lower."""

    message: str


_MISS = object()


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class CompilationCache:
    """LRU of compiled artifacts keyed by content digest.

    Values must be picklable (for the optional disk store) and are
    treated as immutable by every consumer: the backend schedules and
    register-allocates *before* insertion, and the JIT/timing layers
    only read the cached objects.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: str | os.PathLike | None = None,
    ) -> None:
        self.max_entries = max(1, int(max_entries))
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.stats = CacheStats()
        self._lru: OrderedDict[str, object] = OrderedDict()
        if self.disk_dir is not None and self.disk_dir.is_dir():
            # Opportunistic: sweep tempfiles left by writers that were
            # killed mid-publish (anything older than the orphan age).
            self.gc_orphans()

    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached value, or ``None`` on miss (values are never None)."""
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            if _metrics.REGISTRY is not None or _trace.TRACER is not None:
                self._observe("hit", key)
            return self._lru[key]
        value = self._disk_get(key)
        if value is not _MISS:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._insert(key, value)
            if _metrics.REGISTRY is not None or _trace.TRACER is not None:
                self._observe("disk-hit", key)
            return value
        self.stats.misses += 1
        if _metrics.REGISTRY is not None or _trace.TRACER is not None:
            self._observe("miss", key)
        return None

    def put(self, key: str, value) -> None:
        if value is None:
            raise ValueError("cannot cache None (reserved for misses)")
        self.stats.stores += 1
        self._insert(key, value)
        self._disk_put(key, value)
        if _metrics.REGISTRY is not None or _trace.TRACER is not None:
            self._observe("store", key)

    @staticmethod
    def _observe(outcome: str, key: str) -> None:
        # Keys are "<stage>-<hex digest>"; digests never contain "-".
        stage = key.rsplit("-", 1)[0] if "-" in key else "other"
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.add("cache.lookup", 1.0, outcome=outcome, stage=stage)
        tr = _trace.TRACER
        if tr is not None:
            tr.instant(
                f"cache.{outcome}",
                _Cat.CACHE,
                track="cache",
                stage=stage,
                key=key[-12:],
            )

    def clear(self, disk: bool = False) -> None:
        self._lru.clear()
        if disk and self.disk_dir is not None:
            with self._index_lock():
                for path in self.disk_dir.glob("*/*.pkl"):
                    path.unlink(missing_ok=True)
                self._write_index({})

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        return key in self._lru

    # ------------------------------------------------------------------
    def _insert(self, key: str, value) -> None:
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            # Evicted entries stay on disk (if persisted): the LRU only
            # bounds resident memory, not the content-addressed store.
            self._lru.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / key[:2] / f"{key}.pkl"

    def _disk_get(self, key: str):
        if self.disk_dir is None:
            return _MISS
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return _MISS

    def _disk_put(self, key: str, value) -> None:
        if self.disk_dir is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent workers may race on one key.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            self.stats.disk_stores += 1
        except (OSError, pickle.PicklingError):
            return  # persistence is best-effort
        try:
            size = path.stat().st_size
            with self._index_lock():
                index = self._read_index()
                index[key] = size
                self._write_index(index)
        except (OSError, TimeoutError):
            # Index bookkeeping is best-effort too: gc_orphans()
            # reconciles it with the *.pkl files on the next sweep.
            return

    # ------------------------------------------------------------------
    # Shared-store bookkeeping: index + orphan collection, both under
    # the cross-process lock so concurrent writers never corrupt them.
    # ------------------------------------------------------------------
    def _index_lock(self) -> FileLock:
        assert self.disk_dir is not None
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        return FileLock(self.disk_dir / "index.lock")

    def _read_index(self) -> dict[str, int]:
        assert self.disk_dir is not None
        try:
            with open(self.disk_dir / "index.json") as fh:
                raw = json.load(fh)
            return {str(k): int(v) for k, v in raw.items()}
        except (OSError, ValueError):
            return {}

    def _write_index(self, index: dict[str, int]) -> None:
        assert self.disk_dir is not None
        fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".idx.tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(index, fh, sort_keys=True)
            os.replace(tmp, self.disk_dir / "index.json")
        except BaseException:
            os.unlink(tmp)
            raise

    def gc_orphans(
        self, max_age: float = TMP_ORPHAN_AGE_SECONDS
    ) -> list[str]:
        """Remove ``*.tmp`` files abandoned by killed writers.

        Also reconciles ``index.json`` with the ``*.pkl`` files actually
        present (a writer killed between publishing its pickle and
        updating the index leaves the two out of sync).  Returns the
        paths removed.  Everything happens under the cross-process lock.
        """
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        import time

        removed: list[str] = []
        try:
            with self._index_lock():
                now = time.time()
                for pattern in ("*.tmp", "*/*.tmp"):
                    for tmp in self.disk_dir.glob(pattern):
                        try:
                            if now - tmp.stat().st_mtime > max_age:
                                tmp.unlink()
                                removed.append(str(tmp))
                        except OSError:
                            continue  # a live writer published/removed it
                on_disk = {
                    p.stem: p.stat().st_size
                    for p in self.disk_dir.glob("*/*.pkl")
                }
                if on_disk != self._read_index():
                    self._write_index(on_disk)
        except (OSError, TimeoutError):
            return removed
        return removed

    # ------------------------------------------------------------------
    def disk_entries(self) -> list[tuple[str, int]]:
        """(key, bytes) for every entry in the disk store.

        Served from ``index.json`` when it is consistent with the store;
        falls back to a directory walk (the ground truth) otherwise.
        """
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        out = [
            (path.stem, path.stat().st_size)
            for path in sorted(self.disk_dir.glob("*/*.pkl"))
        ]
        return out

    def disk_index(self) -> dict[str, int]:
        """The locked bookkeeping index (key -> bytes); may trail the
        store briefly between a pickle publish and its index update."""
        if self.disk_dir is None:
            return {}
        return self._read_index()


# ----------------------------------------------------------------------
# The process-global active cache
# ----------------------------------------------------------------------
_active: CompilationCache | None = CompilationCache(
    disk_dir=os.environ.get("REPRO_CACHE_DIR") or None
)


def active_cache() -> CompilationCache | None:
    """The cache the backend/JIT consult, or ``None`` when disabled."""
    return _active


def configure_cache(
    enabled: bool = True,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    disk_dir: str | os.PathLike | None = None,
) -> CompilationCache | None:
    """Replace the process-global cache (e.g. from CLI flags)."""
    global _active
    _active = (
        CompilationCache(max_entries=max_entries, disk_dir=disk_dir)
        if enabled
        else None
    )
    return _active


def export_config() -> dict:
    """The active configuration, picklable for worker-process setup."""
    if _active is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "max_entries": _active.max_entries,
        "disk_dir": str(_active.disk_dir) if _active.disk_dir else None,
    }


def configure_from(config: dict) -> None:
    configure_cache(**config)


def stats_snapshot() -> CacheStats:
    return _active.stats.copy() if _active is not None else CacheStats()


def merge_stats(delta: CacheStats) -> None:
    """Fold a worker process' counter delta into the active cache."""
    if _active is not None:
        _active.stats.merge(delta)


# ----------------------------------------------------------------------
# CLI: inspect / clear the on-disk store
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Inspect or clear the on-disk compilation cache.",
    )
    ap.add_argument("--dir", default=DEFAULT_CACHE_DIR)
    ap.add_argument("--clear", action="store_true")
    args = ap.parse_args(argv)

    cache = CompilationCache(disk_dir=args.dir)
    entries = cache.disk_entries()
    if args.clear:
        cache.clear(disk=True)
        print(f"cleared {len(entries)} entries from {args.dir}/")
        return 0
    by_kind: dict[str, tuple[int, int]] = {}
    for key, size in entries:
        # Keys are "<stage>-<hex digest>"; stage names may contain "-"
        # (jit-lower) but digests never do.
        kind = key.rsplit("-", 1)[0] if "-" in key else "other"
        count, total = by_kind.get(kind, (0, 0))
        by_kind[kind] = (count + 1, total + size)
    if not by_kind:
        print(f"{args.dir}/: empty")
        return 0
    for kind, (count, total) in sorted(by_kind.items()):
        print(f"{kind:10s} {count:6d} entries  {total / 1024:.1f} KiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
