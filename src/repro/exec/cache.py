"""Content-addressed compilation cache.

Simulation campaigns re-run the same workload under several paradigms
and tile overrides, and every host-loop iteration recompiles the fat
binary and re-lowers the region from scratch even when the tDFG and
:class:`~repro.config.system.SystemConfig` are identical.  This module
memoizes those artifacts by *content fingerprint*:

* keys are SHA-256 digests of a canonical encoding of everything the
  compilation depends on (tDFG structure, system parameters, tile
  override), so they are stable across processes and across runs;
* values live in an in-process LRU, bounded by entry count;
* hits never change modeled timing — a cache hit returns the same
  lowering a fresh compile would have produced, and the JIT's *modeled*
  memoization cycles (§4.2) are accounted separately per run.

The module holds one process-global active cache, which
:func:`configure_cache` replaces or disables, so that the backend and
the JIT share it without plumbing.  It also holds :class:`FileLock`,
the cross-process mutex of the serve job store.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path

from repro.trace import events as _trace
from repro.trace import metrics as _metrics
from repro.trace.events import Category as _Cat

DEFAULT_MAX_ENTRIES = 8192

#: a waiting FileLock's first retry pause; it doubles from there
LOCK_FIRST_BACKOFF_S = 0.0005


# ----------------------------------------------------------------------
# Cross-process file lock
# ----------------------------------------------------------------------
class FileLock:
    """A lockfile-based mutex shared by every process using one serve store.

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
# Per-dataclass encoding plan: (type tag, field names in declaration
# order).  ``fields()`` walks the class dict on every call; compilation
# keys hash the same few dataclass types thousands of times per
# campaign, so the plan is computed once per type.
_DATACLASS_PLAN: dict[type, tuple[bytes, tuple[str, ...]]] = {}


def _encode(out: list, obj) -> None:
    """Append a deterministic, injective byte encoding of *obj* to *out*.

    Handles the value types compilation keys are made of: primitives,
    enums, (nested, frozen) dataclasses, dicts, sequences and sets.
    Unlike :func:`hash`, the encoding does not depend on the process'
    string-hash seed, so digests agree across worker processes.  It
    emits length-prefixed byte tokens; only :func:`stable_digest` and
    :meth:`TensorDFG.fingerprint` consume them, so the byte format is
    free to change — digests just change, and the in-memory cache
    re-fills.
    """
    t = obj.__class__
    if t is int:
        out.append(b"i%d;" % obj)
    elif t is str:
        raw = obj.encode("utf-8", "surrogatepass")
        out.append(b"s%d:" % len(raw))
        out.append(raw)
    elif t is float:
        # float.hex round-trips exactly: distinct floats never collide.
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
    """SHA-256 hex digest of the byte encoding of *obj* (:func:`_encode`).

    Stable across processes; raises :class:`TypeError` for a value type
    the encoding does not cover.
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

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "CacheStats":
        # Field-by-field construction: ``dataclasses.replace`` shows up
        # in campaign profiles (the engine snapshots stats per region).
        return CacheStats(self.hits, self.misses, self.stores, self.evictions)

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
            f"({self.hit_rate:.0%}), {self.stores} stores, "
            f"{self.evictions} evictions"
        )


@dataclass(frozen=True)
class LayoutFailure:
    """Negative cache entry: this key deterministically fails to lower."""

    message: str


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class CompilationCache:
    """LRU of compiled artifacts keyed by content digest.

    Values are treated as immutable by every consumer: the backend
    schedules and register-allocates *before* insertion, and the
    JIT/timing layers only read the cached objects.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = max(1, int(max_entries))
        self.stats = CacheStats()
        self._lru: OrderedDict[str, object] = OrderedDict()

    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached value, or ``None`` on miss (values are never None)."""
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            if _metrics.REGISTRY is not None or _trace.TRACER is not None:
                self._observe("hit", key)
            return self._lru[key]
        self.stats.misses += 1
        if _metrics.REGISTRY is not None or _trace.TRACER is not None:
            self._observe("miss", key)
        return None

    def put(self, key: str, value) -> None:
        if value is None:
            raise ValueError("cannot cache None (reserved for misses)")
        self.stats.stores += 1
        self._insert(key, value)
        if _metrics.REGISTRY is not None or _trace.TRACER is not None:
            self._observe("store", key)

    def resident(self, key: str, build):
        """The uncounted entry *key*, made by ``build()`` on a miss.

        For live objects that are cheaper to keep than to rebuild
        (instantiated kernels and the regions they have built).
        Resident entries share the LRU bound with compiled artifacts and
        leave with :func:`configure_cache`'s fresh cache, but they never
        count as lookups, so the stage statistics see only compiled
        artifacts.
        """
        value = self._lru.get(key)
        if value is None:
            value = build()
            self._insert(key, value)
        else:
            self._lru.move_to_end(key)
        return value

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

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        return key in self._lru

    # ------------------------------------------------------------------
    def _insert(self, key: str, value) -> None:
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)
            self.stats.evictions += 1


# ----------------------------------------------------------------------
# The process-global active cache
# ----------------------------------------------------------------------
_active: CompilationCache | None = CompilationCache()


def active_cache() -> CompilationCache | None:
    """The cache the backend/JIT consult, or ``None`` when disabled."""
    return _active


def configure_cache(enabled: bool = True) -> CompilationCache | None:
    """Replace the process-global cache with a fresh one, or disable it."""
    global _active
    _active = CompilationCache() if enabled else None
    return _active


def stats_snapshot() -> CacheStats:
    return _active.stats.copy() if _active is not None else CacheStats()


def merge_stats(delta: CacheStats) -> None:
    """Fold a worker process' counter delta into the active cache."""
    if _active is not None:
        _active.stats.merge(delta)
