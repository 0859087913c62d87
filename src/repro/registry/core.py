"""The typed discovery registry behind workloads/paradigms/systems/figures.

A :class:`Registry` maps *names* to lazily resolved factories, with three
registration channels feeding one lookup path:

* **decorator registration** — in-tree modules decorate their factories
  (``@WORKLOADS.register("attention", tags=("zoo",))``);
* **builtin modules** — the registry knows which in-tree modules carry
  decorators and imports them on first use, so ``import repro.registry``
  stays cheap and registration happens at the definition site;
* **entry points** — out-of-tree packages declare factories under the
  registry's ``importlib.metadata`` entry-point group (e.g.
  ``[project.entry-points."repro.workloads"]``) and are discovered
  without touching this repository.

Entries carry name/alias/tag metadata and resolve their factory lazily
(an entry registered as ``"pkg.mod:attr"`` imports nothing until first
use).  Listing order is deterministic: ``(order, name)``, so tables and
``--help`` output never depend on import or installation order.

Failure is uniform: every bad name raises
:class:`~repro.errors.UnknownNameError` naming the known entries, and a
second registration of the same name (or alias) raises
:class:`~repro.errors.DuplicateRegistrationError` — entry-point
collisions with in-tree names warn and keep the in-tree entry instead,
so a stray plugin cannot hijack ``"inf-s"``.
"""

from __future__ import annotations

import importlib
import importlib.metadata
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import (
    DuplicateRegistrationError,
    RegistryError,
    UnknownNameError,
)


def _first_doc_line(obj: object) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


@dataclass
class RegistryEntry:
    """One registered factory plus its discovery metadata."""

    name: str
    kind: str  # the owning registry's kind ("workload", "paradigm", ...)
    target: Callable | str  # a factory, or a lazy "module:attr" reference
    aliases: tuple[str, ...] = ()
    tags: frozenset[str] = frozenset()
    description: str = ""
    order: int = 1000  # listing rank; ties break alphabetically
    source: str = "builtin"  # "builtin" or "plugin:<distribution>"
    _resolved: Callable | None = field(default=None, repr=False)

    def resolve(self) -> Callable:
        """The factory, importing lazy ``module:attr`` targets on demand."""
        if self._resolved is None:
            if callable(self.target):
                self._resolved = self.target
            else:
                modname, sep, attr = str(self.target).partition(":")
                if not sep or not attr:
                    raise RegistryError(
                        f"{self.kind} {self.name!r}: lazy target must be "
                        f"'module:attr', got {self.target!r}"
                    )
                obj: Any = importlib.import_module(modname)
                for part in attr.split("."):
                    obj = getattr(obj, part)
                if not callable(obj):
                    raise RegistryError(
                        f"{self.kind} {self.name!r}: target {self.target!r} "
                        f"resolved to non-callable {type(obj).__name__}"
                    )
                self._resolved = obj
        return self._resolved


class Registry:
    """A named collection of lazily resolved, discoverable factories."""

    def __init__(
        self,
        kind: str,
        entry_point_group: str | None = None,
        builtin_modules: Sequence[str] = (),
    ) -> None:
        self.kind = kind
        self.entry_point_group = entry_point_group
        self.builtin_modules = tuple(builtin_modules)
        self._entries: dict[str, RegistryEntry] = {}
        self._aliases: dict[str, str] = {}
        self._discovered = False
        # Held through a discovery, so that another thread's first
        # lookup waits for it instead of seeing a half-filled registry;
        # re-entrant for builtin modules that look names up on import.
        self._discover_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str | None = None,
        factory: Callable | None = None,
        *,
        aliases: Iterable[str] = (),
        tags: Iterable[str] = (),
        description: str | None = None,
        order: int = 1000,
        source: str = "builtin",
    ):
        """Register *factory* under *name*; usable as a decorator.

        ``@reg.register("x")`` and ``reg.register("x", fn)`` both work;
        with no name the factory's ``__name__`` is used.  Returns the
        factory unchanged so decorated functions stay plain callables.
        """

        def add(fn: Callable) -> Callable:
            entry_name = name or getattr(fn, "__name__", None)
            if not entry_name:
                raise RegistryError(
                    f"cannot infer a {self.kind} name for {fn!r}"
                )
            self._add(
                RegistryEntry(
                    name=entry_name,
                    kind=self.kind,
                    target=fn,
                    aliases=tuple(aliases),
                    tags=frozenset(tags),
                    description=(
                        description
                        if description is not None
                        else _first_doc_line(fn)
                    ),
                    order=order,
                    source=source,
                )
            )
            return fn

        if factory is not None:
            return add(factory)
        if callable(name):  # bare @reg.register
            fn, name = name, None
            return add(fn)
        return add

    def register_lazy(
        self,
        name: str,
        target: str,
        *,
        aliases: Iterable[str] = (),
        tags: Iterable[str] = (),
        description: str = "",
        order: int = 1000,
        source: str = "builtin",
    ) -> None:
        """Register a ``"module:attr"`` reference resolved on first use."""
        self._add(
            RegistryEntry(
                name=name,
                kind=self.kind,
                target=target,
                aliases=tuple(aliases),
                tags=frozenset(tags),
                description=description,
                order=order,
                source=source,
            )
        )

    def _add(self, entry: RegistryEntry) -> None:
        for key in (entry.name, *entry.aliases):
            if key in self._entries or key in self._aliases:
                raise DuplicateRegistrationError(
                    f"{self.kind} name {key!r} is already registered "
                    f"(while adding {entry.name!r} from {entry.source})"
                )
        self._entries[entry.name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = entry.name

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(
        self, force: bool = False, path: Sequence[str] | None = None
    ) -> None:
        """Import builtin modules and load entry points (idempotent).

        *path* overrides the distribution search path (``sys.path`` by
        default) — tests point it at a stub ``.dist-info`` directory.
        """
        with self._discover_lock:
            if self._discovered and not force:
                return
            self._discovered = True
            for modname in self.builtin_modules:
                importlib.import_module(modname)  # decorators self-register
            if self.entry_point_group:
                self._load_entry_points(path=path)

    def _load_entry_points(self, path: Sequence[str] | None = None) -> None:
        if path is None:
            dists = importlib.metadata.distributions()
        else:
            dists = importlib.metadata.distributions(path=list(path))
        found: dict[str, tuple[str, str]] = {}
        for dist in dists:
            try:
                dist_name = dist.metadata["Name"] or "?"
                eps = dist.entry_points
            except Exception:  # pragma: no cover - malformed metadata
                continue
            for ep in eps:
                if ep.group != self.entry_point_group:
                    continue
                found.setdefault(ep.name, (ep.value, dist_name))
        for ep_name in sorted(found):
            value, dist_name = found[ep_name]
            if ep_name in self._entries or ep_name in self._aliases:
                if self._entries.get(ep_name, None) is not None and (
                    self._entries[ep_name].target == value
                ):
                    continue  # same plugin seen twice (re-discovery)
                warnings.warn(
                    f"entry point {self.entry_point_group}:{ep_name} from "
                    f"{dist_name} shadows an existing {self.kind}; ignored",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self._add(
                RegistryEntry(
                    name=ep_name,
                    kind=self.kind,
                    target=value,
                    description=f"entry point {value}",
                    source=f"plugin:{dist_name}",
                )
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> RegistryEntry:
        """The entry for *name* (aliases resolve); UnknownNameError if absent."""
        self.discover()
        key = self._aliases.get(name, name)
        entry = self._entries.get(key)
        if entry is None:
            known = ", ".join(self.names()) or "<none>"
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; known: {known}"
            )
        return entry

    def resolve(self, name: str) -> Callable:
        """The factory registered under *name*."""
        return self.get(name).resolve()

    def create(self, name: str, *args, **kwargs):
        """Instantiate *name*'s factory with the given arguments."""
        return self.get(name).resolve()(*args, **kwargs)

    def names(self, tag: str | None = None) -> tuple[str, ...]:
        """Deterministic listing: sorted by (order, name); *tag* filters."""
        self.discover()
        entries = [
            e
            for e in self._entries.values()
            if tag is None or tag in e.tags
        ]
        return tuple(
            e.name for e in sorted(entries, key=lambda e: (e.order, e.name))
        )

    def entries(self, tag: str | None = None) -> tuple[RegistryEntry, ...]:
        """The entries themselves, in :meth:`names` order."""
        return tuple(self.get(name) for name in self.names(tag=tag))

    def __contains__(self, name: object) -> bool:
        self.discover()
        return name in self._entries or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self.discover()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {len(self._entries)} entries)"
