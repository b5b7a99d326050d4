"""Codebases and lazy class loading (paper §2.1).

A :class:`CodeBase` is the JAR analogue: a named bundle of Python module
sources "zipped" together so that "all the classes and resources needed are
transported at a time".  The immutable ``codebase`` attribute of a naplet
points at one of these; naplet servers resolve classes against their local
:class:`CodeCache`, fetching the bundle from the :class:`CodeBaseRegistry`
(the codebase URL's host) *on demand and at the last moment possible* —
lazy loading.

Classes that should travel by codebase reference are *stamped*
(``CodeBase.add_class`` / ``CodeBase.load``): the serializer ships stamped
instances as ``(codebase, module, qualname, state)`` instead of by import
path, so deserialization exercises the cache-miss → fetch → execute path
even inside a single test process.
"""

from __future__ import annotations

import inspect
import sys
import threading
import textwrap
from typing import Any, Callable

from repro.codeshipping.loader import RestrictedLoader
from repro.core.errors import CodeShippingError
from repro.telemetry.journal import SpaceJournal

__all__ = [
    "CodeBase",
    "CodeBaseRegistry",
    "CodeCache",
    "SHIPPING_STAMP",
    "source_hash",
]

SHIPPING_STAMP = "__naplet_codebase__"


def source_hash(source: str) -> str:
    """Content address of one module source (code-hash negotiation).

    Both ends of a transfer compute this independently — the sender over
    its bundled source, the receiver over what it installed — so a hash
    match in the transfer exchange proves the destination already holds
    the exact module and the bundle need not ship again (DESIGN.md §6.7).
    The same :func:`~repro.transport.delta.content_hash` as every field.
    """
    # Imported here: repro.transport's serializer imports this module.
    from repro.transport.delta import content_hash

    return content_hash(source.encode("utf-8"))


class CodeBase:
    """Named bundle of module sources plus the classes they export."""

    def __init__(self, name: str) -> None:
        if not name:
            raise CodeShippingError("codebase needs a non-empty name")
        self.name = name
        self._modules: dict[str, str] = {}
        self._hashes: dict[str, str] = {}  # module_key -> source_hash, lazy
        self._lock = threading.RLock()

    # -- authoring ---------------------------------------------------------- #

    def add_source(self, module_key: str, source: str) -> None:
        """Bundle *source* under *module_key* (overwrites are errors)."""
        with self._lock:
            if module_key in self._modules:
                raise CodeShippingError(
                    f"module {module_key!r} already bundled in codebase {self.name!r}"
                )
            self._modules[module_key] = textwrap.dedent(source)

    def add_class(self, cls: type) -> type:
        """Bundle the source of *cls* (the whole defining module) and stamp it.

        Instances of a stamped class are shipped by codebase reference, so
        destinations without the class fetch this bundle lazily.
        """
        module_key = cls.__module__
        with self._lock:
            if module_key not in self._modules:
                module = sys.modules.get(module_key)
                if module is None:
                    raise CodeShippingError(f"defining module {module_key!r} not importable")
                try:
                    source = inspect.getsource(module)
                except (OSError, TypeError) as exc:
                    raise CodeShippingError(
                        f"cannot capture source of module {module_key!r}: {exc}"
                    ) from exc
                self._modules[module_key] = source
        setattr(cls, SHIPPING_STAMP, (self.name, module_key, cls.__qualname__))
        return cls

    # -- inspection ----------------------------------------------------------- #

    def modules(self) -> dict[str, str]:
        with self._lock:
            return dict(self._modules)

    def source_of(self, module_key: str) -> str:
        with self._lock:
            try:
                return self._modules[module_key]
            except KeyError:
                raise CodeShippingError(
                    f"codebase {self.name!r} has no module {module_key!r}"
                ) from None

    def hash_of(self, module_key: str) -> str:
        """Content hash of one bundled module source, memoized.

        Sources are add-only (``add_source`` refuses overwrites), so the
        memo never goes stale.
        """
        with self._lock:
            digest = self._hashes.get(module_key)
            if digest is None:
                try:
                    source = self._modules[module_key]
                except KeyError:
                    raise CodeShippingError(
                        f"codebase {self.name!r} has no module {module_key!r}"
                    ) from None
                digest = self._hashes[module_key] = source_hash(source)
            return digest

    @property
    def total_bytes(self) -> int:
        """Transport size of the bundle (sum of encoded module sources)."""
        with self._lock:
            return sum(len(src.encode()) for src in self._modules.values())

    def __contains__(self, module_key: str) -> bool:
        with self._lock:
            return module_key in self._modules

    def __repr__(self) -> str:
        with self._lock:
            return f"<CodeBase {self.name!r} modules={sorted(self._modules)}>"


class CodeBaseRegistry:
    """Authoritative store of codebases — the 'codebase URL host'.

    One registry typically serves a whole virtual network; fetches from it
    are what the lazy-loading experiment meters.
    """

    def __init__(self) -> None:
        self._codebases: dict[str, CodeBase] = {}
        self._lock = threading.RLock()

    def create(self, name: str) -> CodeBase:
        with self._lock:
            if name in self._codebases:
                raise CodeShippingError(f"codebase {name!r} already registered")
            codebase = CodeBase(name)
            self._codebases[name] = codebase
            return codebase

    def add(self, codebase: CodeBase) -> None:
        with self._lock:
            if codebase.name in self._codebases:
                raise CodeShippingError(f"codebase {codebase.name!r} already registered")
            self._codebases[codebase.name] = codebase

    def get(self, name: str) -> CodeBase:
        with self._lock:
            try:
                return self._codebases[name]
            except KeyError:
                raise CodeShippingError(f"unknown codebase: {name!r}") from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._codebases)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._codebases


# Type of the hook a server installs to observe/account codebase fetches:
# called with (codebase_name, module_key, nbytes) after each registry fetch.
FetchObserver = Callable[[str, str, int], None]


class CodeCache:
    """Per-server cache of executed codebase modules.

    ``resolve`` is the lazy-loading entry point used during naplet
    deserialization: cache hit returns immediately; miss fetches the module
    source from the registry (invoking the fetch observer so the transport
    meter can account the transfer), executes it with the restricted
    loader, and caches the namespace.
    """

    def __init__(
        self,
        registry: CodeBaseRegistry,
        loader: RestrictedLoader | None = None,
        fetch_observer: FetchObserver | None = None,
        journal: SpaceJournal | None = None,
    ) -> None:
        self._registry = registry
        self._loader = loader or RestrictedLoader()
        self._modules: dict[tuple[str, str], Any] = {}
        self._hashes: dict[tuple[str, str], str] = {}  # hash of each installed source
        self._lock = threading.RLock()
        self._fetch_observer = fetch_observer
        self.journal = journal if journal is not None else SpaceJournal("code-cache")

    def install_source(self, codebase_name: str, module_key: str, source: str) -> None:
        """Pre-install a module (eager shipping: code arrived with the naplet)."""
        key = (codebase_name, module_key)
        with self._lock:
            if key in self._modules:
                return
            module = self._loader.execute(source, f"napletship.{codebase_name}.{module_key}")
            self._modules[key] = module
            self._hashes[key] = source_hash(source)

    def resolve(self, codebase_name: str, module_key: str, qualname: str) -> type:
        key = (codebase_name, module_key)
        with self._lock:
            module = self._modules.get(key)
            if module is not None:
                self.journal.record(
                    "codeshipping-cache-hit", codebase=codebase_name, module=module_key
                )
            else:
                codebase = self._registry.get(codebase_name)
                source = codebase.source_of(module_key)
                nbytes = len(source.encode())
                self.journal.record(
                    "codeshipping-cache-miss",
                    codebase=codebase_name,
                    module=module_key,
                    bytes=nbytes,
                )
                if self._fetch_observer is not None:
                    self._fetch_observer(codebase_name, module_key, nbytes)
                module = self._loader.execute(
                    source, f"napletship.{codebase_name}.{module_key}"
                )
                self._modules[key] = module
                self._hashes[key] = source_hash(source)
        target: Any = module
        for part in qualname.split("."):
            try:
                target = getattr(target, part)
            except AttributeError:
                raise CodeShippingError(
                    f"codebase {codebase_name!r} module {module_key!r} "
                    f"defines no {qualname!r}"
                ) from None
        if not isinstance(target, type):
            raise CodeShippingError(f"{qualname!r} in {module_key!r} is not a class")
        # Stamp the reconstructed class too, so re-serialization at this
        # server ships it onward by codebase reference again.
        setattr(target, SHIPPING_STAMP, (codebase_name, module_key, qualname))
        return target

    def cached_modules(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._modules)

    # -- code-hash negotiation (DESIGN.md §6.7) -------------------------- #

    def holds(self, codebase_name: str, module_key: str, digest: str) -> bool:
        """True when this cache holds *exactly* the announced module source.

        The receiving side of a transfer verifies each ``code_refs`` entry
        with this before trusting that a skipped bundle is resolvable.
        """
        with self._lock:
            return self._hashes.get((codebase_name, module_key)) == digest

    def known_hashes(self) -> list[str]:
        """Content hashes of every installed module (for transfer acks)."""
        with self._lock:
            return sorted(self._hashes.values())
