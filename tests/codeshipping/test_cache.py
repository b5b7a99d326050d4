"""CodeCache: lazy resolution, fetch accounting, eager installs."""

from __future__ import annotations

import pytest

from repro.codeshipping.codebase import CodeBaseRegistry, CodeCache
from repro.core.errors import CodeShippingError

SOURCE = """
class Widget:
    kind = "shipped"

    def __init__(self, n):
        self.n = n

class Outer:
    class Inner:
        tag = "nested"

NOT_A_CLASS = 42
"""


@pytest.fixture
def registry():
    reg = CodeBaseRegistry()
    codebase = reg.create("cb://widgets")
    codebase.add_source("widgets", SOURCE)
    return reg


def _hits_misses(cache):
    """The cache's hit and miss counts: its journal's tally of each kind."""
    journal = cache.journal
    return journal.count("codeshipping-cache-hit"), journal.count("codeshipping-cache-miss")


class TestResolution:
    def test_miss_then_hit(self, registry):
        cache = CodeCache(registry)
        widget_cls = cache.resolve("cb://widgets", "widgets", "Widget")
        assert widget_cls.kind == "shipped"
        assert _hits_misses(cache) == (0, 1)
        again = cache.resolve("cb://widgets", "widgets", "Widget")
        assert again is widget_cls
        assert _hits_misses(cache) == (1, 1)

    def test_nested_qualname(self, registry):
        cache = CodeCache(registry)
        inner = cache.resolve("cb://widgets", "widgets", "Outer.Inner")
        assert inner.tag == "nested"

    def test_resolved_class_is_stamped_for_reshipping(self, registry):
        from repro.codeshipping.codebase import SHIPPING_STAMP

        cache = CodeCache(registry)
        cls = cache.resolve("cb://widgets", "widgets", "Widget")
        assert getattr(cls, SHIPPING_STAMP) == ("cb://widgets", "widgets", "Widget")

    def test_missing_qualname_raises(self, registry):
        cache = CodeCache(registry)
        with pytest.raises(CodeShippingError):
            cache.resolve("cb://widgets", "widgets", "Ghost")

    def test_non_class_target_raises(self, registry):
        cache = CodeCache(registry)
        with pytest.raises(CodeShippingError):
            cache.resolve("cb://widgets", "widgets", "NOT_A_CLASS")

    def test_unknown_codebase_raises(self, registry):
        cache = CodeCache(registry)
        with pytest.raises(CodeShippingError):
            cache.resolve("cb://ghost", "widgets", "Widget")

    def test_per_cache_isolation(self, registry):
        """Two caches (two 'servers') each resolve their own class object."""
        a, b = CodeCache(registry), CodeCache(registry)
        cls_a = a.resolve("cb://widgets", "widgets", "Widget")
        cls_b = b.resolve("cb://widgets", "widgets", "Widget")
        assert cls_a is not cls_b
        assert _hits_misses(a)[1] == _hits_misses(b)[1] == 1


class TestFetchObserver:
    def test_observer_called_on_miss_only(self, registry):
        fetches = []
        cache = CodeCache(registry, fetch_observer=lambda cb, mod, n: fetches.append((cb, mod, n)))
        cache.resolve("cb://widgets", "widgets", "Widget")
        cache.resolve("cb://widgets", "widgets", "Outer")
        assert len(fetches) == 1
        cb, mod, nbytes = fetches[0]
        assert (cb, mod) == ("cb://widgets", "widgets")
        assert nbytes == len(registry.get("cb://widgets").source_of("widgets").encode())


class TestEagerInstall:
    def test_install_source_preempts_fetch(self, registry):
        empty_registry = CodeBaseRegistry()
        cache = CodeCache(empty_registry)
        cache.install_source("cb://widgets", "widgets", SOURCE)
        cls = cache.resolve("cb://widgets", "widgets", "Widget")
        assert cls.kind == "shipped"
        assert _hits_misses(cache)[1] == 0

    def test_install_is_idempotent(self, registry):
        cache = CodeCache(CodeBaseRegistry())
        cache.install_source("cb", "m", "class A: pass")
        cache.install_source("cb", "m", "class A: pass")
        assert cache.cached_modules() == [("cb", "m")]
