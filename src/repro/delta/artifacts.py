"""Content-addressed artifact cache for update-preparation products.

The update server prepares several expensive per-release products —
bsdiff patches, LZSS-compressed deltas, ECDSA envelope signatures.  The
server's own LRU (:mod:`repro.core.server`) memoises by *version pair*,
which is exactly right within one server instance; this cache sits one
layer below and keys by *content*::

    key = sha256(old) ‖ sha256(new) ‖ params

so identical firmware bytes hit regardless of which campaign, server
instance, or version numbering produced them — re-running a 50-device
campaign, or standing up a second server over the same releases, pays
the bsdiff+LZSS cost exactly once.  ``params`` carries the product kind
and any generation parameters (e.g. ``b"bsdiff+lzss"``), giving each
product family its own key domain.

The cache is memory-bounded (LRU by stored payload bytes) and
thread-safe (the serve plane's signer threads share it).  A
``max_bytes`` of 0 disables storage entirely — every lookup misses and
the producer runs, which the tests use to prove campaign reports are
byte-identical with and without the cache.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = [
    "ArtifactCache",
    "ArtifactStats",
    "artifact_key",
    "DEFAULT_ARTIFACT_CACHE_BYTES",
    "shared_cache",
]

#: Default memory bound: enough for dozens of compressed firmware
#: deltas at the benchmark image sizes without letting a long release
#: chain grow the server without limit.
DEFAULT_ARTIFACT_CACHE_BYTES = 32 * 1024 * 1024


def artifact_key(old: bytes, new: bytes, params: bytes) -> bytes:
    """``sha256(old) ‖ sha256(new) ‖ params`` — the cache's content key.

    ``params`` is appended verbatim (not hashed): it is short, and
    keeping it readable makes cache introspection and key-domain
    separation obvious.
    """
    return (hashlib.sha256(old).digest()
            + hashlib.sha256(new).digest()
            + params)


@dataclass
class ArtifactStats:
    """Counters mirroring the server-stats style (JSON-ready)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stored_bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stored_bytes": self.stored_bytes,
        }


@dataclass
class _Entry:
    value: bytes
    cost: int = field(init=False)

    def __post_init__(self) -> None:
        self.cost = len(self.value)


class ArtifactCache:
    """Memory-bounded, content-addressed LRU over prepared artifacts."""

    def __init__(self,
                 max_bytes: int = DEFAULT_ARTIFACT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = max_bytes
        self.stats = ArtifactStats()
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- the core protocol -----------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """The cached artifact for ``key``, or None (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def put(self, key: bytes, value: bytes) -> bytes:
        """Store ``value`` under ``key`` (evicting LRU past the bound)."""
        value = bytes(value)
        if not self.enabled or len(value) > self.max_bytes:
            return value
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.stored_bytes -= old.cost
            entry = _Entry(value)
            self._entries[key] = entry
            self.stats.stored_bytes += entry.cost
            while self.stats.stored_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.stats.stored_bytes -= evicted.cost
                self.stats.evictions += 1
        return value

    def get_or_create(self, old: bytes, new: bytes, params: bytes,
                      producer: Callable[[], bytes]) -> bytes:
        """The artifact for ``(old, new, params)``, producing on miss.

        The producer runs *outside* the entry lock — concurrent misses
        on different keys proceed in parallel; concurrent misses on the
        same key may both produce, but products are deterministic so
        either result is correct and the second ``put`` is idempotent.
        """
        key = artifact_key(old, new, params)
        cached = self.get(key)
        if cached is not None:
            return cached
        return self.put(key, producer())


_shared: Optional[ArtifactCache] = None
_shared_lock = threading.Lock()


def shared_cache() -> ArtifactCache:
    """The process-wide cache instance (created on first use).

    Servers default to a private cache so benchmark configurations stay
    independent; passing ``shared_cache()`` explicitly opts a server
    into cross-campaign artifact reuse.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = ArtifactCache()
        return _shared
