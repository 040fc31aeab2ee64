"""Deterministic random-number streams.

Simulations need independent randomness per concern (topology generation,
worker speeds, scheduler tie-breaking, ...) that stays stable when other
concerns consume more or fewer draws.  :class:`RngRegistry` derives one
:class:`random.Random` stream per *name* from a master seed, so adding a
new consumer never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``master_seed``.

    Uses SHA-256 rather than Python's salted ``hash`` so the derivation
    is identical across interpreter runs and platforms.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A family of named, independent random streams.

    >>> rngs = RngRegistry(42)
    >>> rngs.stream("topology").random() == RngRegistry(42).stream("topology").random()
    True
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream
