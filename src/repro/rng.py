"""Deterministic random-number plumbing.

Every stochastic component in the library draws from a named stream handed
out by :class:`RngHub`. A hub is created from a single integer seed; each
named stream is an independent ``numpy`` PCG64 generator derived from the
hub seed and the stream name. This gives two properties the experiments
rely on:

* **Bit-reproducibility** — the same scenario seed always produces the
  same blockchain, the same walks, and therefore the same figures.
* **Stream independence** — adding draws to one subsystem (say, the move
  process) does not perturb any other subsystem's randomness, so results
  stay comparable across library versions that touch unrelated code.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from repro.digest import sha256

__all__ = ["RngHub", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 over the seed/name pair so that distinct names give
    uncorrelated child seeds and the mapping is stable across platforms
    and Python versions (unlike ``hash()``).
    """
    digest = sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngHub:
    """Fan-out of named, independent random generators from one seed.

    >>> hub = RngHub(42)
    >>> moves = hub.stream("moves")
    >>> growth = hub.stream("growth")
    >>> moves is hub.stream("moves")   # streams are cached
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.Generator(
                np.random.PCG64(derive_seed(self.seed, name))
            )
            self._streams[name] = generator
        return generator

    def fork(self, name: str) -> "RngHub":
        """Return a child hub whose streams are independent of this hub's.

        Useful when a subsystem itself needs several internal streams
        (e.g. the simulation engine forks one hub per scenario phase).
        """
        return RngHub(derive_seed(self.seed, f"fork:{name}"))

    def names(self) -> Iterator[str]:
        """Iterate over the stream names created so far."""
        return iter(sorted(self._streams))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngHub(seed={self.seed}, streams={sorted(self._streams)})"
