"""Version-keyed memoization for the trainer's round evaluation.

The coordinator's train/test evaluation would re-run every round even
when a degraded round carried the previous global model forward
unchanged (:class:`EvalCache`).  The cache is deliberately tiny and
explicit — no weak references, no global registries — so its behaviour
stays auditable in tests via the ``engine.cache_hits{cache=eval}``
counter its caller maintains.
"""

from __future__ import annotations

from typing import Any

__all__ = ["EvalCache"]


class EvalCache:
    """Memoizes one evaluation result keyed by a version counter.

    The coordinator bumps ``parameters_version`` only when aggregation
    actually changes the global model; a skipped/degraded round leaves
    it untouched, so the previous round's ``(train_loss, test_accuracy)``
    is still exact and the full-dataset forward passes can be skipped.
    """

    def __init__(self) -> None:
        self._version: int | None = None
        self._value: Any = None
        self.hits = 0
        self.misses = 0

    def lookup(self, version: int) -> Any | None:
        """Return the cached value for ``version``, or ``None``."""
        if self._version == version:
            self.hits += 1
            return self._value
        self.misses += 1
        return None

    def store(self, version: int, value: Any) -> None:
        self._version = version
        self._value = value

    def clear(self) -> None:
        self._version = None
        self._value = None

