"""Report helper for the paper benchmarks (``test_bench_*.py``).

A plain module rather than a ``conftest`` function: tier-1 collects the
fast paper tests together with ``tests/``, whose own ``conftest``
modules would shadow ``from conftest import ...``.
"""

from __future__ import annotations


def emit(report: str) -> None:
    """Print a paper-comparison report block (visible with ``-s``)."""
    print("\n" + report + "\n")
