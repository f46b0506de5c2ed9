"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures; each prints its
table (run pytest with ``-s`` to see them) and records the headline
numbers in ``benchmark.extra_info`` so they land in the JSON output of
``pytest benchmarks/ --benchmark-only --benchmark-json=...``.
"""

import pytest


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def fig7_cells(table, task, regime):
    """``{runtime: row}`` for one task and power regime of a fig7 table."""
    return {r["runtime"]: r for r in table
            if r["task"] == task and r["regime"] == regime}
