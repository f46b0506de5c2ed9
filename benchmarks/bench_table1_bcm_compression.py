"""T1 — Table I: BCM compression of a 512x512 FC layer.

Regenerates the storage-reduction table; the reductions are arithmetic
identities so the benchmark also asserts exact agreement with the paper.
"""

from repro.experiments import PAPER_TABLE1
from repro.study import run_study

from benchmarks.conftest import run_once


def test_table1_bcm_compression(benchmark):
    run = run_once(benchmark, lambda: run_study("table1"))
    print()
    print(run.render())
    by_block = {r["block_size"]: r for r in run.table}
    for block, (comp_bytes, reduction) in PAPER_TABLE1.items():
        assert by_block[block]["compressed_bytes"] == comp_bytes
        assert abs(by_block[block]["reduction_pct"] / 100 - reduction) < 1e-3
        benchmark.extra_info[f"block_{block}_bytes"] = comp_bytes
