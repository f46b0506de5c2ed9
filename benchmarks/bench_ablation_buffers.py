"""A2 — ablation: circular-buffer convolution (Figure 5).

ACE's two ping-pong buffers versus one buffer per layer: the memory
saving that lets deep models fit beside their weights in FRAM.
"""

from repro.study import run_study

from benchmarks.conftest import run_once


def test_ablation_buffers(benchmark):
    run = run_once(benchmark, lambda: run_study("ablation-buffers"))
    print()
    print(run.render())
    for row in run.table:
        task = row["task"]
        assert row["circular_bytes"] <= row["per_layer_bytes"]
        assert row["saving_pct"] > 25.0, f"{task}: expected a real saving"
        benchmark.extra_info[f"{task}_saving_pct"] = round(row["saving_pct"], 1)
