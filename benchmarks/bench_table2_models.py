"""T2 — Table II: train + compress the three models, report accuracy.

Runs the ``table2`` study on its default FAST profile (smaller synthetic
datasets / fewer epochs) so the benchmark completes in seconds;
``repro run table2 --full`` trains the FULL profile.
"""

from repro.study import run_study

from benchmarks.conftest import run_once


def test_table2_models(benchmark):
    run = run_once(benchmark, lambda: run_study("table2"))
    print()
    print(run.render())
    for row in run.table:
        task = row["task"]
        # Compression + quantization must retain useful accuracy.
        assert row["quantized_acc"] > 0.5
        assert row["quantized_acc"] >= row["float_acc"] - 0.15
        benchmark.extra_info[f"{task}_quantized_acc"] = round(
            row["quantized_acc"], 4
        )
        benchmark.extra_info[f"{task}_paper_acc"] = row["paper_acc"]
