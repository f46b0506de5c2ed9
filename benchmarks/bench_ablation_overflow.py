"""A1 — ablation: overflow-aware computation (ACE Algorithm 1).

With scaling enabled ("stage" or the paper-literal "prescale") the BCM
pipeline produces accurate results with zero saturation; disabling it
("none") corrupts the outputs — the motivation for Algorithm 1.  The
``ablation-overflow`` study runs MNIST on 32 samples.
"""

from repro.study import run_study

from benchmarks.conftest import run_once


def test_ablation_overflow(benchmark):
    run = run_once(benchmark, lambda: run_study("ablation-overflow"))
    print()
    print(run.render())
    rows = {r["mode"]: r for r in run.table}
    assert rows["stage"]["overflow_events"] == 0
    assert rows["prescale"]["overflow_events"] == 0
    assert rows["none"]["overflow_events"] > 100
    assert rows["stage"]["max_rel_error"] < 0.10
    assert rows["none"]["max_rel_error"] > 3 * rows["stage"]["max_rel_error"]
    assert rows["stage"]["argmax_agreement"] >= rows["none"]["argmax_agreement"]
    for mode, row in rows.items():
        benchmark.extra_info[f"{mode}_overflows"] = row["overflow_events"]
        benchmark.extra_info[f"{mode}_err"] = round(row["max_rel_error"], 4)
