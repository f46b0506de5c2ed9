"""F7c — Figure 7(c): per-component energy breakdown.

Checks the paper's energy claims: ACE+FLEX saves 6.1x/10.9x/6.25x vs
SONIC and 4.31x/5.26x/3.05x vs TAILS (we assert generous bands around the
orderings), and the LEA/DMA path shifts energy off the CPU.
"""

from repro.experiments import PAPER_FIG7C_SAVINGS, TASKS
from repro.study import run_study

from benchmarks.conftest import fig7_cells, run_once


def test_fig7c_energy_breakdown(benchmark):
    run = run_once(benchmark, lambda: run_study("fig7"))
    print()
    print(run.render())
    for task in TASKS:
        cont = fig7_cells(run.table, task, "continuous")
        flex_e = cont["ACE+FLEX"]["energy_mj"]
        sonic_saving = cont["SONIC"]["energy_mj"] / flex_e
        tails_saving = cont["TAILS"]["energy_mj"] / flex_e
        assert 4.0 <= sonic_saving <= 14.0
        assert 1.3 <= tails_saving <= 6.0
        benchmark.extra_info[f"{task}_sonic_saving"] = round(sonic_saving, 2)
        benchmark.extra_info[f"{task}_tails_saving"] = round(tails_saving, 2)
        benchmark.extra_info[f"{task}_paper"] = PAPER_FIG7C_SAVINGS[task]
        # The accelerated runtimes move energy off the CPU.
        assert cont["ACE+FLEX"]["cpu_mj"] < cont["SONIC"]["cpu_mj"]
        # LEA energy exists only for LEA-capable runtimes.
        assert cont["BASE"]["lea_mj"] == 0.0
        assert cont["ACE+FLEX"]["lea_mj"] > 0.0
