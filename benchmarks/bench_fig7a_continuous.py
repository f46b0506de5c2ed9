"""F7a — Figure 7(a): inference time under continuous power.

Runs the ``fig7`` study (BASE / SONIC / TAILS / ACE / ACE+FLEX on each
task) and checks the paper's orderings: ACE+FLEX fastest, SONIC slowest,
speedups in band.
"""

from repro.experiments import PAPER_FIG7A_SPEEDUPS, TASKS
from repro.study import run_study

from benchmarks.conftest import fig7_cells, run_once


def test_fig7a_continuous(benchmark):
    run = run_once(benchmark, lambda: run_study("fig7"))
    print()
    print(run.render())
    for task in TASKS:
        cont = fig7_cells(run.table, task, "continuous")
        flex = cont["ACE+FLEX"]["wall_ms"]
        for name in ("BASE", "SONIC", "TAILS"):
            speedup = cont[name]["wall_ms"] / flex
            assert speedup > 1.3, f"{task}/{name} too close to ACE+FLEX"
            benchmark.extra_info[f"{task}_{name}_speedup"] = round(speedup, 2)
            benchmark.extra_info[f"{task}_{name}_paper"] = (
                PAPER_FIG7A_SPEEDUPS[task][name]
            )
        assert cont["SONIC"]["wall_ms"] == max(
            r["wall_ms"] for r in cont.values()
        )
