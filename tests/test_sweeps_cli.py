"""Tests for the design-space sweep studies and the command-line interface.

The sweep claims are checked on the registered ``sweep-*`` study grids at
seed 0: the same tables ``repro run sweep-<axis>`` prints.
"""

import pytest

from repro.cli import build_parser, main
from repro.study import ResultTable, get_study, run_study


@pytest.fixture(scope="module")
def sweeps():
    return {name: run_study(name, workers=1).table
            for name in ("sweep-capacitor", "sweep-power", "sweep-trace")}


def _completed(table, runtime):
    """{axis value: completed} for one runtime of a capacitor/power sweep."""
    return {r["axis"]: r["completed"] for r in table
            if r["runtime"] == runtime}


class TestSweeps:
    def test_capacitor_sweep_crossover(self, sweeps):
        """With enough storage even uncheckpointed runtimes complete; with
        little storage they DNF — the completion boundary must exist."""
        ace = _completed(sweeps["sweep-capacitor"], "ACE")
        assert ace == {22.0: False, 47.0: False, 100.0: False,
                       330.0: True, 1000.0: True}

    def test_flex_survives_all_capacitors(self, sweeps):
        for name in ("sweep-capacitor", "sweep-power"):
            flex = _completed(sweeps[name], "ACE+FLEX")
            assert len(flex) == 5 and all(flex.values()), (name, flex)

    def test_power_sweep_strong_supply_rescues_base(self, sweeps):
        ace = _completed(sweeps["sweep-power"], "ACE")
        assert ace == {1.0: False, 2.0: False, 5.0: False,
                       12.0: True, 40.0: True}

    def test_trace_sweep_all_complete(self, sweeps):
        table = sweeps["sweep-trace"]
        assert table.column("trace") == ["square-wave", "bursty-rf",
                                         "solar-like"]
        assert all(table.column("completed"))

    def test_render_sweep(self):
        table = ResultTable((("axis", "float"), ("runtime", "str"),
                             ("completed", "bool"), ("wall_ms", "float"),
                             ("reboots", "int")))
        table.append(axis=1.0, runtime="ACE", completed=False, wall_ms=0.0,
                     reboots=0)
        table.append(axis=2.0, runtime="ACE", completed=True, wall_ms=100.0,
                     reboots=3)
        text = get_study("sweep-power").render(table)
        assert "DNF" in text and "100ms/3rb" in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        assert "{list,run,traces,stats,bench,serve,submit}" in \
            parser.format_help()
        for study in ("table1", "fig8", "overhead", "ablation-dma"):
            args = parser.parse_args(["run", study])
            assert args.command == "run" and args.study == study

    def test_fig7_task_choice(self):
        args = build_parser().parse_args(["run", "fig7", "--task", "har"])
        assert args.task == ["har"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7", "--task", "cifar"])

    def test_invalid_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_table1_main(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "93.75%" in out

    def test_fig8_main(self, capsys):
        assert main(["run", "fig8"]) == 0
        assert "BCM 128" in capsys.readouterr().out

    def test_sweep_trace_main(self, capsys):
        assert main(["run", "sweep-trace"]) == 0
        out = capsys.readouterr().out
        assert "square-wave" in out and "bursty-rf" in out
