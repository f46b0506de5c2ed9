"""Layer timers for the traced run, installed only in the traced process.

    python3 perfbench/layers.py OUT.json <repro CLI arguments...>

imports ``repro.cli`` (timing the import and the study-registry load),
wraps public calls into each layer with timers, runs
``repro.cli.main(arguments)`` and writes what the timers saw to
``OUT.json``::

    {"import_s": 0.41, "exit": 0,
     "timers": {"fleet.run": [calls, seconds], ...}}

Nothing here changes what the program computes: every wrapper calls the
original and returns its result unchanged.  ``perfbench/run.py --trace 1``
starts the CLI workloads and the ``repro serve`` of the serve-mix workload
through this file; the untraced runs never import it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

_LOCK = threading.Lock()
_LOCAL = threading.local()
#: timer name -> [calls, seconds]
TIMERS: dict = {}

#: Short names of the power-trace classes, used in the power.* split.
TRACE_NAMES = {
    "ConstantTrace": "constant",
    "SquareWaveTrace": "square",
    "StochasticRFTrace": "rf",
    "SolarTrace": "solar",
    "EmpiricalTrace": "empirical",
}

#: Scenario runtime names as they appear in metric names.
RUNTIME_NAMES = {
    "BASE": "base",
    "SONIC": "sonic",
    "TAILS": "tails",
    "ACE": "ace",
    "ACE+FLEX": "ace-flex",
}


def _add(names, seconds: float) -> None:
    with _LOCK:
        for name in names:
            rec = TIMERS.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += seconds


def _timed(fn, names_of):
    """``fn`` wrapped so each call adds its wall time to ``names_of(...)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _add(names_of(*args, **kwargs), time.perf_counter() - t0)

    return wrapper


def _fixed(*names):
    return lambda *_a, **_k: names


def _scenario_names(scenario, *_a, **_k):
    runtime = RUNTIME_NAMES.get(scenario.runtime, "other")
    return ("fleet.scenario", f"fleet.scenario.{runtime}",
            f"fleet.scenario.{scenario.trace.kind}")


def _trace_names(prefix: str):
    def names(self, *_a, **_k):
        kind = TRACE_NAMES.get(type(self).__name__, "other")
        return (prefix, f"{prefix}.{kind}")

    return names


def _outermost(fn, names_of, flag: str):
    """``_timed``, recording only the outermost ``flag`` call per thread."""
    timed = _timed(fn, names_of)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if getattr(_LOCAL, flag, False):
            return fn(*args, **kwargs)
        setattr(_LOCAL, flag, True)
        try:
            return timed(*args, **kwargs)
        finally:
            setattr(_LOCAL, flag, False)

    return wrapper


def _wrap_trace_class(cls) -> None:
    """Count and time the scalar and batched energy calls of one class.

    Only the outermost call of each kind on a thread is recorded, so a
    method that delegates to its base or to ``energy_batch_trusted`` is
    not counted twice.  Scalar calls made by the looping
    ``PowerTrace.energy_batch`` do count, since each one is a scalar
    evaluation.
    """
    for attr, prefix in (("energy", "power.energy"),
                         ("energy_batch", "power.batch"),
                         ("energy_batch_trusted", "power.batch")):
        fn = cls.__dict__.get(attr)
        if fn is not None:
            setattr(cls, attr, _outermost(fn, _trace_names(prefix), prefix))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> None:
    """Wrap the public entry points of each layer (idempotent per process)."""
    import repro.power  # noqa: F401 - registers every trace class
    from repro.fleet import runner
    from repro.power.traces import PowerTrace
    from repro.sim import fastsim
    from repro.study import get_study, study_names
    from repro.study.table import ResultTable

    runner.FleetRunner.prepare_models = _timed(
        runner.FleetRunner.prepare_models, _fixed("fleet.model_prep"))
    runner.FleetRunner.run = _timed(
        runner.FleetRunner.run, _fixed("fleet.run"))
    runner.execute_scenario = _timed(runner.execute_scenario, _scenario_names)
    fastsim.compile_program = _timed(
        fastsim.compile_program, _fixed("sim.compile"))
    for cls in {PowerTrace, *_subclasses(PowerTrace)}:
        _wrap_trace_class(cls)
    ResultTable.to_json = _timed(ResultTable.to_json, _fixed("cli.to_json"))
    for name in study_names():
        study = get_study(name)
        # Studies are frozen dataclasses; their callbacks are plain
        # fields, so the wrapped callable replaces the field in place.
        for field, timer in (("scenarios", "study.expand"),
                             ("collect", "study.collect"),
                             ("render", "cli.render")):
            fn = getattr(study, field)
            if fn is not None:
                object.__setattr__(study, field, _timed(fn, _fixed(timer)))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: layers.py OUT.json <repro arguments...>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import repro.cli
    from repro.study import study_names

    study_names()
    import_s = time.perf_counter() - t0
    install()
    code = repro.cli.main(cli_args)
    with _LOCK:
        payload = {"import_s": import_s, "exit": code, "timers": dict(TIMERS)}
    tmp = out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
