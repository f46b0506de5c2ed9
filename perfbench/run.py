#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, with a traced per-layer split.

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 20
    python3 perfbench/run.py --workload fleet-grid --seed 1 --trace 1

Workloads (see perfbench/README.md for why each exists):

* ``fig7-cold``, ``fleet-grid``, ``fleet-corpus`` — one client runs
  ``repro run <study> --seed S --json OUT`` in a fresh process per
  operation, in default (parallel) mode, alternating ``--engine fast``
  with the default reference engine in order-flipped pairs.
* ``serve-mix`` — passes of 102 jobs, each on a fresh ``repro serve
  --workers 2`` process: two closed-loop HTTP clients submit a seeded
  shuffle over every registered study except the ``fleet`` grid, a third
  of the submissions repeating an earlier spec.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` makes the separate traced run: the per-layer split from
timers installed by ``perfbench/layers.py`` and the program's own
``repro.obs`` snapshot.  Every table's exact bytes are checked (fast ==
reference, duplicate == primary, and the digests recorded in
``perfbench/digests.json``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
LAYERS = HERE / "layers.py"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from checks import FAST, REF  # noqa: E402

PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))

#: Fresh-process set-up: import the CLI and load the study registry.
SETUP_ARGV = [PY, "-c", "import repro.cli\n"
              "from repro.study import study_names\nstudy_names()"]
SETUP_REPS = 6
#: Engine pairs every CLI run makes, however short ``--seconds`` is.
MIN_PAIRS = 2

#: CLI workload -> arguments after ``repro run``.
CLI_WORKLOADS = {
    "fig7-cold": ["fig7"],
    "fleet-grid": ["fleet"],
    "fleet-corpus": ["fleet", "--corpus"],
}
WORKLOADS = (*CLI_WORKLOADS, "serve-mix")

#: serve-mix studies: (name, profile fields varied, engine-aware,
#: fleet-executed).  "tasks" studies get one spec per task and seed.
SERVE_STUDIES = (
    ("table1", (), False, False),
    ("table2", ("seed",), False, False),
    ("fig7", ("tasks", "seed"), True, True),
    ("fig8", ("seed",), True, False),
    ("overhead", ("tasks", "seed"), True, True),
    ("ablation-overflow", ("tasks", "seed"), False, False),
    ("ablation-buffers", ("tasks", "seed"), False, False),
    ("ablation-dma", ("tasks", "seed"), False, False),
    ("ablation-vwarn", ("tasks", "seed"), False, False),
    ("ablation-compression", ("tasks", "seed"), False, False),
    ("sweep-capacitor", ("tasks", "seed"), True, True),
    ("sweep-power", ("tasks", "seed"), True, True),
    ("sweep-trace", ("tasks", "seed"), True, True),
)
SERVE_TASKS = ("mnist", "har", "okg")
#: Profile seeds per task in one pass; "seed"-only studies get as many
#: seeds as "tasks" studies get specs, except table2, which trains models
#: for most of a second and gets one HAR spec per pass.
SEEDS_PER_TASK = 2
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_SETUP_REPS = 3
JOB_TIMEOUT_S = 120.0

END_TO_END = {
    "run_fast_s": "s",
    "run_ref_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

RUNTIMES = ("base", "sonic", "tails", "ace", "ace-flex")
SUPPLIES = ("mains", "square", "rf", "solar", "corpus")
TRACE_CLASSES = ("square", "rf", "solar", "empirical")


def _per_layer_units() -> dict:
    units = {
        "cli.import_s": "s",
        "cli.output_s": "s",
        "study.expand_s": "s",
        "study.collect_s": "s",
        "fleet.model_prep_s": "s",
        "fleet.model_builds": "count",
        "fleet.run_s": "s",
        "fleet.run_s_ref": "s",
        "fleet.scenario_busy_s": "s",
        "fleet.parallel_efficiency": "ratio",
    }
    units.update({f"fleet.scenario_s.{r}": "s" for r in RUNTIMES})
    units.update({f"fleet.scenario_s.{k}": "s" for k in SUPPLIES})
    units.update({
        "fleet.worker_lost": "count",
        "fleet.respawns": "count",
        "fleet.degraded_serial": "count",
        "sim.compiles": "count",
        "sim.compile_hit_ratio": "ratio",
        "sim.compile_s": "s",
        "sim.replay_s": "s",
        "sim.sense_s": "s",
        "sim.compute_s": "s",
        "sim.events": "count",
        "sim.replay_us_per_event": "us",
        "sim.dnf": "count",
        "power.energy_calls": "count",
        "power.energy_s": "s",
        "power.batch_calls": "count",
        "power.energy_calls_ref": "count",
        "power.energy_s_ref": "s",
    })
    for cls in TRACE_CLASSES:
        units[f"power.energy_calls.{cls}"] = "count"
        units[f"power.energy_s.{cls}"] = "s"
        units[f"power.batch_calls.{cls}"] = "count"
    units.update({
        "kernels.plan_builds": "count",
        "kernels.plan_hit_ratio": "ratio",
        "kernels.plan_build_s": "s",
        "kernels.execute_s": "s",
        "store.puts": "count",
        "store.flushes": "count",
        "store.flush_s": "s",
        "store.table_hits": "count",
        "store.table_misses": "count",
        "serve.executions": "count",
        "serve.dedup_hits": "count",
        "serve.dedup_ratio": "ratio",
        "serve.queue_wait_s": "s",
        "serve.exec_s": "s",
        "serve.http_overhead_s": "s",
        "serve.retried": "count",
        "serve.jobs_failed": "count",
        "obs.trace_overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


class Outcome:
    """What one benchmark invocation measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        #: digests to store with --record-digests (per engine, or per pass)
        self.recorded: dict = {}
        #: a Figure 7 table whose paper_err the report prints
        self.paper_table = b""

    def fold(self, failed: int, notes) -> None:
        self.failed += failed
        self.notes.extend(notes)


# -- processes ----------------------------------------------------------------


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` with ``wait4``; return (exit code, peak RSS in MB).

    The RSS is this process's own (and its reaped children's) peak, as
    the kernel reports it at reap time.  A process still running after
    ``timeout`` seconds is killed.
    """
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def timed_run(argv, log: Path) -> dict:
    """Run one process to exit; its wall time (spawn to exit) and RSS."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=ENV, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, rss = reap(proc, timeout=170.0)
        wall = time.perf_counter() - t0
    return {"exit": code, "wall": wall, "rss": rss}


def measure_setup(work: Path, reps: int) -> list:
    """``reps`` timed fresh-process set-ups (spawn to registry loaded)."""
    return [timed_run(SETUP_ARGV, work / "setup.log")["wall"]
            for _ in range(reps)]


def read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


# -- CLI workloads ------------------------------------------------------------


def cli_op(workload: str, seed: int, engine: str, out: Path, work: Path,
           extra=(), prefix=None) -> dict:
    argv = ["run", *CLI_WORKLOADS[workload], "--seed", str(seed),
            "--json", str(out), *extra]
    if engine == FAST:
        argv += ["--engine", FAST]
    argv = (prefix or [PY, "-m", "repro"]) + argv
    if out.exists():
        out.unlink()
    op = timed_run(argv, work / "op.log")
    op["engine"] = engine
    data = out.read_bytes() if op["exit"] == 0 and out.is_file() else b""
    if op["exit"] == 0 and not data:
        op["exit"] = -1  # exited cleanly without writing its table
    op["digest"] = checks.digest(data)
    op["workers"] = checks.table_workers(data)
    op["bytes"] = data
    return op


def print_paper_err(table: bytes) -> None:
    err, used, skipped = checks.paper_err(table)
    print(f"  paper_err = {err:.4f} (simulated; mean |ln(sim/paper)| over "
          f"{used} Figure 7 ratios, {skipped} DNF baseline(s) skipped) — "
          "the model's error against the paper, not against hardware")


def run_cli(workload: str, seed: int, seconds: float, work: Path,
            digests: dict) -> Outcome:
    res = Outcome()
    # The first import in a fresh checkout compiles bytecode: untimed.
    measure_setup(work, 1)
    # Half the set-ups before the loop, half after, so they sample the
    # same stretch of host time as the operations.
    setup = measure_setup(work, SETUP_REPS // 2)
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    pair = 0
    while pair < MIN_PAIRS or time.perf_counter() < deadline:
        order = (FAST, REF) if pair % 2 == 0 else (REF, FAST)
        for engine in order:
            op = cli_op(workload, seed, engine, work / "table.json", work)
            op["pair"] = pair
            if op["exit"] != 0:
                res.notes.append((work / "op.log").read_text()[-2000:])
            ops.append(op)
        pair += 1
    loop_s = time.perf_counter() - start
    setup += measure_setup(work, SETUP_REPS - len(setup))
    res.attempted = len(ops)
    res.fold(*checks.check_cli_ops(ops, workload, seed, digests))
    walls = {e: [op["wall"] for op in ops if op["engine"] == e]
             for e in (FAST, REF)}
    every = [op["wall"] for op in ops]
    res.metrics = {
        "run_fast_s": (statistics.median(walls[FAST]), walls[FAST]),
        "run_ref_s": (statistics.median(walls[REF]), walls[REF]),
        "jobs_per_s": (len(ops) / loop_s,
                       f"{len(ops)} runs in {loop_s:.1f} s"),
        "job_p50_s": (statistics.median(every), every),
        "job_p90_s": (checks.quantile(every, 0.9),
                      f"90th percentile of {len(every)}"),
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (max(op["rss"] for op in ops),
                        f"largest of {len(ops)} runs"),
    }
    res.recorded = {e: next(({"sha256": op["digest"], "workers": op["workers"]}
                             for op in ops if op["engine"] == e), None)
                    for e in (FAST, REF)}
    if workload == "fig7-cold":
        res.paper_table = ops[0]["bytes"]
    return res


def _t(timers: dict, name: str, field: int = 1) -> float:
    return timers.get(name, [0, 0.0])[field]


def _counter(snap: dict, name: str) -> int:
    return int(snap.get("counters", {}).get(name, 0))


def _span_s(snap: dict, name: str) -> float:
    return snap.get("durations", {}).get(f"span.{name}", {}).get(
        "total_ns", 0) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _events(snap: dict) -> int:
    """Simulated checkpoint-cycle events: reboots + checkpoints + restores."""
    return sum(_counter(snap, f"machine.{c}")
               for c in ("reboots", "checkpoints", "restores"))


def layer_split(timers: dict, import_s: float, snap: dict, counts: dict,
                timers_ref: dict) -> dict:
    """The per-layer metrics shared by every workload.

    ``timers``/``snap`` come from the traced run (wrapper timers and its
    obs snapshot); ``counts`` is the snapshot whose counters are exact for
    the workload's own execution mode; ``timers_ref`` is the reference
    engine's traced run (empty when the workload has none).
    """
    m = {
        "cli.import_s": import_s,
        "cli.output_s": _t(timers, "cli.render") + _t(timers, "cli.to_json"),
        "study.expand_s": _t(timers, "study.expand"),
        "study.collect_s": _t(timers, "study.collect"),
        "fleet.model_prep_s": _t(timers, "fleet.model_prep"),
        "fleet.model_builds": _counter(counts, "fleet.model_cache.misses"),
        "fleet.run_s": _t(timers, "fleet.run"),
        "fleet.run_s_ref": _t(timers_ref, "fleet.run"),
        "fleet.scenario_busy_s": _t(timers, "fleet.scenario"),
    }
    dispatch = _span_s(counts, "fleet.dispatch")
    if dispatch:
        workers = counts.get("gauges", {}).get("fleet.workers", 1.0)
        m["fleet.parallel_efficiency"] = _ratio(
            _span_s(counts, "fleet.scenario"), dispatch * workers)
    else:
        m["fleet.parallel_efficiency"] = _ratio(
            _t(timers, "fleet.scenario"), _t(timers, "fleet.run"))
    for r in RUNTIMES:
        m[f"fleet.scenario_s.{r}"] = _t(timers, f"fleet.scenario.{r}")
    for k in SUPPLIES:
        m[f"fleet.scenario_s.{k}"] = _t(timers, f"fleet.scenario.{k}")
    hits = _counter(counts, "sim.program_cache.hits")
    misses = _counter(counts, "sim.program_cache.misses")
    replay = _span_s(snap, "sim.replay")
    m.update({
        "fleet.worker_lost": _counter(counts, "fleet.worker_lost"),
        "fleet.respawns": _counter(counts, "fleet.respawns"),
        "fleet.degraded_serial": _counter(counts, "fleet.degraded_serial"),
        "sim.compiles": misses,
        "sim.compile_hit_ratio": _ratio(hits, hits + misses),
        "sim.compile_s": _t(timers, "sim.compile"),
        "sim.replay_s": replay,
        "sim.sense_s": _span_s(snap, "session.sense"),
        "sim.compute_s": _span_s(snap, "session.compute"),
        "sim.events": _events(counts),
        "sim.replay_us_per_event": _ratio(replay * 1e6, _events(snap)),
        "sim.dnf": _counter(counts, "machine.dnf"),
        "power.energy_calls": _t(timers, "power.energy", 0),
        "power.energy_s": _t(timers, "power.energy"),
        "power.batch_calls": _t(timers, "power.batch", 0),
        "power.energy_calls_ref": _t(timers_ref, "power.energy", 0),
        "power.energy_s_ref": _t(timers_ref, "power.energy"),
    })
    for cls in TRACE_CLASSES:
        m[f"power.energy_calls.{cls}"] = _t(timers, f"power.energy.{cls}", 0)
        m[f"power.energy_s.{cls}"] = _t(timers, f"power.energy.{cls}")
        m[f"power.batch_calls.{cls}"] = _t(timers, f"power.batch.{cls}", 0)
    plan_hits = sum(_counter(counts, f"kernels.{k}_plan.hits")
                    for k in ("fft", "rfft", "bcm"))
    plan_misses = sum(_counter(counts, f"kernels.{k}_plan.misses")
                      for k in ("fft", "rfft", "bcm"))
    m.update({
        "kernels.plan_builds": plan_misses,
        "kernels.plan_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "kernels.plan_build_s": _span_s(snap, "kernels.plan_build"),
        "kernels.execute_s": _span_s(snap, "kernels.execute"),
        "store.puts": _counter(counts, "store.puts"),
        "store.flushes": _counter(counts, "store.shard.flushes"),
        "store.flush_s": _span_s(counts, "store.shard.flush"),
        "store.table_hits": _counter(counts, "store.table.hits"),
        "store.table_misses": _counter(counts, "store.table.misses"),
        "serve.executions": _counter(counts, "serve.executions"),
        "serve.dedup_hits": _counter(counts, "serve.dedup_hits"),
        "serve.dedup_ratio": _ratio(_counter(counts, "serve.dedup_hits"),
                                    _counter(counts, "serve.jobs_submitted")),
        "serve.queue_wait_s": 0.0,
        "serve.exec_s": 0.0,
        "serve.http_overhead_s": 0.0,
        "serve.retried": _counter(counts, "serve.jobs_retried"),
        "serve.jobs_failed": _counter(counts, "serve.jobs_failed"),
    })
    return m


def trace_cli(workload: str, seed: int, work: Path, digests: dict) -> Outcome:
    """The traced run of one CLI workload (fast engine unless noted).

    1. serial, untraced: the baseline for ``obs.trace_overhead_s``;
    2. serial, wrapper timers + obs: every per-layer time;
    3. serial reference engine, wrapper timers: the ``*_ref`` twins;
    4. default mode, obs only: counts exact across pool workers.
    """
    res = Outcome()
    shim = [PY, str(LAYERS)]
    serial = ["--serial"]
    plain = cli_op(workload, seed, FAST, work / "t0.json", work, serial)
    traced = cli_op(workload, seed, FAST, work / "t1.json", work,
                    [*serial, "--metrics", str(work / "m1.json")],
                    shim + [str(work / "timers1.json")])
    ref = cli_op(workload, seed, REF, work / "t2.json", work, serial,
                 shim + [str(work / "timers2.json")])
    default = cli_op(workload, seed, FAST, work / "t3.json", work,
                     ["--metrics", str(work / "m3.json")])
    ops = [plain, traced, ref, default]
    res.attempted = len(ops)
    for i, op in enumerate(ops):
        op["pair"] = 0 if i < 3 else 1
    # Serial tables match each other (obs on == off, fast == reference);
    # the default-mode table is checked against the recorded digest.
    failed, notes = checks.check_cli_ops(ops[:3], workload, seed, {})
    res.fold(failed, [n for n in notes if n.startswith("FAIL")])
    res.fold(*checks.check_cli_ops(ops[3:], workload, seed, digests))
    info = read_json(work / "timers1.json")
    res.metrics = layer_split(
        info.get("timers", {}), info.get("import_s", 0.0),
        read_json(work / "m1.json"), read_json(work / "m3.json"),
        read_json(work / "timers2.json").get("timers", {}))
    res.metrics["obs.trace_overhead_s"] = traced["wall"] - plain["wall"]
    return res


# -- serve-mix ----------------------------------------------------------------


def serve_jobs(seed: int, pass_index: int) -> list:
    """One pass: every distinct spec once, shuffled, plus a third repeats.

    ``seed`` and ``pass_index`` pick the profile seeds the program
    receives; the submission order is one fixed seeded shuffle.  Which
    jobs run side by side and which repeats coalesce moves served latency
    and peak memory far more than the profile seeds do, so every pass of
    every run submits in the same order.
    """
    rng = random.Random("serve-mix")
    first = (seed * 100 + pass_index) * SEEDS_PER_TASK * len(SERVE_TASKS)
    seeds = range(first, first + SEEDS_PER_TASK * len(SERVE_TASKS))
    distinct = []
    for study, fields, engine_aware, fleet in SERVE_STUDIES:
        if study == "table2":
            profiles = [{"tasks": ["har"], "seed": first}]
        elif "tasks" in fields:
            profiles = [{"tasks": [task], "seed": s}
                        for task in SERVE_TASKS
                        for s in seeds[:SEEDS_PER_TASK]]
        elif fields:
            profiles = [{"seed": s} for s in seeds]
        else:
            profiles = [None]
        for profile in profiles:
            spec = {"study": study}
            if profile is not None:
                spec["profile"] = profile
            if engine_aware:
                spec["engine"] = FAST
            if fleet:
                spec["parallel"] = False
            distinct.append(spec)
    rng.shuffle(distinct)
    jobs = list(distinct)
    for _ in range(len(distinct) // 2):
        i = rng.randrange(len(jobs))
        jobs.insert(rng.randrange(i + 1, len(jobs) + 1), jobs[i])
    return jobs


class Server:
    """One ``repro serve --port 0`` process, started and health-checked."""

    def __init__(self, work: Path, tag: str, *, traced: bool = False) -> None:
        from repro.serve import ServeClient

        self.out = work / f"store-{tag}"
        self.log = work / f"serve-{tag}.log"
        self.timers = work / f"timers-{tag}.json"
        argv = ["serve", "--port", "0", "--workers", str(SERVE_WORKERS),
                "--out", str(self.out)]
        if traced:
            argv = [PY, str(LAYERS), str(self.timers), *argv, "--metrics"]
        else:
            argv = [PY, "-m", "repro", *argv]
        self.rss = 0.0
        t0 = time.perf_counter()
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                argv, env=ENV, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                text=True)
        try:
            watchdog = threading.Timer(60.0, self.proc.kill)
            watchdog.start()
            try:
                line = self.proc.stdout.readline()
            finally:
                watchdog.cancel()
            if "listening on " not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.url = line.split("listening on ", 1)[1].split()[0]
            self.client = ServeClient(self.url, connect_wait_s=30.0)
            self.client.health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def stop(self) -> None:
        if self.proc.returncode is None:
            # Never polled, so the pid is ours until reaped: SIGINT makes
            # `repro serve` drain its queue and flush its store, then exit.
            self.proc.send_signal(signal.SIGINT)
            _, self.rss = reap(self.proc, timeout=60.0)
        self.proc.stdout.close()


def serve_pass(server: Server, jobs: list) -> list:
    """Run one pass with closed-loop clients; results in submission order."""
    from repro.serve import ServeClient

    results = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServeClient(server.url, timeout_s=JOB_TIMEOUT_S)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            spec = jobs[i]
            t0 = time.perf_counter()
            try:
                job = client.submit(spec)
                raw = client.result_json(job["id"], timeout=JOB_TIMEOUT_S)
                latency = time.perf_counter() - t0
                final = client.job(job["id"])
                ok = final["state"] == "done"
                results[i] = {"spec": spec, "ok": ok, "latency": latency,
                              "digest": checks.digest(raw), "job": final,
                              "bytes": raw if spec["study"] == "fig7" else b"",
                              "error": final.get("error")}
            except Exception as exc:  # a failed job, counted, not fatal
                results[i] = {"spec": spec, "ok": False, "digest": "",
                              "latency": time.perf_counter() - t0,
                              "job": {}, "bytes": b"", "error": repr(exc)}

    threads = [threading.Thread(target=client_loop)
               for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def check_pass(res: Outcome, results: list, seed: int, pass_index: int,
               digests: dict) -> None:
    res.attempted += len(results)
    failed, notes = checks.check_served(results)
    rec_failed, rec_notes = checks.check_pass_record(
        results, seed, pass_index, digests)
    res.fold(len(failed | rec_failed), notes + rec_notes)


def run_serve(seed: int, seconds: float, work: Path, digests: dict) -> Outcome:
    """Passes of the job mix, each on a fresh server, for ``seconds``."""
    res = Outcome()
    setup, rss, passes = [], [], []
    busy = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + seconds:
        server = Server(work, f"pass{len(passes)}")
        setup.append(server.setup_s)
        try:
            t0 = time.perf_counter()
            passes.append(serve_pass(server, serve_jobs(seed, len(passes))))
            busy += time.perf_counter() - t0
        finally:
            server.stop()
        rss.append(server.rss)
    while len(setup) < SERVE_SETUP_REPS:
        server = Server(work, f"setup{len(setup)}")
        setup.append(server.setup_s)
        server.stop()
    for p, results in enumerate(passes):
        check_pass(res, results, seed, p, digests)
    done = [r for results in passes for r in results if r["ok"]]
    every = [r["latency"] for r in done]
    # Per pass, the summed latency of its executed jobs on each engine: the
    # cost of running that part of the mix once.  Single jobs vary with
    # their profile seeds too much for a median over them to be steady.
    executed = {e: [sum(r["latency"] for r in results
                        if r["ok"] and not r["job"]["dedup"]
                        and r["spec"].get("engine", REF) == e)
                    for results in passes]
                for e in (FAST, REF)}
    res.metrics = {
        "run_fast_s": (statistics.median(executed[FAST]), executed[FAST]),
        "run_ref_s": (statistics.median(executed[REF]), executed[REF]),
        "jobs_per_s": (len(done) / busy, f"{len(done)} jobs in {busy:.1f} s"),
        "job_p50_s": (statistics.median(every), every),
        "job_p90_s": (checks.quantile(every, 0.9),
                      f"90th percentile of {len(every)}"),
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (max(rss), f"largest of {len(rss)} servers"),
    }
    res.recorded = {f"pass{p}": checks.study_digests(results)
                    for p, results in enumerate(passes)}
    res.paper_table = next((r["bytes"] for r in done if r["bytes"]), b"")
    return res


def trace_serve(seed: int, work: Path, digests: dict) -> Outcome:
    """One untraced pass, then the same pass under timers and obs."""
    res = Outcome()
    jobs = serve_jobs(seed, 0)
    walls = []
    for tag, traced in (("plain", False), ("traced", True)):
        server = Server(work, tag, traced=traced)
        try:
            t0 = time.perf_counter()
            results = serve_pass(server, jobs)
            walls.append(time.perf_counter() - t0)
            snap = server.client.metrics() if traced else {}
        finally:
            server.stop()
        check_pass(res, results, seed, 0, digests)
    info = read_json(server.timers)
    m = layer_split(info.get("timers", {}), info.get("import_s", 0.0),
                    snap, snap, {})
    executed = [r["job"] for r in results
                if r["ok"] and r["job"].get("started_s") is not None]
    m["serve.queue_wait_s"] = statistics.median(
        j["started_s"] - j["created_s"] for j in executed)
    m["serve.exec_s"] = statistics.median(
        j["finished_s"] - j["started_s"] for j in executed)
    m["serve.http_overhead_s"] = statistics.median(
        r["latency"] - (r["job"]["finished_s"] - r["job"]["created_s"])
        for r in results if r["ok"])
    m["obs.trace_overhead_s"] = walls[1] - walls[0]
    res.metrics = m
    return res


# -- entry point --------------------------------------------------------------


def report(workload: str, seed: int, res: Outcome, trace: bool) -> dict:
    metrics = {}
    print(f"perfbench {workload} seed={seed} "
          f"({'traced per-layer split' if trace else 'end to end'}):")
    if trace:
        for name, unit in PER_LAYER.items():
            value = res.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit}")
    else:
        for name, unit in END_TO_END.items():
            value, samples = res.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            note = (samples if isinstance(samples, str)
                    else checks.describe(samples))
            print(f"  {name} = {value:.4f} {unit} ({note})")
        ratio = res.failed / res.attempted if res.attempted else 1.0
        print(f"  fail_ratio = {ratio:.4f} share "
              f"({res.failed} of {res.attempted} operations)")
    if res.paper_table:
        print_paper_err(res.paper_table)
    for note in res.notes:
        print(f"  {note}")
    return metrics


def record_digests(workload: str, seed: int, res: Outcome) -> None:
    """Merge this run's table digests into perfbench/digests.json."""
    data = checks.load_digests()
    entry = data.setdefault(workload, {}).setdefault(str(seed), {})
    entry.update({k: v for k, v in res.recorded.items() if v is not None})
    with open(checks.DIGESTS_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"  recorded digests for {workload} seed {seed}")


def run_workload(args, workload: str) -> int:
    work = WORK_ROOT / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = checks.load_digests()
    try:
        if workload == "serve-mix":
            res = (trace_serve(args.seed, work, digests) if args.trace else
                   run_serve(args.seed, args.seconds, work, digests))
        elif args.trace:
            res = trace_cli(workload, args.seed, work, digests)
        else:
            res = run_cli(workload, args.seed, args.seconds, work, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    metrics = report(workload, args.seed, res, bool(args.trace))
    if args.record_digests and not args.trace:
        if res.failed:
            print("  not recording digests: the run has failures")
        else:
            record_digests(workload, args.seed, res)
    correct = res.failed == 0
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all four in turn (one result "
                         "line each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's table digests as the expected "
                         "ones (only when every other check passed)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, w) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
