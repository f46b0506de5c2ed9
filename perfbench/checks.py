"""Correctness checks and summary statistics for ``perfbench/run.py``.

Pure functions over digests and table bytes, kept apart from the process
plumbing so ``perfbench/selftest.py`` can exercise them directly.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

FAST, REF = "fast", "reference"


def digest(data: bytes) -> str:
    """Short content digest of one table's exact ``to_json`` bytes."""
    return hashlib.sha256(data).hexdigest()[:16]


def table_workers(data: bytes) -> Optional[str]:
    """The ``meta["workers"]`` a table carries (``None`` when it has none).

    The fleet study stamps its execution topology into the table, so its
    bytes (and digest) depend on the worker count; recorded digests are
    only compared when the worker counts agree.
    """
    try:
        return json.loads(data).get("meta", {}).get("workers")
    except ValueError:
        return None


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def recorded(digests: dict, workload: str, seed: int,
             key: str) -> Optional[dict]:
    """The recorded entry for (workload, seed, engine-or-pass), if any."""
    return digests.get(workload, {}).get(str(seed), {}).get(key)


def check_cli_ops(ops: List[dict], workload: str, seed: int,
                  digests: dict) -> Tuple[int, List[str]]:
    """Count the failed CLI operations of one run and explain each.

    Each op is ``{"engine", "pair", "exit", "digest", "workers"}``.  An op
    fails when its process exited non-zero, when its table differs from
    the recorded digest for (workload, seed, engine) at the same worker
    count, when a fast table differs from the reference table of its own
    pair, or when it differs from the first table of its engine in the
    run (same seed, so the same bytes).
    """
    notes: List[str] = []
    failed = 0
    ref_of_pair = {op["pair"]: op for op in ops
                   if op["engine"] == REF and op["exit"] == 0}
    first: Dict[str, str] = {}
    used_record = set()
    for op in ops:
        why = None
        if op["exit"] != 0:
            why = f"exit status {op['exit']}"
        else:
            rec = recorded(digests, workload, seed, op["engine"])
            if rec is not None and rec.get("workers") == op["workers"]:
                used_record.add(op["engine"])
                if rec["sha256"] != op["digest"]:
                    why = (f"table digest {op['digest']} != recorded "
                           f"{rec['sha256']}")
            ref = ref_of_pair.get(op["pair"])
            if why is None and op["engine"] == FAST and ref is not None \
                    and ref["digest"] != op["digest"]:
                why = "fast table bytes differ from the reference table"
            seen = first.setdefault(op["engine"], op["digest"])
            if why is None and seen != op["digest"]:
                why = "table bytes differ from this run's first table"
        if why is not None:
            failed += 1
            notes.append(f"FAIL {op['engine']} op in pair {op['pair']}: {why}")
    for engine in sorted({op["engine"] for op in ops} - used_record):
        notes.append(
            f"no recorded digest for {workload} seed {seed} {engine} at this "
            "worker count: checked fast == reference and repeats only")
    return failed, notes


def group_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def check_served(results: List[dict]) -> Tuple[Set[int], List[str]]:
    """Failed served jobs (by index): errors, and duplicates whose bytes
    differ from their primary's.

    Each result is ``{"spec", "ok", "digest"}`` in submission order; the
    first submission of a spec is its primary, and every later one must
    carry the primary's exact bytes.
    """
    failed: Set[int] = set()
    notes: List[str] = []
    primary: Dict[str, str] = {}
    for i, res in enumerate(results):
        if not res["ok"]:
            failed.add(i)
            notes.append(f"FAIL job {i} ({res['spec']['study']}): "
                         f"{res.get('error', 'failed')}")
            continue
        key = group_key(res["spec"])
        want = primary.setdefault(key, res["digest"])
        if want != res["digest"]:
            failed.add(i)
            notes.append(f"FAIL job {i} ({res['spec']['study']}): duplicate "
                         "bytes differ from its primary's")
    return failed, notes


def study_digests(results: List[dict]) -> Dict[str, str]:
    """One digest per study over its distinct specs' table digests."""
    per_study: Dict[str, Dict[str, str]] = {}
    for res in results:
        if res["ok"]:
            per_study.setdefault(res["spec"]["study"], {}).setdefault(
                group_key(res["spec"]), res["digest"])
    return {
        study: digest("\n".join(f"{k} {v}" for k, v in sorted(specs.items()))
                      .encode())
        for study, specs in per_study.items()
    }


def check_pass_record(results: List[dict], seed: int, pass_index: int,
                      digests: dict) -> Tuple[Set[int], List[str]]:
    """Compare one served pass with its recorded per-study digests.

    A study whose digest differs fails every one of its jobs in the pass.
    """
    rec = recorded(digests, "serve-mix", seed, f"pass{pass_index}")
    if rec is None:
        return set(), [f"no recorded digest for serve-mix seed {seed} pass "
                   f"{pass_index}: checked duplicates against primaries only"]
    failed: Set[int] = set()
    notes: List[str] = []
    for study, got in study_digests(results).items():
        if rec.get(study) != got:
            jobs = {i for i, r in enumerate(results)
                    if r["spec"]["study"] == study}
            failed |= jobs
            notes.append(f"FAIL {study}: digest {got} != recorded "
                         f"{rec.get(study)} ({len(jobs)} job(s))")
    return failed, notes


# -- the model's error against the paper --------------------------------------


def paper_err(table_json: bytes) -> Tuple[float, int, int]:
    """Mean |ln(sim / paper)| over the Figure 7 ratios the paper reports.

    Returns ``(error, ratios used, DNF baselines skipped)``.  The ratios
    are ACE+FLEX's continuous speed-ups (7a), its intermittent active-time
    speed-ups (7b, skipped when either side did not finish) and its
    continuous energy savings (7c), against
    ``repro.experiments.PAPER_FIG7{A,B,C}_*``.
    """
    from repro.experiments import (
        PAPER_FIG7A_SPEEDUPS,
        PAPER_FIG7B_SPEEDUPS,
        PAPER_FIG7C_SAVINGS,
    )

    payload = json.loads(table_json)
    names = [c[0] for c in payload["schema"]]
    rows = {}
    for row in payload["rows"]:
        r = dict(zip(names, row))
        rows[(r["task"], r["regime"], r["runtime"])] = r
    errors: List[float] = []
    skipped = 0

    def add(sim: float, paper: float) -> None:
        errors.append(abs(math.log(sim / paper)))

    for task, paper_by in PAPER_FIG7A_SPEEDUPS.items():
        flex = rows.get((task, "continuous", "ACE+FLEX"))
        if flex is None:
            continue
        for base, paper in paper_by.items():
            add(rows[(task, "continuous", base)]["wall_ms"] / flex["wall_ms"],
                paper)
    for task, paper_by in PAPER_FIG7B_SPEEDUPS.items():
        flex = rows.get((task, "intermittent", "ACE+FLEX"))
        if flex is None:
            continue
        for base, paper in paper_by.items():
            r = rows[(task, "intermittent", base)]
            if not (r["completed"] and flex["completed"]):
                skipped += 1
                continue
            add(r["active_ms"] / flex["active_ms"], paper)
    for task, paper_by in PAPER_FIG7C_SAVINGS.items():
        flex = rows.get((task, "continuous", "ACE+FLEX"))
        if flex is None:
            continue
        for base, paper in paper_by.items():
            add(rows[(task, "continuous", base)]["energy_mj"]
                / flex["energy_mj"], paper)
    if not errors:
        return float("nan"), 0, skipped
    return statistics.fmean(errors), len(errors), skipped


# -- summary statistics -------------------------------------------------------


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(values: List[float]) -> str:
    """``median of n`` plus the highest percentile with ten samples beyond."""
    n = len(values)
    text = f"median of {n}"
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return f"{text}; p{pct} {quantile(values, pct / 100):.4f}"
    return text + "; no percentile has ten samples beyond it"
