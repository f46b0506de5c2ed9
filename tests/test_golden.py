"""Golden outputs: every registered study's exact table bytes and text.

``tests/golden/<study>.json`` holds ``run.table.to_json()`` and
``tests/golden/<study>.txt`` holds ``run.render()`` for the default
profile, the reference engine and one worker.  Any change to a study's
numbers, schema, meta or rendering fails here byte for byte.  The
scenario-shaped paper studies are also re-run on the fast engine against
the same files (the fast == reference contract, end to end).

After an intended change to a table, regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from repro.study import get_study, run_study, study_names

GOLDEN = Path(__file__).parent / "golden"

#: Studies re-checked on ``engine="fast"`` against the reference goldens.
FAST_STUDIES = ("fig7", "overhead", "sweep-capacitor", "sweep-power",
                "sweep-trace")

CASES = ([(name, "reference") for name in study_names()]
         + [(name, "fast") for name in FAST_STUDIES])


def _run(name, engine="reference"):
    if get_study(name).fleet_executed:
        return run_study(name, engine=engine, workers=1)
    return run_study(name, engine=engine)


@pytest.mark.parametrize("name,engine", CASES)
def test_study_matches_golden(name, engine):
    run = _run(name, engine)
    assert run.table.to_json().encode() == (GOLDEN / f"{name}.json").read_bytes()
    assert run.render().encode() == (GOLDEN / f"{name}.txt").read_bytes()


def test_every_study_has_golden_files():
    recorded = {p.stem for p in GOLDEN.glob("*.json")}
    assert recorded == set(study_names())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in study_names():
        run = _run(name)
        (GOLDEN / f"{name}.json").write_bytes(run.table.to_json().encode())
        (GOLDEN / f"{name}.txt").write_bytes(run.render().encode())
        print(f"wrote {name}")
