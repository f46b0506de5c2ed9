#!/usr/bin/env python3
"""Run every registered study and print its table.

This is the one "run everything" entry point: a loop over the study
registry, each study run exactly as ``repro run <study>`` runs it::

    PYTHONPATH=src python scripts/record_experiments.py [--fast]

Studies with a full training profile (Table II) train it unless
``--fast`` is given; every other study runs on its default profile.
"""

import argparse
import time

from repro.study import Profile, get_study, run_study, study_names


def section(title):
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="keep Table II on its small training profile "
                             "(quick sanity run)")
    args = parser.parse_args()

    t0 = time.time()
    for name in study_names():
        study = get_study(name)
        full = not args.fast and "full" in study.params
        section(f"{study.artifact or name} ({name}): {study.title}")
        print(run_study(name, profile=Profile(full=full)).render())
        print(f"[{name} done at {time.time() - t0:.0f}s]")
    print(f"\n[total: {time.time() - t0:.0f}s]")


if __name__ == "__main__":
    main()
