"""Write the report files of the five reference runs.

    PYTHONPATH=src python tests/reference_outputs.py OUT

runs every entry of REFERENCE_RUNS (tests/test_reference_runs.py) into
OUT/<run>/.  To check that a change leaves every reported number as it was,
run it once with PYTHONPATH at each checkout's src and compare the two
trees with ``diff -r``: the reports are written deterministically, so equal
numbers mean byte-identical files.
"""

import json
import os
import sys
import tempfile

from capsym.cli import main
from test_reference_runs import BENCH_STAR, REFERENCE_RUNS


def write_reference_outputs(out):
    with tempfile.TemporaryDirectory() as tmp:
        star = os.path.join(tmp, "star.json")
        with open(star, "w", encoding="utf-8") as fh:
            json.dump(BENCH_STAR, fh)
        for run, (args, *_) in REFERENCE_RUNS.items():
            argv = [a.format(star=star) for a in args]
            if main(argv + ["--out", os.path.join(out, run)]) != 0:
                raise SystemExit(f"reference run {run} failed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: reference_outputs.py OUT")
    write_reference_outputs(sys.argv[1])
