#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

Runs direct_suite once against the committed goldens (no cell may fail),
then again against a copy in which one golden fingerprint is corrupted:
the corrupted cell must be counted as failed and the run reported as not
correct. Run from the root of a source checkout:

    python3 perfbench/selftest.py

Exits 0 when the gate behaves, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 42
CELL = "direct_suite/HomeBot"


def bench(goldens):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "direct_suite",
         "--seed", str(SEED), "--seconds", "0", "--trace", "0",
         "--goldens", str(goldens)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    clean = bench(HERE / "goldens.json")
    doc = json.loads((HERE / "goldens.json").read_text())
    golden = doc["seeds"][str(SEED)][CELL]
    # Flip the last hex digit: a fingerprint no result can have here.
    doc["seeds"][str(SEED)][CELL] = golden[:-1] + (
        "0" if golden[-1] != "0" else "1")
    work = Path(".bench_work")
    work.mkdir(exist_ok=True)
    corrupt_path = work / "selftest_goldens.json"
    corrupt_path.write_text(json.dumps(doc))
    try:
        corrupt = bench(corrupt_path)
    finally:
        corrupt_path.unlink()
        try:
            work.rmdir()
        except OSError:
            pass

    ok = (clean["correct"] and clean["failed"] == 0 and
          not corrupt["correct"] and corrupt["failed"] > clean["failed"])
    print(f"clean goldens: correct={clean['correct']} "
          f"failed={clean['failed']}/{clean['attempted']}; "
          f"corrupted {CELL}: correct={corrupt['correct']} "
          f"failed={corrupt['failed']}/{corrupt['attempted']} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
