#!/usr/bin/env python3
"""Host-performance benchmark of the Tartan simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload direct_suite --seed 42 \
        --seconds 10 --trace 0

The first call configures and builds the benchmark package (this
directory's CMakeLists.txt, which compiles the simulator from ../src)
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only check that the build is current.

--seed fixes the order in which the cells of every pass run; the
robots' environment seed is --robot-seed (default 42), the same for every
measured run so that each run simulates the same work.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics (wall_s, maccess_per_s, setup_s, peak_rss_mb).
setup_s is the median over SETUP_REPEATS processes that each set the
workload up from scratch: set-up-only processes plus the measuring one. With --trace 1 the last line carries the per-layer
metrics of the traced run instead. Scratch files go to a directory
under .bench_work/ that is removed before exit.

    python3 perfbench/run.py --make-goldens 0-20,42,7919

re-records goldens.json, the per-cell result fingerprints the benchmark
checks against, for the listed robot seeds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("direct_suite", "replay_sweep", "fleet4", "traced_suite")
GOLDEN_WORKLOADS = ("direct_suite", "replay_sweep", "fleet4")
# Set-ups per run (the median is reported): more where set-up is cheap.
SETUP_REPEATS = {"direct_suite": 5, "traced_suite": 5, "replay_sweep": 3,
                 "fleet4": 3}
# Every process must end well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base / "perfbench").resolve()


def build():
    """Configure (once) and build the benchmark; returns the binary."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {HERE.parent / 'src'}")
        return None
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in (
            cache.read_text(errors="replace")):
        shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "tartan_perfbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return bdir / "tartan_perfbench"


def run_binary(binary, args, cpu=None):
    """Run the benchmark binary (on CPU @cpu when given, until it
    re-pins itself); returns its last stdout line, raw and as JSON."""
    cmd = [str(binary)] + args + ["--spawn-ns", str(time.monotonic_ns())]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL, text=True,
                          timeout=PROCESS_TIMEOUT_S, preexec_fn=pin)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return lines[-1], json.loads(lines[-1])


def measure(binary, opts, work):
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds), "--trace", str(opts.trace),
              "--robot-seed", str(opts.robot_seed),
              "--goldens", str(opts.goldens), "--work-dir", str(work)]
    # Each set-up runs on a different CPU (see the binary's per-cell CPU
    # rotation): one slow virtual CPU then moves the median of set-ups
    # no more than it moves one cell.
    cpus = sorted(os.sched_getaffinity(0))
    repeats = SETUP_REPEATS[opts.workload] if not opts.trace else 1
    setups = []
    for i in range(repeats - 1):
        _, doc = run_binary(binary, common + ["--setup-only"],
                            cpus[i % len(cpus)])
        setups.append(doc["setup_s"])
    line, doc = run_binary(binary, common, cpus[(repeats - 1) % len(cpus)])
    if not opts.trace:
        setups.append(doc["metrics"]["setup_s"]["value"])
        doc["metrics"]["setup_s"]["value"] = statistics.median(setups)
        line = json.dumps(doc)
    return line


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def make_goldens(binary, seeds, work, path):
    doc = {"format": 1,
           "about": "FNV-1a 64 of each timed cell's exact result payload "
                    "(every RunResult counter, per-kernel CPI stacks, "
                    "quality metrics; fleet cells add the uncore "
                    "counters), per robot seed.",
           "seeds": {}}
    for seed in seeds:
        table = collect_fingerprints(binary, seed, work)
        doc["seeds"][str(seed)] = dict(sorted(table.items()))
        log(f"goldens: seed {seed}: {len(table)} cells")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def collect_fingerprints(binary, seed, work):
    table = {}
    for workload in GOLDEN_WORKLOADS:
        cmd = [str(binary), "--workload", workload, "--robot-seed",
               str(seed), "--seconds", "0", "--trace", "0", "--work-dir", str(work),
               "--emit-fingerprints"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise RuntimeError(f"{workload} seed {seed} is not correct")
        table.update(json.loads(lines[-2])["fingerprints"])
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--robot-seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--goldens", type=Path, default=HERE / "goldens.json")
    ap.add_argument("--make-goldens", metavar="SEEDS",
                    help="re-record goldens.json for e.g. 0-20,42")
    opts = ap.parse_args()
    if not opts.workload and not opts.make_goldens:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    work = Path(".bench_work").resolve() / f"{opts.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        if opts.make_goldens:
            make_goldens(binary, parse_seeds(opts.make_goldens), work,
                         opts.goldens)
            return 0
        print(measure(binary, opts, work), flush=True)
        return 0
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as err:
        log(str(err))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
