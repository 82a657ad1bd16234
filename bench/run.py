"""Benchmark entry point.

    python3 bench/run.py --workload translate --seed 1 --seconds 36 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics when `--trace 0`, the per-layer metrics when `--trace 1`. The line
before it holds the full result document (environment, per-repetition
times, workload-specific figures, and with tracing the per-layer table);
the same document, and with tracing the spans, are written under
`.bench_work/`. `--workload all` runs every workload, each in a fresh
process, and prints one result line per workload.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

import argparse
import json
import os
import subprocess
import sys

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(names) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args, names) -> int:
    ok = True
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit": proc.returncode}), flush=True)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(json.dumps({"workload": name, **result}), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    import harness  # numpy is imported only now, after the pin

    args = parse_args(argv, harness.WORKLOADS)
    if args.workload == "all":
        return run_all(args, harness.WORKLOADS)
    doc = harness.run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(doc), flush=True)
    print(json.dumps(doc["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
