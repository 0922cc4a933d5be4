#!/usr/bin/env python3
"""Builds p3gm_perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload train_esr --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout. The last stdout line is the
result JSON, holding exactly the metrics BENCHMARK.json declares for the
mode: end_to_end with --trace 0, per_layer with --trace 1. A declared
metric the binary did not report marks the result incorrect. See
perfbench/NOTES.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no P3GM sources under {root}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "p3gm_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "p3gm_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    train_bound = next(m["bound"] for m in spec["end_to_end"]
                       if m["name"] == "train_s")
    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, out_dir / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work-dir", str(work), "--trace-dir",
           str(out_dir / "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} missing or not in "
                  f"{m['unit']}", file=sys.stderr)
            result["correct"] = False
        else:
            metrics[m["name"]] = got
    result["metrics"] = metrics
    # The traced fits' phase, fingerprint and save times must account for
    # their wall time to within the train_s bound.
    accounted = metrics.get("train.accounted_pct")
    if accounted and abs(1 - accounted["value"] / 100) > train_bound:
        print(f"perfbench: phases + fingerprint + save account for "
              f"{accounted['value']:.1f}% of train_s", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
