#!/usr/bin/env python3
"""snoop-perf benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_fill --seed 1 --seconds 10 --trace 0

It builds the repository (Release) and the harness under .bench_build/,
runs the harness, checks its metric names and units against
BENCHMARK.json, and prints an environment stamp line, a detail line and,
last, {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. Any build or run
failure exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD_TYPE = "Release"
WORKLOADS = ("serve_fill", "serve_hot", "sweep_grid")
HARNESS_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    # The build lives inside the checkout; CARGO_TARGET_DIR names it
    # when set to a relative path (the default is .bench_build).
    name = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / name).resolve()
    if ROOT.resolve() not in path.parents:
        path = ROOT / ".bench_build"
    return path


def logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        rc = subprocess.run(list(map(str, cmd)), cwd=ROOT, stdout=out,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        die(f"command failed ({rc}): {' '.join(map(str, cmd))}")


def build(bdir, jobs):
    sources = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "tools" / "snoop_serve.cc"]
    missing = [str(p.relative_to(ROOT)) for p in sources if not p.exists()]
    if missing:
        die("not a snoop-perf checkout (missing " + ", ".join(missing) + ")")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    repo, harness = bdir / "snoop", bdir / "harness"
    if not (repo / "CMakeCache.txt").exists():
        logged(["cmake", "-S", ROOT, "-B", repo, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log)
    logged(["cmake", "--build", repo, "-j", jobs, "--target",
            "snoop_serve_tool", "snoop_core", "snoop_serve"], log)
    if not (harness / "CMakeCache.txt").exists():
        logged(["cmake", "-S", HERE, "-B", harness, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                f"-DSNOOP_ROOT={ROOT}", f"-DSNOOP_BUILD={repo}"], log)
    logged(["cmake", "--build", harness, "-j", jobs], log)
    return repo / "tools" / "snoop_serve", harness / "perfbench"


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "CMakeLists.txt", ROOT / "tools" / "snoop_serve.cc"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_harness(cmd):
    # Own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(list(map(str, cmd)), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"harness exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        die("harness printed nothing")
    return json.loads(lines[-1])


def check_metrics(metrics, spec):
    """The harness must report exactly the metrics BENCHMARK.json lists
    for this mode, each with its declared unit and a finite value."""
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        die("metric names differ from BENCHMARK.json: "
            f"extra {sorted(set(metrics) - set(want))}, "
            f"missing {sorted(set(want) - set(metrics))}")
    for name, unit in want.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            die(f"{name}: unit {metrics[name].get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or value != value or abs(value) == float("inf"):
            die(f"{name}: value {value!r} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--plant", default="",
                        help="corrupt one answer before the named oracle (smoke tests)")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        die("BENCHMARK.json not found in the working directory")
    spec = json.loads(bench.read_text())

    jobs = len(os.sched_getaffinity(0))
    bdir = build_root()
    serve_bin, harness = build(bdir, jobs)

    cmd = [harness, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--jobs", jobs,
           "--serve-bin", serve_bin, "--work-dir", bdir / "work"]
    if args.plant:
        cmd += ["--plant", args.plant]
    result = run_harness(cmd)

    metrics = result["metrics"]
    check_metrics(metrics, spec["per_layer" if args.trace else "end_to_end"])

    env = dict(result["env"])
    env.update(build_type=BUILD_TYPE, git_commit=git_commit(),
               source_sha256=source_digest(), seconds=args.seconds, trace=args.trace)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
