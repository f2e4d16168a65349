#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Builds the benchmark from the repo's sources on first use (into
.bench_build/perfbench), runs the named workload, writes one record per run
to .bench_build/records/, and prints the result as the last line of standard
output. Exits non-zero, without a result line, when the build or the run
fails; exits non-zero after the result line when an output check fails.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RECORD_DIR = os.path.join(ROOT, ".bench_build", "records")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("census", "gateway_day", "publish_retrieve")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(command, log_path, timeout):
    with open(log_path, "ab") as out:
        out.write((" ".join(command) + "\n").encode())
        out.flush()
        proc = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DCMAKE_CXX_FLAGS="]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, build_log, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    status = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs],
                        build_log, BUILD_TIMEOUT_S)
    if status != 0:
        log(f"build failed, see {build_log}")
        return False
    return True


def source_digest():
    """SHA-256 over the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny runs the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1

    os.makedirs(RECORD_DIR, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S.%fZ")
    name = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}"
    stem = os.path.join(RECORD_DIR, name)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.trace:
        command += ["--spans", stem + ".spans.jsonl"]
    # The benchmark takes its inputs from its arguments only.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IPFS_BENCH_")}
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1

    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        log(f"benchmark exited with status {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(stdout)
        log("benchmark printed no result")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"result keys {sorted(result)} differ from {sorted(RESULT_KEYS)}")
        return 1
    expected = expected_metrics(args.trace)
    printed = [(metric, value["unit"])
               for metric, value in result["metrics"].items()]
    if expected is not None and sorted(printed) != sorted(expected):
        log("printed metrics differ from BENCHMARK.json")
        return 1

    record = None
    for line in lines[:-1]:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    if record is None:
        log("benchmark printed no record")
        return 1
    record["commit"] = commit()
    record["source_sha256"] = source_digest()
    record["command"] = ([os.path.basename(sys.executable),
                          os.path.relpath(os.path.abspath(__file__))]
                         + sys.argv[1:])
    record["correct"] = result["correct"]
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"record: {os.path.relpath(stem + '.json', ROOT)}")
    print(lines[-1], flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
