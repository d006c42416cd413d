#!/usr/bin/env python3
"""Build and run the mcdsm benchmark for one workload.

    python3 mcbench/run.py --workload paper-p32 --seed 1 --seconds 30 --trace 0
    python3 mcbench/run.py --self-test

Run from the repository root. The library (../src) and the benchmark
binary are built with CMake into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

With --trace 1 the binary also writes Chrome-trace spans and SIGPROF
samples; this script maps every sampled frame to its src/<module>/
directory through the executable's debug line table (addr2line) and
prints each module's share of the sampled host time.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
EXE = os.path.join(BUILD, "mcbench")
RUN_TIMEOUT_S = 170
UNATTRIBUTED = "unattributed"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build incrementally; progress goes to stderr."""
    if not os.path.isdir(SRC):
        log("mcbench: no library sources at", SRC)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("mcbench: build step failed:", " ".join(cmd))
            return False
    return True


def host_info(binary_host):
    """nproc, compiler and build type from the binary; commit and a
    digest of the library sources from here."""
    info = dict(binary_host)
    info["nproc"] = os.cpu_count()
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    info["commit"] = commit
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    info["src_sha256"] = digest.hexdigest()[:16]
    return info


def line_table(offsets):
    """Map executable offsets to their inline chains of source files,
    innermost first, through addr2line."""
    text = "".join("%x\n" % o for o in offsets)
    out = subprocess.run(["addr2line", "-e", EXE, "-i", "-a"], input=text,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    chains, current = {}, None
    for line in out.splitlines():
        if line.startswith("0x"):
            current = chains.setdefault(int(line, 16), [])
        elif current is not None:
            current.append(line.rsplit(":", 1)[0])
    return chains


def src_module(path, cache={}):
    """The src/<module> a source file belongs to, or None."""
    if path not in cache:
        cache[path] = None
        if not path.startswith("??"):
            rel = os.path.relpath(os.path.realpath(path), SRC)
            parts = rel.split(os.sep)
            if len(parts) > 1 and parts[0] != "..":
                cache[path] = parts[0]
    return cache[path]


def module_split(samples_path):
    """Count samples per module: the innermost src/ file of the first
    frame (leaf first) whose inline chain reaches src/. Also returns how
    many samples had their leaf outside the executable."""
    samples, outside = [], 0
    with open(samples_path) as f:
        for line in f:
            fields = line.split()
            outside += fields[0] == "C"
            samples.append([int(x, 16) for x in fields[1:]])
    chains = line_table(sorted({o for s in samples for o in s}))
    counts = {}
    for frames in samples:
        module = UNATTRIBUTED
        for off in frames:
            found = next(
                (m for m in map(src_module, chains.get(off, [])) if m), None)
            if found:
                module = found
                break
        counts[module] = counts.get(module, 0) + 1
    return counts, outside


def print_split(counts, outside, sampled_wall_s):
    total = sum(counts.values())
    print("host time by module (%d samples, %d with the leaf outside the "
          "executable; %.3f s per sampled pass):"
          % (total, outside, sampled_wall_s))
    print("  %-14s %8s %8s %10s" % ("module", "samples", "share", "self_s"))
    for module, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print("  %-14s %8d %7.2f%% %10.4f"
              % (module, n, 100.0 * n / total, sampled_wall_s * n / total))
    top = max((m for m in counts if m != UNATTRIBUTED),
              key=lambda m: counts[m], default=UNATTRIBUTED)
    print("top module by self_s:", top)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        if not build("all"):
            return 1
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"]).returncode
    if not args.workload:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build("mcbench"):
        return 1

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("mcbench: timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        log("mcbench: binary exited with code %d" % r.returncode)
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    metrics = result["metrics"]

    if args.trace:
        stem = os.path.join(out_dir, "%s-seed%d" % (args.workload, args.seed))
        counts, outside = module_split(stem + ".samples")
        sampled_wall_s = metrics["trace.sampled_wall_s"]["value"]
        if counts:
            print_split(counts, outside, sampled_wall_s)
        total = sum(counts.values())
        for m in wanted:
            name = m["name"]
            if name.endswith(".self_s"):
                n = counts.get(name[: -len(".self_s")], 0)
                metrics[name] = {"value": sampled_wall_s * n / total
                                 if total else 0.0, "unit": "s"}
        print("spans:", stem + ".spans.json")

    host = host_info(result["host"])
    print("host:", json.dumps(host, sort_keys=True))
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": {}}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("mcbench: metric %s (%s) missing or in another unit: %s"
                % (m["name"], m["unit"], got))
            return 1
        final["metrics"][m["name"]] = got
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(final, host=host, workload=args.workload,
                       seed=args.seed), f, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
