#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload paper_fleet --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the measuring
program (``perfbench/``, a cargo workspace of its own) offline, then runs
it in separate processes: the what-if matrix's set-up, and either the
untraced measurement (``--trace 0``, end-to-end metrics) or the traced run
(``--trace 1``, per-layer metrics). Every output is checked; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A line before it records the
host fingerprint. Any step that fails ends the script with a non-zero
exit code and no result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_fleet", "lossy_org", "whatif_matrix")
BUILD_TIMEOUT_S = 850
# Every step of a run, after the build, must end within this many seconds.
STEPS_TIMEOUT_S = 170
# Fewest untraced passes a measuring run makes, however short it is.
MIN_PASSES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def step(binary, mode, args, work_dir, timeout):
    """Runs one measuring step as a fresh process; returns its JSON line."""
    cmd = [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--dir", work_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{mode} step did not finish: {e}")
    if done.returncode != 0:
        fail(f"{mode} step failed with exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{mode} step printed no result")


class Run:
    """The checks and steps of one benchmark run."""

    def __init__(self, binary, args, work_dir):
        self.binary, self.args, self.work_dir = binary, args, work_dir
        self.attempted, self.failures = 0, []
        self.deadline = time.monotonic() + STEPS_TIMEOUT_S

    def step(self, mode):
        out = step(self.binary, mode, self.args, self.work_dir,
                   self.deadline - time.monotonic())
        self.attempted += out["attempted"]
        self.failures += out["failures"]
        return out

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def check_digest(self, first, out, what):
        self.check(out["digest"] == first["digest"],
                   f"{what} output digest {out['digest']} differs from the first pass's "
                   f"{first['digest']}")

    def measure(self, seconds):
        """Untraced passes for `seconds` (at least MIN_PASSES): the
        end-to-end metrics, each the median over passes."""
        start, passes = time.monotonic(), []
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            passes.append(self.step("pass"))
            if len(passes) > 1:
                self.check_digest(passes[0], passes[-1], "untraced")
        med = lambda f: statistics.median(f(p) for p in passes)
        values = {
            "wall_s": med(lambda p: p["wall_s"]),
            "records_per_s": med(lambda p: p["records"] / p["wall_s"]),
            "sim_s_per_host_s": med(lambda p: p["sim_s"] / p["wall_s"]),
            "cpu_s": med(lambda p: p["cpu_s"]),
            "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
        }
        if "setup_s" in passes[0]:
            values["setup_s"] = med(lambda p: p["setup_s"])
        return values, passes[0]["digest"]

    def traced(self, seconds, declared):
        """Untraced and traced passes in pairs for `seconds` (at least one
        pair): the per-layer metrics, each the median over traced passes.
        A layer the workload does not pass through reads 0."""
        fixed = {}
        if self.args.workload == "whatif_matrix":
            fixed = self.step("traced-setup")["metrics"]
        start, plain, traced = time.monotonic(), [], []
        while not traced or time.monotonic() - start < seconds:
            plain.append(self.step("pass"))
            traced.append(self.step("traced-pass"))
            if len(plain) > 1:
                self.check_digest(plain[0], plain[-1], "untraced")
            self.check_digest(plain[-1], traced[-1], "traced")
        names = set(fixed) | {n for p in traced for n in p["metrics"]}
        unknown = names - set(declared)
        if unknown:
            fail(f"the measuring program reported undeclared metrics {sorted(unknown)}")
        values = {name: 0.0 for name in declared}
        values.update(fixed)
        for name in {n for p in traced for n in p["metrics"]}:
            values[name] = statistics.median(p["metrics"][name] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values["bench.untraced_wall_s"] = untraced_wall
        values["bench.traced_wall_s"] = traced_wall
        values["bench.trace_overhead"] = traced_wall / untraced_wall
        return values, traced[0]["digest"]


def source_digest():
    """SHA-256 of the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    def run(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                         platform.processor() or "unknown")
    except OSError:
        pass
    revision = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        revision = run(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": run(["rustc", "-V"]),
        "git_revision": revision,
        "source_digest": source_digest(),
    }


def main():
    args = parse_args()
    declared = declared_metrics(args.trace)
    binary = build()
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)["digests"]

    work_dir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = Run(binary, args, work_dir)
    try:
        setup_s = None
        if args.workload == "whatif_matrix":
            setup_s = run.step("setup")["setup_s"]
        if args.trace:
            values, digest = run.traced(args.seconds, [n for n, _ in declared])
        else:
            values, digest = run.measure(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    expected = pinned.get(args.workload, {}).get(str(args.seed))
    if expected is not None:
        run.check(digest == expected, f"output digest {digest} differs from the digest "
                                      f"pinned for seed {args.seed}, {expected}")
    if setup_s is not None:
        values["setup_s"] = setup_s
    values["passed_frac"] = (run.attempted - len(run.failures)) / run.attempted
    metrics = {}
    for name, unit in declared:
        if name not in values:
            fail(f"the measuring program reported no value for {name}")
        metrics[name] = {"value": values[name], "unit": unit}

    failures, attempted = run.failures, run.attempted
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
