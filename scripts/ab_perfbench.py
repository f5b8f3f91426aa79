#!/usr/bin/env python3
"""Paired A/B comparison of two revisions on the repository benchmark.

    python3 scripts/ab_perfbench.py --parent HEAD~1 --candidate HEAD
    python3 scripts/ab_perfbench.py --parent HEAD --candidate WORKTREE \\
        --workload paper_fleet --pairs 10 --seconds 30

Run from anywhere inside a git checkout. The script exports the parent
and the candidate revisions into two directories under ``--scratch``
(``git archive``, so the repository gains no worktree entries; the
special candidate ``WORKTREE`` copies the working tree's tracked and
untracked, non-ignored files instead). Each copy builds into its own
``CARGO_TARGET_DIR``, and both are built before the first timed run.

For every workload it then runs ``perfbench/run.py --trace 0`` as
alternating pairs: pair ``i`` runs the parent first when ``i`` is even and
the candidate first when it is odd, and seeds 1 and 2 take turns every two
pairs, so host drift and seed effects fall on both sides and both orders
alike. For each end-to-end
metric of ``BENCHMARK.json`` it prints both medians, the candidate/parent
ratio, the parent's quartiles, the number of pairs the candidate won
(was strictly better in, per the metric's ``better`` direction), whether
the medians differ by more than the parent's interquartile range, and
whether the candidate's median lies beyond the parent's quartiles on the
better side. Every pair's values go to ``--out`` as JSON.

Exit status: 1 if any run reported ``"correct": false`` or failed to
produce a result line, else 0. The script judges no claim; it reports.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKTREE = "WORKTREE"


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export(repo, rev, dest):
    """Writes revision `rev` (or the working tree) of `repo` into `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    if rev == WORKTREE:
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
        for rel in filter(None, files.decode().split("\0")):
            src = os.path.join(repo, rel)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        return "working tree"
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo).decode().strip()
    archive = git("archive", "--format=tar", commit, cwd=repo)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit[:12]


def build(side):
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    manifest = os.path.join(side["dir"], "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    print(f"building {side['name']} ({side['label']}) ...", file=sys.stderr, flush=True)
    subprocess.run(cmd, cwd=side["dir"], env=env, check=True, stdout=sys.stderr)


def run_once(side, workload, seed, seconds):
    """One perfbench run; returns (metrics or None, correct)."""
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=side["dir"], env=env, capture_output=True, text=True)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                pass
    if result is None:
        sys.stderr.write(done.stderr[-2000:])
        return None, False
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, bool(result.get("correct")) and done.returncode == 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarise(workload, metrics_spec, pairs):
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<18} {'parent p50':>12} {'cand p50':>12} {'ratio':>7} "
          f"{'parent q1..q3':>23} {'won':>7}  {'|d p50| > IQR':>13}  cand p50 outside q1..q3")
    for spec in metrics_spec:
        name, lower = spec["name"], spec["better"] == "lower"
        par = [p["parent"][name] for p in pairs]
        cand = [p["candidate"][name] for p in pairs]
        pm, cm = statistics.median(par), statistics.median(cand)
        q1, q3 = quartiles(par)
        won = sum((c < p) if lower else (c > p) for p, c in zip(par, cand))
        ratio = cm / pm if pm else float("nan")
        beyond = abs(cm - pm) > q3 - q1
        outside = cm < q1 if lower else cm > q3
        print(f"  {name:<18} {pm:>12.4g} {cm:>12.4g} {ratio:>7.3f} "
              f"{f'{q1:.4g}..{q3:.4g}':>23} {f'{won}/{len(pairs)}':>7}  "
              f"{'yes' if beyond else 'no':>13}  {'yes' if outside else 'no'}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    p.add_argument("--candidate", default="HEAD",
                   help=f"candidate revision, or {WORKTREE} for the working tree (default HEAD)")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: every workload of BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload (default 10)")
    p.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--scratch", help="directory for the two copies and their builds "
                                     "(default: a new temporary directory)")
    p.add_argument("--out", help="write every pair's metrics to this JSON file")
    args = p.parse_args()

    repo = git("rev-parse", "--show-toplevel", cwd=os.getcwd()).decode().strip()
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_perfbench_")
    os.makedirs(scratch, exist_ok=True)
    sides = []
    for name, rev in (("parent", args.parent), ("candidate", args.candidate)):
        side = {"name": name, "dir": os.path.join(scratch, name),
                "target": os.path.join(scratch, f"{name}_target")}
        side["label"] = export(repo, rev, side["dir"])
        sides.append(side)
    with open(os.path.join(sides[1]["dir"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for side in sides:
        build(side)
    print(f"parent {sides[0]['label']} vs candidate {sides[1]['label']}, "
          f"{args.pairs} pairs per workload, {seconds:g} s runs", flush=True)

    all_correct = True
    report = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = 1 + (i // 2) % 2
            order = sides if i % 2 == 0 else sides[::-1]
            pair = {"seed": seed, "first": order[0]["name"]}
            for side in order:
                t = time.time()
                metrics, correct = run_once(side, workload, seed, seconds)
                all_correct &= correct
                if metrics is None:
                    print(f"  {workload} pair {i}: {side['name']} produced no result",
                          file=sys.stderr)
                    break
                if not correct:
                    print(f"  {workload} pair {i}: {side['name']} reported correct=false",
                          file=sys.stderr)
                pair[side["name"]] = metrics
                pair[f"{side['name']}_host_s"] = round(time.time() - t, 1)
            else:
                pairs.append(pair)
                w = "wall_s"
                print(f"  {workload} pair {i} (seed {seed}, {pair['first']} first): "
                      f"parent {w} {pair['parent'][w]:.3f}, candidate {pair['candidate'][w]:.3f}",
                      flush=True)
        report[workload] = pairs
        if pairs:
            summarise(workload, spec["end_to_end"], pairs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"parent": sides[0]["label"], "candidate": sides[1]["label"],
                       "seconds": seconds, "workloads": report}, f, indent=1)
    if not all_correct:
        print("\nab_perfbench: at least one run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
