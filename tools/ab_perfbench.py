#!/usr/bin/env python3
"""Interleaved A/B of perfbench: a base revision against the working tree.

    python3 tools/ab_perfbench.py --base HEAD~1 --pairs 10 --seconds 8 \\
        [--scratch DIR]

--base is extracted with `git archive` into DIR/base (no worktree); the
change is this working tree. For every workload of BENCHMARK.json, each
tree builds and runs its own perfbench (`perfbench/run.py --workload W
--seed 1 --seconds S`) into its own build directory under DIR, as fresh
processes. In each pair the two trees run back to back, and the order
alternates from pair to pair, so a drift in host load falls on both sides
alike. Every run's final JSON line is written to DIR/results.jsonl. DIR
must not hold an earlier run's base tree or results.

For each end-to-end metric of BENCHMARK.json the summary prints the two
medians, their ratio (change / base), the base's interquartile range
relative to its median, and in how many pairs the change beat the base.
Bounds are relative to the base median. The verdict is "unresolved" when
the base's relative IQR exceeds the metric's bound (the base alone spreads
wider than the bound, so no difference can be read) unless every change
run beats every base run, "worse" when the change's median is worse than
the base's by more than the bound, and "ok" otherwise. Exit status: 0 when
no metric is worse, 1 when one is, 2 on a usage, build or run error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def die(msg):
    print("ab_perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# --- summary -----------------------------------------------------------------

def iqr(values):
    if len(values) < 2:
        return float("inf")  # one run shows no spread, so none can be read
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def relative(delta, reference):
    if reference == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(reference)


def compare(spec, base, change):
    """One metric's row. `base` and `change` hold one value per pair, in
    pair order."""
    lower = spec["better"] == "lower"
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    spread = relative(iqr(base), base_med)
    # Positive when the change is worse, as a fraction of the base median.
    worse_by = relative(change_med - base_med if lower else base_med - change_med,
                        base_med)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    separated = (max(change) < min(base)) if lower else (min(change) > max(base))
    if spread > spec["bound"] and not separated:
        verdict = "unresolved"
    elif worse_by > spec["bound"]:
        verdict = "worse"
    else:
        verdict = "ok"
    return {
        "metric": spec["name"], "unit": spec["unit"], "bound": spec["bound"],
        "base": base_med, "change": change_med,
        "ratio": change_med / base_med if base_med else float("nan"),
        "base_iqr": spread, "wins": wins, "pairs": len(base),
        "verdict": verdict,
    }


def summarize(runs, end_to_end):
    """One row per end-to-end metric; `runs[side]` holds that side's perfbench
    results in pair order. A metric missing from any run (perfbench leaves
    out the timings when every timed run failed; ok_frac shows that) is
    left out."""
    rows = []
    for spec in end_to_end:
        values = {s: [r["metrics"].get(spec["name"], {}).get("value")
                      for r in runs[s]] for s in SIDES}
        if None not in values["base"] + values["change"]:
            rows.append(compare(spec, values["base"], values["change"]))
    return rows


def report(workload, rows):
    lines = ["workload %s" % workload,
             "  %-20s %12s %12s %7s %9s %6s %6s  %s" % (
                 "metric", "base", "change", "ratio", "base IQR", "wins",
                 "bound", "verdict")]
    for r in rows:
        lines.append("  %-20s %12.6g %12.6g %7.3f %8.1f%% %6s %6g  %s" % (
            "%s [%s]" % (r["metric"], r["unit"]), r["base"], r["change"],
            r["ratio"], 100 * r["base_iqr"],
            "%d/%d" % (r["wins"], r["pairs"]), r["bound"], r["verdict"]))
    return "\n".join(lines)


# --- runs --------------------------------------------------------------------

def extract(rev, dest):
    """Writes the committed tree of `rev` to `dest` with git archive."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if archive.returncode != 0:
        die("git archive %s: %s" % (rev, archive.stderr.decode().strip()))
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def run_perfbench(tree, build, workload, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    p = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    try:
        return json.loads(last[0])
    except ValueError:
        die("%s in %s exited %d without a result line:\n%s" % (
            " ".join(cmd[1:]), tree, p.returncode, p.stderr[-2000:]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--scratch", help="work directory (default: a new one "
                                      "under the system temp directory)")
    args = ap.parse_args()
    if args.pairs < 1:
        die("--pairs must be positive")
    benchmark = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_perfbench-")
    base_dir = os.path.join(scratch, "base")
    results_path = os.path.join(scratch, "results.jsonl")
    if os.path.exists(base_dir) or os.path.exists(results_path):
        die("%s holds an earlier run; pass a new --scratch" % scratch)
    trees = {"base": extract(args.base, base_dir), "change": ROOT}
    print("base %s, change: working tree, results %s" % (
        args.base, results_path), flush=True)
    worse = False
    with open(results_path, "w") as out:
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = {s: [] for s in SIDES}
            for k in range(args.pairs):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    result = run_perfbench(
                        trees[side], os.path.join(scratch, side + "-build"),
                        workload, args.seconds)
                    runs[side].append(result)
                    out.write(json.dumps({"workload": workload, "pair": k,
                                          "side": side, "result": result}) +
                              "\n")
                    out.flush()
                print("%s pair %d/%d done" % (workload, k + 1, args.pairs),
                      flush=True)
            rows = summarize(runs, benchmark["end_to_end"])
            print(report(workload, rows), flush=True)
            worse = worse or any(r["verdict"] == "worse" for r in rows)
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
