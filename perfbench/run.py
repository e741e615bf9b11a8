#!/usr/bin/env python3
"""The repository's benchmark driver (metric dictionary: perfbench/README.md).

    python3 perfbench/run.py --workload xs-fig6a --seed 1 --seconds 36 --trace 0

Run from the repository root. It builds perfbench/ (the repository's
libraries plus the dgc-perf drivers, Release with LTO) into $CARGO_TARGET_DIR
or .bench_build, writes the workload's inputs from --seed, and then:

  --trace 0  runs fresh dgc-perf processes, one measured phase each, for
             --seconds, and reports the end-to-end metrics as medians;
  --trace 1  alternates untraced and traced (dgc-perf-traced) processes,
             then runs the standalone layer calls and probes in a process of
             their own, and reports the per-layer metrics.

Every process's instances are checked (each app verifies bit-exactly
against its host reference), and the digest of the simulated results must
match across all processes of one build, workload and seed, including
earlier invocations. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload of BENCHMARK.json and prints one table.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402

BUILD_CONFIG = "Release+LTO"
CHILD_TIMEOUT_S = 120
MIN_TIMED_RUNS = 5
MIB = float(1 << 20)


def log(msg):
    print(msg, flush=True)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def host_cores():
    return len(os.sched_getaffinity(0))


# --- build ---------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds dgc-perf and dgc-perf-traced; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no program sources at %s/src; run from a full checkout" % ROOT)
    # One CMake tree per source checkout, in case build directories are shared.
    out = os.path.join(build_dir(), "cmake-" + hashlib.sha256(
        HERE.encode()).hexdigest()[:8])
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    with open(log_path, "w") as blog:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON"])
        steps.append(["cmake", "--build", out, "-j", str(host_cores())])
        for cmd in steps:
            if subprocess.call(cmd, stdout=blog, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    bins = (os.path.join(out, "dgc-perf"), os.path.join(out, "dgc-perf-traced"))
    for b in bins:
        if not os.path.isfile(b):
            die("build produced no %s" % b)
    return bins


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# --- child processes -------------------------------------------------------------

class Child:
    """One finished dgc-perf process: exit status, peak RSS, and result."""

    def __init__(self, code, rss_mb, result, stderr_tail):
        self.code = code
        self.rss_mb = rss_mb
        self.result = result
        self.stderr_tail = stderr_tail


def run_child(cmd, work, tag):
    out_path = os.path.join(work, tag + ".out")
    err_path = os.path.join(work, tag + ".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        # wait4 gives this child's own peak RSS, also when it crashed.
        pid, status, usage = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            p.kill()
            pid, status, usage = os.wait4(p.pid, 0)
            break
        time.sleep(0.002)
    p.returncode = os.waitstatus_to_exitcode(status)
    result = None
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if p.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    with open(err_path) as f:
        tail = f.read()[-400:]
    return Child(p.returncode, usage.ru_maxrss / 1024.0, result, tail)


def child_command(binary, name, input_path, mode=None):
    if name in workloads.ENSEMBLE:
        w = workloads.ENSEMBLE[name]
        return [binary, mode or "ensemble", "--app", w["app"],
                "--args", input_path, "--device", w["device"],
                "--memory-scale", str(w["memory_scale"]),
                "--thread-limit", str(w["thread_limit"]),
                "--share-data", "on" if w["share_data"] else "off"]
    w = workloads.SERVE[name]
    if mode == "standalone":
        return [binary, mode, "--stream", input_path, "--device", w["device"]]
    return [binary, "serve", "--stream", input_path, "--device", w["device"],
            "--thread-limit", str(w["thread_limit"]),
            "--jobs", str(w["jobs"]), "--queue-cap", str(w["queue_cap"]),
            "--share-data", "on" if w["share_data"] else "off"]


def operation_count(text):
    """Instances of an argument file, or jobs of a stream."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


class Tally:
    """Operations attempted and failed, plus the digest check."""

    def __init__(self, name, seed, binary_id, ops):
        self.ops = ops
        self.key = "%s %s %d" % (binary_id, name, seed)
        self.attempted = self.failed = self.crashed = 0
        self.digests = []
        self.problems = []

    def add(self, child, what):
        self.attempted += self.ops
        if child.result is None:
            self.failed += self.ops
            self.crashed += 1
            self.problems.append("%s exited %d: %s" % (
                what, child.code, child.stderr_tail.strip()[-200:]))
            return False
        r = child.result
        self.failed += self.ops - r["verified"]
        if r["verified"] != self.ops:
            self.problems.append("%s: %d of %d operations not verified %s" % (
                what, self.ops - r["verified"], self.ops,
                r.get("failures", [])[:1]))
        self.digests.append(r["digest"])
        if r["digest"] != self.digests[0]:
            # A run whose simulated results differ from the first run's is
            # wrong as a whole.
            self.failed += r["verified"]
            self.problems.append("%s: simulated digest %s differs from %s" % (
                what, r["digest"], self.digests[0]))
        return True

    def check_recorded(self):
        """Compares this run's digest with earlier invocations' record."""
        if not self.digests or len(set(self.digests)) != 1:
            return
        path = os.path.join(build_dir(), "digests.json")
        try:
            with open(path) as f:
                record = json.load(f)
        except (OSError, ValueError):
            record = {}
        digest = self.digests[0]
        if record.setdefault(self.key, digest) != digest:
            self.failed = self.attempted
            self.problems.append("simulated digest %s differs from %s recorded "
                                 "by an earlier run of this build and seed" %
                                 (digest, record[self.key]))
        with open(path, "w") as f:
            json.dump(record, f, indent=0, sort_keys=True)

    @property
    def correct(self):
        return not self.problems and self.failed == 0


# --- statistics ------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def describe(values, unit, digits=4):
    if not values:
        return "n/a"
    if len(values) < 2:
        return "%.*f %s (n=1)" % (digits, values[0], unit)
    q = statistics.quantiles(values, n=4)
    return "%.*f %s (n=%d, q1 %.*f, q3 %.*f)" % (
        digits, statistics.median(values), unit, len(values), digits, q[0],
        digits, q[2])


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- modes -------------------------------------------------------------------------

class Rounds:
    """Paces repeated rounds (processes, or process pairs) within `seconds`.

    Starts another round while the mean round so far still fits, so a run
    ends close to `seconds` instead of overshooting by a whole round; at
    least `minimum` rounds always run.
    """

    def __init__(self, seconds, minimum):
        self.seconds, self.minimum = seconds, minimum
        self.start = time.monotonic()
        self.count = 0

    def another(self):
        elapsed = time.monotonic() - self.start
        mean = elapsed / self.count if self.count else 0.0
        if self.count >= self.minimum and elapsed + mean > self.seconds:
            return False
        self.count += 1
        return True


def timed(name, seconds, binary, work, tally):
    """End-to-end metrics: fresh processes for `seconds`, medians."""
    input_path = os.path.join(work, "input.txt")
    run_s, setup_s, rss = [], [], []
    rounds = Rounds(seconds, MIN_TIMED_RUNS)
    while rounds.another():
        k = rounds.count - 1
        child = run_child(child_command(binary, name, input_path), work,
                          "timed-%d" % k)
        if tally.add(child, "timed run %d" % k):
            run_s.append(child.result["run_s"])
            setup_s.append(child.result["setup_s"])
            rss.append(child.rss_mb)
    log("run_s       %s" % describe(run_s, "s"))
    log("setup_s     %s" % describe(setup_s, "s", 6))
    log("peak_rss_mb %s" % describe(rss, "MiB", 1))
    log("fail_frac   %.4f (%d of %d operations failed)" % (
        tally.failed / float(tally.attempted), tally.failed, tally.attempted))
    ok = tally.attempted - tally.failed
    metrics = {"ok_frac": metric(ok / float(tally.attempted), "ratio")}
    if run_s:
        metrics["run_s"] = metric(median(run_s), "s")
        metrics["setup_s"] = metric(median(setup_s), "s")
        metrics["peak_rss_mb"] = metric(median(rss), "MiB")
    return metrics


def traced(name, seconds, binaries, work, tally):
    """Per-layer metrics: untraced/traced process pairs, then standalone."""
    timed_bin, traced_bin = binaries
    input_path = os.path.join(work, "input.txt")
    plain, spans_runs, results = [], [], []
    rounds = Rounds(seconds, 1)
    while rounds.another():
        k = rounds.count - 1
        # Alternate which side goes first so drift hits both alike.
        order = [(timed_bin, "untraced"), (traced_bin, "traced")]
        for binary, kind in (order if k % 2 == 0 else order[::-1]):
            child = run_child(child_command(binary, name, input_path), work,
                              "%s-%d" % (kind, k))
            if not tally.add(child, "%s run %d" % (kind, k)):
                continue
            if kind == "untraced":
                plain.append(child.result["run_s"])
            else:
                results.append(child.result)
                spans_runs.append({s["name"]: s for s in child.result["spans"]})
    with open(os.path.join(work, "spans.json"), "w") as f:
        json.dump(spans_runs, f, indent=1)

    alone = run_child(child_command(traced_bin, name, input_path, "standalone"),
                      work, "standalone")
    if alone.result is None or not alone.result.get("ok"):
        tally.problems.append("standalone layer calls failed (exit %d): %s" % (
            alone.code, alone.stderr_tail.strip()[-200:]))

    m = {}
    attempted = max(tally.attempted, 1)
    m["fail_frac"] = metric(tally.failed / float(attempted), "ratio")

    def span_median(span, field="duration"):
        vals = []
        for run in spans_runs:
            if span in run:
                s = run[span]
                vals.append(s["end_s"] - s["start_s"] if field == "duration"
                            else s[field])
        return median(vals)

    run_span = "serve.run" if name in workloads.SERVE else "ensemble.run"
    if results:
        parse = "serve.parse" if name in workloads.SERVE else "ensemble.parse"
        m["ensemble.parse_s"] = metric(span_median(parse), "s")
        m["gpusim.device_init_s"] = metric(
            span_median("gpusim.device_init"), "s")
        run_s = span_median(run_span)
        m[run_span + "_s"] = metric(run_s, "s")
        if plain:
            m["trace.overhead_frac"] = metric(run_s / median(plain) - 1.0,
                                              "ratio")
        r = results[0]
        alloc_calls = span_median(run_span, "allocs")
        alloc_bytes = span_median(run_span, "alloc_bytes")
        m["ensemble.alloc_mb"] = metric(alloc_bytes / MIB, "MiB")
        if name in workloads.ENSEMBLE:
            st = r["stats"]
            winst = st["warp_instructions"]
            mem = (st["load_instructions"] + st["store_instructions"] +
                   st["atomic_instructions"])
            m["ensemble.allocs_per_winst"] = metric(alloc_calls / winst,
                                                    "count/winst")
            if plain:
                m["gpusim.sim_mwips"] = metric(winst / median(plain) / 1e6,
                                               "M/s")
            m["gpusim.warp_insts"] = metric(winst, "count")
            m["gpusim.mem_insts"] = metric(mem, "count")
            m["gpusim.barrier_arrivals"] = metric(st["barrier_arrivals"],
                                                  "count")
            m["gpusim.sectors_per_mem_inst"] = metric(
                st["global_sectors"] / float(mem), "ratio")
            l1 = st["l1_hits"] + st["l1_misses"]
            l2 = st["l2_hits"] + st["l2_misses"]
            m["gpusim.l1_hit_rate"] = metric(st["l1_hits"] / float(l1),
                                             "ratio")
            m["gpusim.l2_hit_rate"] = metric(st["l2_hits"] / float(l2),
                                             "ratio")
            m["gpusim.dram_mb"] = metric(st["dram_bytes"] / MIB, "MiB")
            m["gpusim.dram_queue_kcyc"] = metric(
                st["dram_queue_cycles"] / 1e3, "kcyc")
            m["gpusim.kernel_kcyc"] = metric(r["kernel_cycles"] / 1e3, "kcyc")
            m["gpusim.dev_mem_peak_mb"] = metric(
                r["dev_mem_peak_bytes"] / MIB, "MiB")
            m["dgcf.transfer_kcyc"] = metric(r["transfer_cycles"] / 1e3,
                                             "kcyc")
        else:
            launches = max(r["launches"], 1)
            jobs = float(max(r["operations"], 1))
            m["serve.launches"] = metric(r["launches"], "count")
            m["serve.jobs_per_launch"] = metric(
                r["launched_jobs"] / float(launches), "ratio")
            m["serve.ms_per_launch"] = metric(run_s * 1e3 / launches, "ms")
            m["serve.rejected_frac"] = metric(r["rejected"] / jobs, "ratio")
            m["serve.deadline_missed_frac"] = metric(
                r["deadline_missed"] / jobs, "ratio")
            m["serve.app_error_frac"] = metric(r["app_error"] / jobs, "ratio")
            m["serve.latency_p50_kcyc"] = metric(
                r["latency_p50_cycles"] / 1e3, "kcyc")
            m["serve.latency_p99_kcyc"] = metric(
                r["latency_p99_cycles"] / 1e3, "kcyc")
    if name in workloads.SERVE:
        m["serve.crashed"] = metric(tally.crashed, "count")

    a = alone.result
    if a is not None:
        m["apps.gen_s"] = metric(a["gen_s"], "s")
        m["apps.gen_mb"] = metric(a["gen_bytes"] / MIB, "MiB")
        m["apps.ref_s"] = metric(a["ref_s"], "s")
        m["dgcf.argv_build_s"] = metric(a["argv_build_s"], "s")
        for probe, p in sorted(a["probes"].items()):
            m["gpusim.probe.%s_ns" % probe] = metric(p["ns_per_winst"], "ns/winst")
        m["gpusim.probe.call_allocs"] = metric(
            a["probes"]["call"]["allocs_per_winst"], "count/winst")
        m["ompx.probe.pfor_ns"] = metric(a["pfor"]["ns_per_iter"], "ns/iter")
        m["ompx.probe.pfor_allocs"] = metric(a["pfor"]["allocs_per_iter"],
                                             "count/iter")
    for key in sorted(m):
        log("%-32s %.6g %s" % (key, m[key]["value"], m[key]["unit"]))
    return m


def run_workload(name, seed, seconds, trace, binaries):
    work = os.path.join(build_dir(), "work", "%s-%d-%d" % (name, seed, trace))
    os.makedirs(work, exist_ok=True)
    text = workloads.generate(name, seed)
    with open(os.path.join(work, "input.txt"), "w") as f:
        f.write(text)
    binary_id = file_sha(binaries[0])
    tally = Tally(name, seed, binary_id, operation_count(text))
    log("workload %s seed %d: %d operations, host cores %d, build %s (%s)" % (
        name, seed, tally.ops, host_cores(), BUILD_CONFIG, binary_id))
    if trace:
        metrics = traced(name, seconds, binaries, work, tally)
    else:
        metrics = timed(name, seconds, binaries[0], work, tally)
    tally.check_recorded()
    for p in tally.problems:
        log("FAILURE: " + p)
    return tally, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for BENCHMARK.json's")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        die("unknown workload '%s' (known: %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    binaries = build()

    results = [(n,) + run_workload(n, args.seed, args.seconds, args.trace,
                                    binaries) for n in names]
    if len(results) == 1:
        _, tally, metrics = results[0]
    else:
        log("")
        log("%-18s %12s %12s %16s %15s" % (
            "workload", "run_s [s]", "setup_s [s]", "peak_rss_mb [MiB]",
            "fail_frac [1]"))
        metrics = {}
        for n, t, m in results:
            cells = [("%.6g" % m[k]["value"]) if k in m else "n/a"
                     for k in ("run_s", "setup_s", "peak_rss_mb")]
            log("%-18s %12s %12s %16s %15.4f" % (
                n, cells[0], cells[1], cells[2], t.failed / float(t.attempted)))
            for k, v in m.items():
                metrics["%s/%s" % (n, k)] = v
        tally = Tally("all", args.seed, "", 0)
        tally.attempted = sum(t.attempted for _, t, _ in results)
        tally.failed = sum(t.failed for _, t, _ in results)
        tally.problems = [p for _, t, _ in results for p in t.problems]
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
