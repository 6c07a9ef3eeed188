#!/usr/bin/env python3
"""The performance ledger: end-to-end and per-layer metrics of four
workloads, with their outputs checked.

  ledger.py bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
      One time-boxed run of one workload (the BENCHMARK.json command).
      The last stdout line is {"correct", "attempted", "failed",
      "metrics"}: the end-to-end metrics with --trace 0, the per-layer
      metrics with --trace 1.
  ledger.py run [--build DIR] --out DIR [--seed N]
      Every workload in its own process, then one traced process each;
      prints every metric and the per-layer table, writes the records,
      traces and emitted designs under --out, exits 1 on any failed check.
  ledger.py compare A B
      Median and quartiles of every (workload, end-to-end metric) in two
      directories of result files, with a verdict against the bounds.
  ledger.py pin [--build DIR]
      Rewrite expected.json from default-seed runs (after a deliberate
      QoR change).

The driver (bench_ledger) is built from the repository's sources into
--build, or $CARGO_TARGET_DIR, or .bench_build, on first use.
"""

import argparse
import concurrent.futures
import fcntl
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
EXPECTED = os.path.join(LEDGER_DIR, "expected.json")
WORKLOADS = ["kernel-dse", "model-dse", "model-flow", "serve-replay"]
DEFAULT_SEED = 20220402
# Workloads whose seed orders their inputs without changing any design.
SEED_FREE = {"model-dse", "model-flow", "serve-replay"}
# Environment hooks of the library that change what is measured.
STRIPPED_ENV = ("SCALEHLS_CACHE_DIR", "SCALEHLS_DSE_AUDIT",
                "SCALEHLS_VERIFY_EACH")
# Untraced passes per workload for `run` (a pass of kernel-dse is the
# whole Table III experiment).
RUN_PASSES = {"kernel-dse": 2, "model-dse": 5, "model-flow": 5,
              "serve-replay": 3}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def default_build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.abspath(target)


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def build(build_dir):
    """Configure and build bench_ledger in build_dir; return its path.
    Build output goes to stderr so stdout keeps only the result."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", LEDGER_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(threads())], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_ledger")


def run_driver(binary, workload, seed, work_dir, passes=1, seconds=0,
               trace=None, emit_dir=None):
    """One driver process; returns its JSON record."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads()), "--passes", str(passes),
           "--seconds", str(seconds), "--work-dir", work_dir]
    if trace:
        cmd += ["--trace", trace]
    if emit_dir:
        cmd += ["--emit-dir", emit_dir]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s produced no record (exit %d)"
                           % (workload, proc.returncode))
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

QOR_FIELDS = ("latency", "interval", "dsp", "lut", "bram18k")


def speedup_geomean(record):
    """Geometric mean of baseline over design latency (kernel-dse, Table
    III) or interval (model workloads, Table V / Fig. 8); 0 when no
    design has a baseline."""
    field = "latency" if record["workload"] == "kernel-dse" else "interval"
    ratios = [d["baseline"] / d[field] for d in record["designs"]
              if d["baseline"] > 0 and d[field] > 0]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def pinned_outputs(record):
    """What expected.json pins of a default-seed record: the QoR of every
    design (serve-replay: of every cold reply, by request)."""
    return {"speedup_geomean": round(speedup_geomean(record), 6),
            "designs": {d["name"]: {f: d[f] for f in QOR_FIELDS}
                        for d in record["designs"]}}


def check_pinned(record):
    """Failures against expected.json: at the default seed, and at every
    seed for the workloads whose seed only orders their inputs."""
    if record["seed"] != DEFAULT_SEED and record["workload"] not in SEED_FREE:
        return []
    with open(EXPECTED) as f:
        expected = json.load(f)[record["workload"]]
    actual = pinned_outputs(record)
    failures = []
    if actual["speedup_geomean"] != expected["speedup_geomean"]:
        failures.append("speedup geomean %s, expected %s"
                        % (actual["speedup_geomean"],
                           expected["speedup_geomean"]))
    for name in sorted(set(expected["designs"]) | set(actual["designs"])):
        want = expected["designs"].get(name)
        got = actual["designs"].get(name)
        if want != got:
            failures.append("%s: QoR %s, expected %s" % (name, got, want))
    return failures


def check_syntax(emit_dir, designs, build_dir):
    """g++ -fsyntax-only over every distinct emitted design. Verdicts are
    cached by content hash. Returns (checked, failures, skipped)."""
    files = [os.path.join(emit_dir, d["emit"]) for d in designs if d["emit"]]
    if not files:
        return 0, [], False
    if not shutil.which("g++"):
        return 0, [], True
    cache = os.path.join(build_dir, "syntax-ok")
    os.makedirs(cache, exist_ok=True)
    todo = {}
    for path in files:
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if not os.path.exists(os.path.join(cache, digest)):
            todo.setdefault(digest, path)

    def compile_one(item):
        digest, path = item
        proc = subprocess.run(["g++", "-std=c++17", "-fsyntax-only", path],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode == 0:
            open(os.path.join(cache, digest), "w").close()
            return None
        first_error = (proc.stderr.strip().splitlines() or [""])[0]
        return "%s does not compile: %s" % (os.path.basename(path),
                                            first_error)

    with concurrent.futures.ThreadPoolExecutor(threads()) as pool:
        failures = [f for f in pool.map(compile_one, todo.items()) if f]
    return len(files), failures, False


def check(record, emit_dir, build_dir):
    """All output checks of one record: (attempted, failures, notes)."""
    failures = list(record["failures"]) + check_pinned(record)
    checked, syntax_failures, skipped = check_syntax(
        emit_dir, record["designs"], build_dir)
    failures += syntax_failures
    notes = []
    if skipped:
        notes.append("host-compiler syntax check: skipped (no g++)")
    if not record["ndebug"]:
        notes.append("not a Release build: invalid for comparison")
    attempted = sum(len(p["items"]) for p in record["passes"]) + checked
    return max(1, attempted), failures, notes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latency_items(record, passes):
    """The latency of each design flow (serve-replay: of each request's
    warm replies) as its median over the passes. Percentiles over these
    stay put where pooling the raw samples of a few distinct items would
    land between their clusters."""
    samples = {}
    for p in passes:
        for i in p["items"]:
            if record["workload"] != "serve-replay" or i["phase"] == "warm":
                samples.setdefault(i["name"], []).append(i["ms"])
    return [statistics.median(v) for v in samples.values()]


def e2e_metrics(record):
    passes = [p for p in record["passes"] if not p["traced"]]
    items = latency_items(record, passes)
    return {
        "setup_s": median([p["setup_s"] for p in passes]),
        "e2e_s": median([p["e2e_s"] for p in passes]),
        "points_per_s": median([p["points"] / p["e2e_s"] for p in passes]),
        "item_p50_ms": percentile(items, 50),
        "item_p90_ms": percentile(items, 90),
        "peak_rss_mb": record["peak_rss_mb"],
    }


# Counters the driver reports; a workload that bypasses a layer leaves
# that layer's counters at 0.
COUNTERS = {
    "frontend.ops_created", "ir.ops_created", "emit.bytes",
    "dse.evaluations", "dse.memo_hits", "dse.misses",
    "dse.full_materializations", "dse.overlay_materializations",
    "dse.plan_composed", "dse.plan_infeasible", "dse.plan_mismatches",
    "dse.refinement_steps", "estimate.cache_entries",
    "estimate.func_lookups", "estimate.band_lookups",
    "estimate.schedule_lookups", "estimate.plan_lookups",
    "estimate.snapshot_entries", "estimate.snapshot_bytes",
    "serve.failed", "serve.response_bytes",
}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(record, names):
    """Per-layer metrics from the traced passes: a "<layer>_s" metric is
    the total time of that layer's calls; counters come from the same
    passes; the tracing overhead compares traced with untraced passes."""
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]

    def counter(name, p):
        return p["counters"].get(name, 0.0)

    def per_pass(name, p):
        if name == "dse.zero_ir_share":
            return ratio(counter("dse.plan_composed", p)
                         + counter("dse.plan_infeasible", p),
                         counter("dse.misses", p))
        if name == "dse.full_per_point":
            return ratio(counter("dse.full_materializations", p),
                         counter("dse.evaluations", p))
        if name.endswith("_hit_rate"):
            tier = name[len("estimate."):-len("_hit_rate")]
            return ratio(counter("estimate.%s_hits" % tier, p),
                         counter("estimate.%s_lookups" % tier, p))
        if name == "trace.unattributed_pct":
            item = p["layers"].get("item", {"self_s": 0, "total_s": 0})
            return 100 * ratio(item["self_s"], item["total_s"])
        if name.startswith("serve.") and name.endswith("_ms"):
            # serve.<phase>_p<N>_ms or serve.<kind>_<phase>_p50_ms
            parts = name[len("serve."):-len("_ms")].split("_")
            kind = parts[0] if len(parts) == 3 else None
            phase, pct = parts[-2], int(parts[-1][1:])
            values = [i["ms"] for i in p["items"] if i["phase"] == phase
                      and (kind is None or i["kind"] == kind)]
            return percentile(values, pct) if values else 0.0
        if name.endswith("_s"):
            return p["layers"].get(name[:-2], {"total_s": 0.0})["total_s"]
        if name in COUNTERS:
            return counter(name, p)
        raise KeyError("no per-layer metric named " + name)

    metrics = {}
    for name in names:
        if name == "trace.overhead_pct":
            metrics[name] = 100 * (ratio(median([p["e2e_s"] for p in traced]),
                                         median([p["e2e_s"] for p in plain]))
                                   - 1)
        elif name == "qor.speedup_geomean":
            metrics[name] = speedup_geomean(record)
        else:
            metrics[name] = median([per_pass(name, p) for p in traced])
    return metrics


def layer_table(record):
    """Rows (name, total, self, count) of the traced passes, by total."""
    traced = [p for p in record["passes"] if p["traced"]]
    rows = {}
    for p in traced:
        for name, t in p["layers"].items():
            row = rows.setdefault(name, [0.0, 0.0, 0])
            row[0] += t["total_s"] / len(traced)
            row[1] += t["self_s"] / len(traced)
            row[2] += t["count"] / len(traced)
    return sorted(((n,) + tuple(r) for n, r in rows.items()),
                  key=lambda r: -r[1])


def provenance(record):
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "seed": record["seed"],
            "threads": record["threads"], "nproc": record["nproc"],
            "hardware_concurrency": record["hardware_concurrency"],
            "ndebug": record["ndebug"],
            "valid_for_comparison": record["ndebug"]}


def result(record, traced, attempted, failures, notes, spec):
    kind = "per_layer" if traced else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    values = (layer_metrics(record, names) if traced
              else e2e_metrics(record))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    return {
        "workload": record["workload"], "seed": record["seed"],
        "trace": int(traced), "correct": not failures,
        "attempted": attempted, "failed": min(attempted, len(failures)),
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
        "failures": failures, "notes": notes,
        "provenance": provenance(record),
        "passes": len(record["passes"]),
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def scratch_dir(build_dir, name):
    path = os.path.join(build_dir, "runs", "%s-%d" % (name, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def build_dir_of(args):
    build_arg = getattr(args, "build", None)
    return os.path.abspath(build_arg) if build_arg else default_build_dir()


def cmd_bench(args):
    spec = benchmark_spec()
    build_dir = build_dir_of(args)
    binary = build(build_dir)
    work = scratch_dir(build_dir, args.workload)
    seconds = args.seconds or spec["run_seconds"]
    try:
        trace = os.path.join(work, "trace.json") if args.trace else None
        record = run_driver(binary, args.workload, args.seed, work,
                            seconds=seconds, trace=trace, emit_dir=work)
        attempted, failures, notes = check(record, work, build_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = result(record, bool(args.trace), attempted, failures, notes, spec)
    for failure in failures:
        log("FAILED:", failure)
    for note in notes:
        log("note:", note)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = "%s-%d-t%d-%d.json" % (args.workload, args.seed, args.trace,
                                      int(time.time() * 1e3))
        with open(os.path.join(args.out, name), "w") as f:
            json.dump(out, f, indent=1)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


def print_metrics(out, passes):
    print("  %-34s %14s  %s" % ("metric", "value", "unit"))
    for name, m in out["metrics"].items():
        print("  %-34s %14.6g  %s" % (name, m["value"], m["unit"]))
    print("  (%d passes; %d checks, %d failed)"
          % (passes, out["attempted"], out["failed"]))


def cmd_run(args):
    spec = benchmark_spec()
    build_dir = build_dir_of(args)
    binary = build(build_dir)
    os.makedirs(args.out, exist_ok=True)
    any_failed = False
    for workload in WORKLOADS:
        emit = os.path.join(args.out, "emit", workload)
        work = scratch_dir(build_dir, workload)
        trace = os.path.join(args.out, "%s.trace.json" % workload)
        try:
            record = run_driver(binary, workload, args.seed, work,
                                passes=RUN_PASSES[workload],
                                emit_dir=emit)
            traced = run_driver(binary, workload, args.seed, work,
                                passes=2, trace=trace)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted, failures, notes = check(record, emit, build_dir)
        failures += ["traced run: " + f for f in traced["failures"]]
        e2e = result(record, False, attempted, failures, notes, spec)
        layers = result(traced, True, attempted, failures, notes, spec)
        e2e["speedup_geomean"] = speedup_geomean(record)
        with open(os.path.join(args.out, "%s.json" % workload), "w") as f:
            json.dump(e2e, f, indent=1)
        with open(os.path.join(args.out, "%s.layers.json" % workload),
                  "w") as f:
            json.dump(dict(layers, table=layer_table(traced)), f, indent=1)
        with open(os.path.join(args.out, "%s.record.json" % workload),
                  "w") as f:
            json.dump(record, f)

        print("== %s (seed %d, %d threads, %s) =="
              % (workload, args.seed, record["threads"],
                 "Release" if record["ndebug"] else "NOT Release"))
        print_metrics(e2e, len(record["passes"]))
        if workload != "serve-replay":
            print("  qor speedup geomean: %.1fx over %d designs"
                  % (e2e["speedup_geomean"], len(record["designs"])))
        print("  per-layer (traced pass; trace %s):" % trace)
        print("  %-28s %10s %10s %8s" % ("span", "total_s", "self_s",
                                         "count"))
        for name, total, self_s, count in layer_table(traced):
            print("  %-28s %10.4f %10.4f %8d" % (name, total, self_s, count))
        for name, m in layers["metrics"].items():
            if not name.endswith("_s") and m["value"]:
                print("  %-34s %14.6g  %s" % (name, m["value"], m["unit"]))
        for note in notes:
            print("  note:", note)
        for failure in failures:
            print("  FAILED:", failure)
        any_failed |= bool(failures)
    with open(os.path.join(args.out, "provenance.json"), "w") as f:
        json.dump(provenance(record), f, indent=1)
    return 1 if any_failed else 0


def load_results(directory):
    results = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict) or data.get("trace") != 0 \
                or "metrics" not in data:
            continue
        for name, m in data["metrics"].items():
            results.setdefault((data["workload"], name), []).append(
                m["value"])
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(args):
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_results(args.a), load_results(args.b)
    print("%-13s %-13s %5s %33s %33s  %s" % (
        "workload", "metric", "bound", "A median [q1, q3] (n)",
        "B median [q1, q3] (n)", "verdict"))
    verdicts = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = bounds.get(name)
        if not metric:
            continue
        qa, qb = quartiles(a[key]), quartiles(b[key])
        spread = max(ratio(qa[2] - qa[0], qa[1]),
                     ratio(qb[2] - qb[0], qb[1]))
        change = ratio(qb[1] - qa[1], qa[1])
        if spread > metric["bound"]:
            verdict = "unresolved"
        elif abs(change) <= metric["bound"]:
            verdict = "agree"
        else:
            verdict = "differ"
        verdicts.append(verdict)
        print("%-13s %-13s %5.2f %12.5g [%.5g, %.5g] (%d) %12.5g "
              "[%.5g, %.5g] (%d)  %s (%+.1f%%, spread %.1f%%)" % (
                  workload, name, metric["bound"], qa[1], qa[0], qa[2],
                  len(a[key]), qb[1], qb[0], qb[2], len(b[key]), verdict,
                  100 * change, 100 * spread))
    return 0 if verdicts and all(v == "agree" for v in verdicts) else 1


def cmd_pin(args):
    build_dir = build_dir_of(args)
    binary = build(build_dir)
    expected = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        work = scratch_dir(build_dir, workload)
        try:
            record = run_driver(binary, workload, DEFAULT_SEED, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if record["failures"]:
            log("%s failed its own checks: %s" % (workload,
                                                  record["failures"][:3]))
            return 1
        expected[workload] = pinned_outputs(record)
        log("pinned", workload)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    bench = sub.add_parser("bench")
    bench.add_argument("--workload", choices=WORKLOADS, required=True)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--seconds", type=float,
                       help="default: BENCHMARK.json run_seconds")
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.add_argument("--out", help="also save the result file here")
    run = sub.add_parser("run")
    run.add_argument("--build")
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    pin = sub.add_parser("pin")
    pin.add_argument("--build")
    args = parser.parse_args()
    try:
        return {"bench": cmd_bench, "run": cmd_run, "compare": cmd_compare,
                "pin": cmd_pin}[args.command](args)
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        log("ledger: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
