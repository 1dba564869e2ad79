#!/usr/bin/env python3
"""Builds flashbench, runs the benchmark workloads and checks correctness.

Full sweep (prints every metric, writes benchmark/out/results.json and one
<workload>.spans.json per workload, exits 1 if any correctness check fails).
Each repeat is a fresh flashbench process replaying one round of the
workload's volumes with tracing off; one traced process follows:

    python3 benchmark/run.py [--seed=42] [--repeats=5] [--workloads=a,b] [--quick]

--quick is the self-test: every workload at 0.2 of the default size, one
repeat, plus a threads=1 run whose virtual metrics must equal the threads=4
run's and a held-out-seed run whose virtual metrics must differ.

One measured run of one workload, printing a single JSON line with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named in
BENCHMARK.json:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, "build")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ["homes-wb", "usr-wt-ghost", "mail-native", "kv-zipf"]
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
THREADS = 4
QUICK_SCALE = 0.2

# Per module: the end-to-end metrics its per-layer metrics should move, the
# workload where it does most of its work, and one where it does little.
LAYERS = {
    "trace": ("setup_s", "usr-wt-ghost", "kv-zipf"),
    "core": ("replay_mops, setup_s", "usr-wt-ghost", "homes-wb"),
    "cache": ("replay_mops, read_miss_pct, p50_us", "homes-wb, mail-native", "kv-zipf"),
    "policy": ("write_amp, read_miss_pct", "usr-wt-ghost", "the admit-all three"),
    "ssc": ("write_amp, erases_per_gib, p9999_us, iops", "homes-wb", "mail-native"),
    "persist": ("p50_us, write_amp, recovery_ms", "homes-wb", "usr-wt-ghost"),
    "sparsemap": ("map_memory_mib", "usr-wt-ghost", "mail-native"),
    "ssd": ("write_amp, iops", "mail-native", "the other three"),
    "ftl": ("failed_pct", "homes-wb", "kv-zipf"),
    "flash": ("iops, write_amp, erases_per_gib", "mail-native, homes-wb", "usr-wt-ghost"),
    "disk": ("p50_us, p9999_us", "usr-wt-ghost, homes-wb", "kv-zipf"),
    "kv": ("replay_mops, write_amp, read_miss_pct, p9999_us", "kv-zipf", "the other three"),
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds benchmark/build/flashbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: %s has no src/ to build; run from a full checkout" % ROOT)
    steps = [["cmake", "--build", BUILD_DIR, "--target", "flashbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "flashbench")


def flashbench(binary, workload, seed, seconds=0, min_rounds=1, traced=False,
               threads=THREADS, scale=1.0, spans=None):
    """Runs one flashbench process and returns its parsed JSON result."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--min-rounds=%d" % min_rounds, "--traced=%d" % int(traced),
           "--threads=%d" % threads, "--scale=%g" % scale]
    if spans:
        cmd.append("--spans=" + spans)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s exited %d without a result" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ---------------------------------------------------------------------------
# One measured run (the harness form)
# ---------------------------------------------------------------------------

def measured_run(args):
    names = [m["name"] for m in load_benchmark()["per_layer" if args.trace else "end_to_end"]]
    binary = build()
    spans = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, args.workload + ".spans.json")
    result = flashbench(binary, args.workload, args.seed, seconds=args.seconds,
                        min_rounds=1 if args.trace else 2, traced=bool(args.trace), spans=spans)
    metrics = {}
    for name in names:
        m = result["metrics"][name]
        metrics[name] = {"value": statistics.median(m["values"]), "unit": m["unit"]}
    for error in result["errors"]:
        print("correctness: " + error, file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Full sweep
# ---------------------------------------------------------------------------

def virtual_values(result):
    return {k: v["values"] for k, v in result["metrics"].items() if v["clock"] == "virtual"}


def check_identical(results, what, errors):
    """Every virtual metric must read the same in every repeat of `results`."""
    first = virtual_values(results[0])
    for r in results:
        for name, values in virtual_values(r).items():
            if any(v != first[name][0] for v in values):
                errors.append("%s: %s %r vs %r" % (what, name, first[name][0], values))
                return


def summarize(untraced, traced):
    """Metric -> unit, clock, median, quartiles and values. End-to-end and
    counter values come from the untraced runs; host-time layer values that
    only a traced repeat measures come from the traced run."""
    out = {}
    for r in untraced:
        for name, m in r["metrics"].items():
            entry = out.setdefault(name, {"unit": m["unit"], "clock": m["clock"], "values": []})
            entry["values"].extend(m["values"])
    for name, m in traced["metrics"].items():
        if name not in out:
            out[name] = {"unit": m["unit"], "clock": m["clock"], "values": list(m["values"])}
    for entry in out.values():
        entry["q1"], entry["median"], entry["q3"] = quartiles(entry["values"])
    return out


def check_units(bench, summary, workload, errors):
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            got = summary.get(m["name"])
            if got is None:
                errors.append("%s: metric %s missing" % (workload, m["name"]))
            elif got["unit"] != m["unit"]:
                errors.append("%s: %s unit %s, BENCHMARK.json says %s"
                              % (workload, m["name"], got["unit"], m["unit"]))


def quick_checks(binary, workload, seed, reference, errors):
    """threads=1 must reproduce the threads=4 virtual metrics bit for bit; the
    held-out seed must change them (the seed reaches the generator)."""
    single = flashbench(binary, workload, seed, threads=1, scale=QUICK_SCALE)
    errors.extend("%s threads=1: %s" % (workload, e) for e in single["errors"])
    check_identical([reference, single], workload + " threads=1 vs threads=4", errors)
    other = flashbench(binary, workload, HELD_OUT_SEED, scale=QUICK_SCALE)
    errors.extend("%s seed %d: %s" % (workload, HELD_OUT_SEED, e) for e in other["errors"])
    if virtual_values(other)["iops"] == virtual_values(reference)["iops"]:
        errors.append("%s: seed %d left iops unchanged" % (workload, HELD_OUT_SEED))


def fmt(v):
    return "%.6g" % v


def print_tables(bench, results, workloads):
    print("\nEnd-to-end (median [q1, q3] over repeats; virtual = modelled system, host = simulator)")
    print("%-16s %-8s %-7s %-13s %14s  %s" % ("metric", "unit", "clock", "workload", "median",
                                             "[q1, q3]"))
    e2e = [m["name"] for m in bench["end_to_end"]] + ["failed_pct", "requests"]
    for name in e2e:
        for w in workloads:
            m = results[w]["metrics"].get(name)
            if m is None:
                continue  # reported by check_units
            print("%-16s %-8s %-7s %-13s %14s  [%s, %s]" % (
                name, m["unit"], m["clock"], w, fmt(m["median"]), fmt(m["q1"]), fmt(m["q3"])))
    print("\nPer-layer (median; host times from the traced run, counts from the untraced runs)")
    header = "%-30s %-6s" % ("metric", "unit") + "".join("%14s" % w for w in workloads)
    last_module = None
    for m in bench["per_layer"]:
        module = m["name"].split(".")[0]
        if module != last_module:
            moves, heavy, light = LAYERS[module]
            print("\n[%s] moves %s; heavy: %s; light: %s" % (module, moves, heavy, light))
            print(header)
            last_module = module
        cells = []
        for w in workloads:
            got = results[w]["metrics"].get(m["name"])
            cells.append("%14s" % (fmt(got["median"]) if got else "missing"))
        print("%-30s %-6s" % (m["name"], m["unit"]) + "".join(cells))


def sweep(args):
    bench = load_benchmark()
    binary = args.binary or build()
    scale = QUICK_SCALE if args.quick else 1.0
    repeats = 1 if args.quick else args.repeats
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        sys.exit("run.py: unknown workload(s) %s; known: %s" % (",".join(unknown), ",".join(WORKLOADS)))
    out_dir = os.path.join(OUT_DIR, "quick") if args.quick else OUT_DIR
    os.makedirs(out_dir, exist_ok=True)
    errors = []
    results = {}
    for w in workloads:
        print("running %s: %d repeat(s) + traced run" % (w, repeats), file=sys.stderr)
        untraced = [flashbench(binary, w, args.seed, scale=scale) for _ in range(repeats)]
        traced = flashbench(binary, w, args.seed, traced=True, scale=scale,
                            spans=os.path.join(out_dir, w + ".spans.json"))
        for r in untraced + [traced]:
            errors.extend("%s: %s" % (w, e) for e in r["errors"])
        check_identical(untraced + [traced], w + " virtual metrics across repeats", errors)
        results[w] = {"volume_seeds": untraced[0]["volume_seeds"],
                      "metrics": summarize(untraced, traced)}
        check_units(bench, results[w]["metrics"], w, errors)
        if args.quick:
            quick_checks(binary, w, args.seed, untraced[0], errors)

    print_tables(bench, results, workloads)
    summary = {"seed": args.seed, "held_out_seed": HELD_OUT_SEED, "repeats": repeats,
               "scale": scale, "threads": THREADS, "correct": not errors, "errors": errors,
               "workloads": results}
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("\nwrote %s" % os.path.join(out_dir, "results.json"))
    for e in errors:
        print("FAILED: " + e)
    print("correct" if not errors else "%d correctness failure(s)" % len(errors))
    return 0 if not errors else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset of " + ",".join(WORKLOADS))
    parser.add_argument("--quick", action="store_true", help="self-test at reduced size")
    parser.add_argument("--binary", help="use this flashbench instead of building one")
    parser.add_argument("--workload", choices=WORKLOADS, help="one measured run of this workload")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload:
        return measured_run(args)
    return sweep(args)


if __name__ == "__main__":
    sys.exit(main())
