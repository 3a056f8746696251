#!/usr/bin/env python3
"""Compare a fresh update_time run against the committed perf baseline.

Usage:
    ./build/update_time --benchmark_out=fresh.json --benchmark_out_format=json
    python3 tools/bench_diff.py fresh.json [--baseline BENCH_update_time.json]
        [--threshold 0.25]
    python3 tools/bench_diff.py --doc [--baseline BENCH_update_time.json]

Per benchmark family present in BOTH files, compares ns/op (real_time for
per-op benchmarks, items_per_second inverted when available) and reports the
relative change. Exits 1 if any family regressed by more than --threshold
(default 25%); new or removed families are reported but never fail the run.
A file run with --benchmark_repetitions=N holds N runs per family: each
family is compared on its median over them, with its min–max printed beside
it (single-run files compare as before).

--doc renders the baseline as the README's perf-table rows (markdown, ns per
item for per-op families, MB/s for byte-throughput families such as the
snapshot save/load benches) so the documented numbers are always emitted
from the committed measurements instead of retyped — regenerate the README
table with it whenever the baseline is refreshed.

Refreshing the baseline: run update_time from a quiet machine (it writes
BENCH_update_time.json in the working directory by default), eyeball the
diff against the committed file, and commit the new JSON alongside the
change that explains it. CI runs this script as a non-blocking step —
shared-runner noise makes hard gating counterproductive, but the log keeps
the trend visible on every PR.

Each JSON records the dispatched SIMD tier in its context
("covstream_isa", stamped by bench/benchmark_json_main.hpp). Comparing a
scalar run against an avx2 baseline (or vice versa) measures the dispatch
choice, not the change under review, so mismatched files are refused —
rerun with COVSTREAM_ISA set to the baseline's tier instead.
"""

import argparse
import json
import statistics
import sys


def load_isa(path):
    """The 'covstream_isa' context entry, or None for pre-kernel JSONs."""
    with open(path) as fh:
        data = json.load(fh)
    return data.get("context", {}).get("covstream_isa")


def check_same_isa(fresh_path, baseline_path):
    """Refuses cross-ISA comparisons; files without the key pass (legacy)."""
    fresh_isa = load_isa(fresh_path)
    base_isa = load_isa(baseline_path)
    if fresh_isa and base_isa and fresh_isa != base_isa:
        print(f"refusing to compare across SIMD tiers: {fresh_path} was "
              f"measured under '{fresh_isa}' but {baseline_path} under "
              f"'{base_isa}'. Rerun the benchmark with "
              f"COVSTREAM_ISA={base_isa} (or refresh the baseline).",
              file=sys.stderr)
        return False
    return True


def load_runs(path):
    """name -> the benchmark's iteration runs, one per repetition.

    A `--benchmark_repetitions=N` run repeats every name N times; keeping
    them all (instead of letting a dict keep the last) is what lets the
    comparison use the median and show the spread. Aggregate rows
    (mean/median/stddev) are skipped: they are recomputed here.
    """
    with open(path) as fh:
        data = json.load(fh)
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        runs.setdefault(bench["name"], []).append(bench)
    return runs


def load_family_times(path):
    """name -> WALL ns per item, one value per repetition.

    google-benchmark's items_per_second divides by CPU time, which
    misreports pool-parallel benchmarks (the driving thread sleeps while
    workers run). Items per iteration is reconstructed from
    items_per_second * cpu_time, and wall time divided by it; serial
    benchmarks come out identical to 1e9 / items_per_second.
    """
    times = {}
    for name, runs in load_runs(path).items():
        for bench in runs:
            unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
                bench.get("time_unit", "ns")]
            real_ns = bench["real_time"] * unit
            items = bench.get("items_per_second")
            cpu_ns = bench.get("cpu_time", 0) * unit
            if items and cpu_ns:
                real_ns /= items * cpu_ns * 1e-9  # items per iteration
            times.setdefault(name, []).append(real_ns)
    return times


def load_qps(path):
    """name -> {"qps": [req/s], "p50_us": [...], "p99_us": [...]} (one value
    per repetition) for the serve benchmarks (bench/serve_qps.cpp), which
    publish a `qps` counter.

    These are a separate family on purpose: direction is inverted (higher
    throughput is better, so a DROP is the regression), and tail latency is
    tracked alongside — a change can hold QPS while blowing up p99, which
    per-op averaging would hide.
    """
    out = {}
    for name, runs in load_runs(path).items():
        runs = [bench for bench in runs if "qps" in bench]
        if not runs:
            continue
        out[name] = {key: [bench[key] for bench in runs
                           if bench.get(key) is not None]
                     for key in ("qps", "p50_us", "p99_us")}
    return out


def load_byte_rates(path):
    """name -> MB/s, one value per repetition, for families that report
    bytes_per_second."""
    rates = {}
    for name, runs in load_runs(path).items():
        values = [bench["bytes_per_second"] / 1e6 for bench in runs
                  if bench.get("bytes_per_second")]
        if values:
            rates[name] = values
    return rates


def median(values):
    """The median of a family's repetitions; None when it has none."""
    return statistics.median(values) if values else None


def spread(values, fmt):
    """'min–max' over a family's repetitions, or '' for a single run."""
    if len(values) < 2:
        return ""
    return f"{min(values):{fmt}}–{max(values):{fmt}}"


def emit_doc_rows(baseline):
    """Print the README perf-table rows from the committed baseline."""
    times = load_family_times(baseline)
    rates = load_byte_rates(baseline)
    qps = load_qps(baseline)
    print("| benchmark | measured |")
    print("|---|---:|")
    for name in sorted(times):
        if name in qps:
            entry = qps[name]
            p99 = median(entry["p99_us"])
            p99 = f", p99 {p99:.1f} µs" if p99 is not None else ""
            print(f"| `{name}` | {median(entry['qps']) / 1e3:.0f}k req/s{p99} |")
        elif name in rates:
            print(f"| `{name}` | {median(rates[name]):.0f} MB/s |")
        else:
            print(f"| `{name}` | {median(times[name]):.1f} ns/item |")
    return 0


def print_table(title, rows, fmt):
    """rows: (name, baseline median, fresh median, (baseline range, fresh
    range), status). A range column is printed only when some family in the
    table has repetitions."""
    if not rows:
        return
    width = max(len(r[0]) for r in rows)
    show_ranges = any(r[3][0] or r[3][1] for r in rows)
    range_width = max([len(x) for r in rows for x in r[3]] + [len("fresh range")])
    header = f"{title:<{width}}  {'baseline':>12}  {'fresh':>12}"
    if show_ranges:
        header += f"  {'base range':>{range_width}}  {'fresh range':>{range_width}}"
    print(header + "  status")
    for name, b, f, ranges, flag in rows:
        line = (f"{name:<{width}}  "
                + (f"{b:12{fmt}}" if b is not None else f"{'-':>12}") + "  "
                + (f"{f:12{fmt}}" if f is not None else f"{'-':>12}"))
        if show_ranges:
            line += "".join(f"  {x or '-':>{range_width}}" for x in ranges)
        print(f"{line}  {flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="?",
                        help="JSON from a fresh update_time run")
    parser.add_argument("--baseline", default="BENCH_update_time.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that fails the run")
    parser.add_argument("--doc", action="store_true",
                        help="emit the README perf-table rows from the "
                             "baseline and exit")
    args = parser.parse_args()

    if args.doc:
        return emit_doc_rows(args.baseline)
    if args.fresh is None:
        parser.error("fresh JSON required unless --doc is given")

    if not check_same_isa(args.fresh, args.baseline):
        return 1

    fresh = load_family_times(args.fresh)
    base = load_family_times(args.baseline)
    fresh_qps = load_qps(args.fresh)
    base_qps = load_qps(args.baseline)
    # QPS families compare on throughput (inverted direction) below, not on
    # the ns-per-item table.
    for name in list(fresh_qps) + list(base_qps):
        fresh.pop(name, None)
        base.pop(name, None)

    regressions = []
    rows = []
    for name in sorted(set(fresh) | set(base)):
        b = median(base.get(name, []))
        f = median(fresh.get(name, []))
        ranges = (spread(base.get(name, []), ".1f"),
                  spread(fresh.get(name, []), ".1f"))
        if b is None:
            rows.append((name, None, f, ranges, "new"))
            continue
        if f is None:
            rows.append((name, b, None, ranges, "removed"))
            continue
        ratio = f / b - 1.0
        flag = ""
        if ratio > args.threshold:
            flag = "REGRESSION"
            regressions.append((name, ratio))
        elif ratio < -args.threshold:
            flag = "improved"
        rows.append((name, b, f, ranges, flag or f"{ratio:+.1%}"))
    print_table("benchmark", rows, ".1f")
    print(f"(ns per item, median over repetitions; threshold "
          f"±{args.threshold:.0%})")

    qps_rows = []
    for name in sorted(set(fresh_qps) | set(base_qps)):
        b_runs = base_qps.get(name, {"qps": [], "p99_us": []})
        f_runs = fresh_qps.get(name, {"qps": [], "p99_us": []})
        b, f = median(b_runs["qps"]), median(f_runs["qps"])
        ranges = (spread(b_runs["qps"], ".0f"), spread(f_runs["qps"], ".0f"))
        if b is None:
            qps_rows.append((name, None, f, ranges, "new"))
            continue
        if f is None:
            qps_rows.append((name, b, None, ranges, "removed"))
            continue
        drop = 1.0 - f / b  # higher is better: a drop regresses
        flags = []
        if drop > args.threshold:
            flags.append("QPS REGRESSION")
            regressions.append((name, -drop))
        elif drop < -args.threshold:
            flags.append("improved")
        b_p99, f_p99 = median(b_runs["p99_us"]), median(f_runs["p99_us"])
        if b_p99 and f_p99 and f_p99 / b_p99 - 1.0 > args.threshold:
            flags.append(f"P99 REGRESSION ({b_p99:.1f} -> {f_p99:.1f} µs)")
            regressions.append((name + " [p99]", f_p99 / b_p99 - 1.0))
        qps_rows.append((name, b, f, ranges, " ".join(flags) or f"{-drop:+.1%}"))
    if qps_rows:
        print()
        print_table("serve benchmark", qps_rows, ".0f")
        print(f"(requests per second, median over repetitions, higher is "
              f"better; p99 tracked at the same ±{args.threshold:.0%})")

    if regressions:
        print(f"\n{len(regressions)} famil{'y' if len(regressions) == 1 else 'ies'} "
              f"regressed beyond {args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:+.1%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
