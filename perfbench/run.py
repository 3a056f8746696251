#!/usr/bin/env python3
"""The covstream benchmark: one command runs one named workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the shipped
`covstream_cli` (by the repository's own CMake rules) plus the benchmark's
programs into .bench_build/; every input is generated from --seed, and the
program under test only ever sees those generated inputs.

Workloads (see README.md for why each exists):
  file_kcover       covstream_cli --cmd=ingest, then --cmd=solve, on a
                    seeded zipf edge file that saturates the sketch early
                    (its traced run also replays the sharded worker/merge
                    path over the same file).
  wire_ingest       a --cmd=serve server; 4 connections, each streaming
                    16-pair ingest lines into its own tenant (n=100, n=1000).

Every measured process runs on one CPU, kept from idling (see main and
IdleSpinner), and timings have that CPU's host steal subtracted.

--trace 0 measures the end-to-end metrics with nothing traced; --trace 1
replays the same seeded inputs through each layer's public functions with
spans (perfbench/src/trace.cpp) and reports the per-layer metrics. Every
metric is printed as `name value unit`; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A failed output check ends
the run with no numbers and a nonzero exit code.
"""

import argparse
import hashlib
import json
import math
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TARGETS = ["covstream_cli", "perfbench_gen", "perfbench_load", "perfbench_trace"]

# Batch job parameters; must match BatchSpec in perfbench/src/inputs.hpp.
N_SETS, K, EPS, SKETCH_SEED = 500, 20, 0.15, 7
# Greedy on the sketch is a (1 - 1/e - eps)-approximation (Theorem 3.1).
MIN_COVER_RATIO = 1.0 - 1.0 / 2.718281828459045 - EPS
SETUPS = 3  # batch set-ups per run; setup_s is their median
# The CPU every measured process is confined to (see main).
MEASURE_CPU = max(os.sched_getaffinity(0))
SESSIONS = 7  # serve sessions per run (each one set-up and one measurement)
SERVER_THREADS = 1  # the server's pool: one, as it shares one CPU (see main)


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def binary(name):
    return os.path.join(BUILD, "bin", name)


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so stdout stays the result."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


class Proc:
    """A child process whose wall time and peak RSS are measured (wait4)."""

    def __init__(self, cmd, out_path, cwd):
        self.cmd = cmd
        self.out_path = out_path
        self.start = time.perf_counter()
        with open(out_path, "w") as out:
            self.popen = subprocess.Popen(cmd, stdout=out,
                                          stderr=subprocess.STDOUT, cwd=cwd)
        self.wall = None
        self.rss_mb = None
        self.code = None

    def wait(self, timeout=120.0):
        # A blocking wait (no polling loop competing with the child for a
        # CPU); a timer kills a child that overruns.
        watchdog = threading.Timer(timeout, self.popen.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - self.start
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.code = self.popen.returncode
        return self

    def running(self):
        """True while the child has not exited (it is not reaped here)."""
        return os.waitid(os.P_PID, self.popen.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is None

    def output(self):
        with open(self.out_path) as f:
            return f.read()

    def check(self):
        if self.code != 0:
            raise CheckFailed(f"{' '.join(self.cmd)} exited {self.code}:\n"
                              f"{self.output()[-2000:]}")
        return self.output()


def tool_json(cmd):
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=60).stdout
    return json.loads(out.strip().splitlines()[-1])


def solve_lines(text):
    """The deterministic part of a solve report (no wall or space lines)."""
    keep = ("solve (", "  solution   :", "  covered    :")
    lines = [l for l in text.splitlines() if l.startswith(keep)]
    if len(lines) != 3:
        raise CheckFailed(f"unexpected solve report:\n{text}")
    return lines


def solution_ids(lines):
    return [int(x) for x in lines[1].split(":", 1)[1].split()]


def quantile(values, q):
    """Nearest rank; None (a failed request) sorts last as +inf."""
    vals = sorted(float("inf") if v is None else v for v in values)
    rank = max(1, math.ceil(round(q * len(vals), 9)))
    return vals[min(rank, len(vals)) - 1]


def middle_mean(values):
    """Mean of the middle half: the host's slow and fast spells both drop."""
    vals = sorted(values)
    drop = len(vals) // 4
    kept = vals[drop:len(vals) - drop]
    return sum(kept) / len(kept)


# ------------------------------------------------------------------ batch --

def batch_setup(work, seed):
    """Generates the seeded edge file, the program's only input. This is
    all that setup_s times on file_kcover: the benchmark's own generator,
    as no covstream process runs in it."""
    edges = os.path.join(work, "edges.bin")
    t0 = time.perf_counter()
    info = tool_json([binary("perfbench_gen"), "gen", f"--seed={seed}",
                      f"--out={edges}"])
    return time.perf_counter() - t0, edges, info


SKETCH_FLAGS = [f"--n={N_SETS}", f"--k={K}", f"--eps={EPS}", f"--seed={SKETCH_SEED}"]


def file_job(work, edges):
    """--cmd=ingest then --cmd=solve: wall from the first process start to
    the printed solution, less the CPU time the host took from the
    measured CPU meanwhile."""
    snap = os.path.join(work, "sketch.snap")
    cli = binary("covstream_cli")
    steal0 = cpu_steal_s(MEASURE_CPU)
    t0 = time.perf_counter()
    ingest = Proc([cli, "--cmd=ingest", f"--input={edges}", *SKETCH_FLAGS,
                   f"--out={snap}"], os.path.join(work, "ingest.out"), work).wait()
    steal1 = cpu_steal_s(MEASURE_CPU)
    ingest.check()
    solve = Proc([cli, "--cmd=solve", f"--snapshot={snap}", f"--k={K}"],
                 os.path.join(work, "solve.out"), work).wait()
    wall = time.perf_counter() - t0
    steal2 = cpu_steal_s(MEASURE_CPU)
    out = solve.check()
    return {"job_s": wall - (steal2 - steal0),
            "ingest_s": ingest.wall - (steal1 - steal0),
            "steal_s": steal2 - steal0,
            "rss_mb": max(ingest.rss_mb, solve.rss_mb), "solve": solve_lines(out)}


def cover_ratio(edges, seed, solve):
    """True coverage of the solve's sets over the offline greedy's (computed
    here, outside the timed set-up)."""
    sets = ",".join(str(s) for s in solution_ids(solve))
    got = tool_json([binary("perfbench_gen"), "cover", f"--input={edges}",
                     f"--sets={sets}"])["coverage"]
    greedy = tool_json([binary("perfbench_gen"), "greedy",
                        f"--seed={seed}"])["greedy_coverage"]
    return got / greedy


def run_batch(name, work, seed, seconds, trace):
    setups = []
    for _ in range(1 if trace else SETUPS):
        took, edges, info = batch_setup(work, seed)
        setups.append(took)
    if trace:
        reference = file_job(work, edges)
        return run_trace(name, work, seed, seconds,
                         [f"--input={edges}", "--expect=" + ",".join(
                             str(s) for s in solution_ids(reference["solve"]))])

    file_job(work, edges)  # warm-up: page cache and binaries, not timed
    jobs = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(jobs) < 3:
        jobs.append(file_job(work, edges))
    # Every repetition must print the same solution.
    first = jobs[0]["solve"]
    for j in jobs[1:]:
        if j["solve"] != first:
            raise CheckFailed(f"solve output changed between repetitions:\n"
                              f"{first}\n{j['solve']}")
    ratio = cover_ratio(edges, seed, first)
    if ratio < MIN_COVER_RATIO:
        raise CheckFailed(f"cover_ratio {ratio:.4f} < {MIN_COVER_RATIO:.4f}")
    job_ms = [j["job_s"] * 1000.0 for j in jobs]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": middle_mean([j["job_s"] for j in jobs]),
        # Edge-arrival throughput of the ingest process.
        "rps": info["edges"] / middle_mean([j["ingest_s"] for j in jobs]),
        "p50_ms": quantile(job_ms, 0.50),
        # The highest percentile with ten jobs beyond it (~300 jobs a run).
        "tail_ms": quantile(job_ms, 0.95),
        "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
        "cover_ratio": ratio,
    }
    notes = [f"# jobs: {len(jobs)}; job_s and rps are means over the middle "
             f"half of them, p50_ms and tail_ms (p95) job latency quantiles "
             f"over all {len(jobs)}; {sum(j['steal_s'] for j in jobs):.2f} s "
             f"of host steal subtracted", f"# edges: {int(info['edges'])}",
             "# job ms: " + " ".join(f"{ms:.1f}" for ms in job_ms),
             "# solve: " + " | ".join(first), "# err_ratio 0"]
    return metrics, len(jobs), 0, notes


# ------------------------------------------------------------------ serve --

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def serve_session(work, seed, seconds, extra):
    """Starts a server, runs the load generator against it (the generator
    sends `shutdown` last) and waits for the server to exit."""
    port = free_port()
    server_out = os.path.join(work, "server.out")
    server = Proc([binary("covstream_cli"), "--cmd=serve", f"--port={port}",
                   f"--threads={SERVER_THREADS}"],
                  server_out, work)
    deadline = time.perf_counter() + 20.0
    while "fleet serving on" not in open(server_out).read():
        if not server.running() or time.perf_counter() > deadline:
            server.wait(1.0)
            raise CheckFailed("server did not start:\n" + server.output())
        time.sleep(0.002)
    ready_s = time.perf_counter() - server.start
    try:
        proc = subprocess.run([binary("perfbench_load"),
                               f"--port={port}", f"--seed={seed}",
                               f"--seconds={seconds}", *extra],
                              capture_output=True, text=True, timeout=120)
    finally:
        server.wait(20.0)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise CheckFailed(f"load generator exited {proc.returncode}:\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    load = json.loads(proc.stdout.strip().splitlines()[-1])
    if server.code != 0:
        raise CheckFailed(f"server exited {server.code}:\n{server.output()[-2000:]}")
    return ready_s + load["setup_s"], load, server, proc.stdout


def check_load(load):
    if load.get("verify_error"):
        raise CheckFailed("verification: " + load["verify_error"])
    if load["failed"] > 0:
        raise CheckFailed(f"{int(load['failed'])} of {int(load['attempted'])} "
                          f"requests failed (err {int(load['err_lines'])}, "
                          f"connection {int(load['conn_errors'])}, timeout "
                          f"{int(load['timeouts'])}): {load['first_error']}")
    if load["cover_ratio"] < MIN_COVER_RATIO:
        raise CheckFailed(f"cover_ratio {load['cover_ratio']:.4f} < "
                          f"{MIN_COVER_RATIO:.4f}")


def run_serve(name, work, seed, seconds, trace):
    """SESSIONS server sessions, each measuring a share of --seconds: the
    per-run figure is the median over sessions, so one session that lands
    in a slow spell of the host does not set it."""
    per_session = seconds / SESSIONS
    if trace:
        probe = os.path.join(work, "probe.txt")
        _, load, _, raw = serve_session(work, seed, per_session,
                                        [f"--probe-out={probe}"])
        check_load(load)
        load_path = os.path.join(work, "load.json")
        with open(load_path, "w") as f:
            f.write(raw.strip().splitlines()[-1])
        return run_trace(name, work, seed, seconds,
                         [f"--probe={probe}", f"--load={load_path}"])
    sessions = []
    for _ in range(SESSIONS):
        took, load, server, _ = serve_session(work, seed, per_session, [])
        check_load(load)
        sessions.append({"setup_s": took, "rss": server.rss_mb, **load})

    def median_of(key):
        return statistics.median(s[key] for s in sessions)

    def window_median(key):
        # null: a window whose quantile was a failed request.
        return statistics.median(float("inf") if v is None else v
                                 for s in sessions for v in s[key])

    metrics = {
        "setup_s": median_of("setup_s"),
        # A server process tends to keep one speed throughout (its memory
        # layout, or what the host does meanwhile), so sessions differ by up
        # to half; the mean of the middle sessions averages those speeds
        # instead of picking one.
        "job_s": middle_mean([s["job_s"] for s in sessions]),
        "rps": middle_mean([s["rps"] for s in sessions]),
        "p50_ms": window_median("p50_windows_ms"),
        # p99 (about 1000 open-loop requests per half-second window), timed
        # from the send: the generator shares the measured CPU, so the wait
        # from the due time to the send is mostly the host's steal (over ten
        # seeds the due-time p99 spread by 0.36 of its median, p50 by 0.035).
        "tail_ms": window_median("p99_sent_windows_ms"),
        "peak_rss_mb": median_of("rss"),
        "cover_ratio": median_of("cover_ratio"),
    }
    windows = sum(len(s["p99_windows_ms"]) for s in sessions)
    notes = [f"# {SESSIONS} sessions of {per_session:g} s; job_s and rps are "
             "means over the middle half of the sessions, p50_ms (from due "
             "time) and tail_ms (p99 from send) medians over the sessions' "
             f"{windows} half-second open-loop windows, the rest medians over "
             "sessions"]
    for i, s in enumerate(sessions):
        notes.append(
            f"# session {i}: job_s {s['job_s'] * 1000:.2f} ms (mean of "
            f"the jobs, {s['job_steal_s']:.2f} s host steal subtracted); closed "
            f"loop {int(s['closed_attempted'])} attempted, "
            f"{int(s['closed_ok'])} ok, {int(s['closed_failed'])} failed, "
            f"rps {s['rps']:.0f}; open loop "
            f"{int(s['open_attempted'])} attempted, {int(s['open_ok'])} ok, "
            f"{int(s['open_failed'])} failed, {int(s['open_samples'])} latency "
            f"samples, p50 "
            f"{s['p50_ms']:.3f} ms, p99 {s['p99_ms']:.3f} ms, generator late "
            f"p99 {s['late_p99_ms']:.3f} ms; cpu steal open "
            f"{s['open_steal_s']:.2f} s, closed {s['closed_steal_s']:.2f} s; "
            f"all phases {int(s['attempted'])} attempted, {int(s['failed'])} failed (err {int(s['err_lines'])}, "
            f"connection {int(s['conn_errors'])}, timeout {int(s['timeouts'])})")
    notes.append("# open-loop p99 timed from the due time (not gated: on one "
                 "CPU the generator waits out the host's steal, and that wait "
                 f"sets it): {window_median('p99_windows_ms'):.3f} ms")
    attempted = sum(int(s["attempted"]) for s in sessions)
    failed = sum(int(s["failed"]) for s in sessions)
    notes.append(f"# err_ratio {failed / attempted:g}")
    return metrics, attempted, failed, notes


# ------------------------------------------------------------------ trace --

def run_trace(name, work, seed, seconds, extra):
    proc = subprocess.run([binary("perfbench_trace"), f"--workload={name}",
                           f"--seed={seed}", f"--seconds={seconds}",
                           f"--dir={work}", *extra],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise CheckFailed(f"trace exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["verify_error"]:
        raise CheckFailed("traced replay: " + result["verify_error"])
    notes = ["# " + l for l in lines[:-1]]
    notes.append(f"# spans written to {os.path.relpath(work, ROOT)}/trace_spans.txt; "
                 f"{int(result['unfaithful_spans'])} span kinds flagged unfaithful")
    return result["metrics"], 1, 0, notes


# -------------------------------------------------------------------- cpu --

# A busy loop that ends once its parent (run.py) is gone, whichever way.
SPIN_CODE = """import os, sys
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class IdleSpinner:
    """Keeps the measured CPU from going idle while the workload runs: a
    busy loop in the SCHED_IDLE class, which runs only when nothing else
    on that CPU wants to and yields to any process that wakes. A virtual
    CPU that idles hands its physical core back to the host, and each
    wake-up then waits for the host to return it (counted as steal): on an
    open loop with sub-millisecond gaps that cost 0.03-1.7 s of steal per
    run and doubled its p99; with the spinner, 0.02-0.2 s."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SPIN_CODE, str(os.getpid())],
            preexec_fn=lambda: os.sched_setscheduler(0, os.SCHED_IDLE,
                                                     os.sched_param(0)))
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()


def cpu_steal_s(cpu=None):
    """CPU time the hypervisor has taken from CPU `cpu` (from every CPU when
    None), in seconds; 0 where /proc/stat has no steal column."""
    name = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] == name:
                    return (int(fields[8]) / os.sysconf("SC_CLK_TCK")
                            if len(fields) > 8 else 0.0)
    except OSError:
        pass
    return 0.0


# ------------------------------------------------------------------ stamp --

def stamp():
    """Identifies the measured build: ISA tier and CPU features as the
    shipped binary reports them, nproc, build type, and the source."""
    probe = os.path.join(WORK, "stamp.bin")
    with open(probe, "wb") as f:
        f.write(b"covsbin1" + (1).to_bytes(8, "little") + (0).to_bytes(12, "little"))
    out = subprocess.run([binary("covstream_cli"), "--cmd=stats", f"--input={probe}"],
                         capture_output=True, text=True, timeout=60).stdout
    cpu = next((l for l in out.splitlines() if l.startswith("cpu features")), "?")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    build_type = "?"
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return (f"# stamp: {cpu}; nproc {os.cpu_count()}; build {build_type}; "
            f"commit {commit or 'n/a'}; source sha256 {digest.hexdigest()[:16]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; choose from {sorted(workloads)}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    # Every measured process runs on one CPU (children inherit this), which
    # IdleSpinner keeps from idling. On a virtual machine whose host takes
    # CPUs away for a while (steal), a request whose threads hand off across
    # CPUs waits whenever any of them is taken, and latencies swing tenfold;
    # on one CPU the processes only lose the time taken, which /proc/stat
    # counts for that CPU and the timings subtract.
    os.sched_setaffinity(0, {MEASURE_CPU})
    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    runner = run_serve if args.workload == "wire_ingest" else run_batch
    steal_before, t0 = cpu_steal_s(), time.perf_counter()
    measured_before = cpu_steal_s(MEASURE_CPU)
    try:
        with IdleSpinner():
            metrics, attempted, failed, notes = runner(
                args.workload, work, args.seed, args.seconds, args.trace == 1)
        # On a virtual machine the host can take CPU time away (steal); a
        # run that lost much of it is not comparable with one that did not.
        steal = cpu_steal_s() - steal_before
        notes.append(f"# cpu steal during the run: {steal:.1f} s of "
                     f"{(time.perf_counter() - t0) * (os.cpu_count() or 1):.0f} "
                     f"CPU-s; {cpu_steal_s(MEASURE_CPU) - measured_before:.2f} s "
                     f"from the measured CPU {MEASURE_CPU}")
    except CheckFailed as e:
        log(f"CHECK FAILED ({args.workload}, seed {args.seed}): {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    for note in notes:
        print(note)
    print(stamp())
    result = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value!r} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
