#!/usr/bin/env python3
"""Repo benchmark: the paper's applications at 1-2k simulated ranks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator library and the driver in perfbench/ from source
(CMake, RelWithDebInfo, into $CARGO_TARGET_DIR or .bench_build), then:

  --trace 0  runs the workload's conventional and decoupled variants, each
             in a fresh process, repeatedly for S seconds, and reports the
             end-to-end metrics of BENCHMARK.json: medians of host wall and
             CPU seconds, peak RSS and set-up time, both virtual makespans
             (exact per seed) and their ratio, and the pass fraction of the
             correctness checks.
  --trace 1  runs each variant once more plus the per-layer drivers at the
             workload's world size, reports the per-layer metrics, and
             writes the benchmark's own spans as a Chrome trace-event file
             under .bench_out/, validated with tools/check_trace.py.

Both modes run the correctness checks: small real-data instances against
the sequential oracles, the modeled invariants of every timed run, and
bit-identical virtual times across repeats. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; a line
before it carries the environment fingerprint. A build without compiler
optimization is refused: it prints no result and exits nonzero.

Self-test flags: --procs P overrides the world size, --perturb-oracle
corrupts one oracle value (the checks must then fail).
"""
import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Simulated world size of each workload the driver implements.
WORKLOADS = {
    "mapreduce_2k": 2048,
    "pic_exchange_1k": 1024,
    "cg_halo_2k": 2048,
    "pic_io_resilient_2k": 2048,
}
VARIANTS = ("reference", "decoupled")
SETUP_REPS = 5        # set-ups per end-to-end run; setup_s is their median
LAYER_SETUP_REPS = 3  # per set-up size in the per-layer run
MIN_TIMED_REPS = 3    # timed repetitions even when --seconds runs out first
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    """A build or driver failure: the run reports no result."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"simulator sources (CMakeLists.txt, src/) missing in {ROOT}")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(jobs)], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def call(exe, *args):
    """Runs one driver subcommand in a fresh process; returns its JSON."""
    argv = [exe, *(str(a) for a in args)]
    what = " ".join(argv[1:])
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver {what}: timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"driver {what}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(exe):
    info = call(exe, "info")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": info["cpu_model"],
        "cache_kib": {"l1d": info["l1d_kib"], "l2": info["l2_kib"],
                      "l3": info["l3_kib"]},
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "optimized": info["optimized"],
        "git_sha": git_sha(),
        "observability": "on" if info["observability_default"] else "off",
    }


class Checks:
    """Named pass/fail outcomes; failed and check_pass_frac derive from them."""

    def __init__(self):
        self.results = []

    def add(self, name, ok):
        self.results.append((name, bool(ok)))

    def extend(self, pairs):
        for name, ok in pairs:
            self.add(name, ok)

    @property
    def failed(self):
        return [name for name, ok in self.results if not ok]


class Tracer:
    """Spans around the benchmark's own calls, kept in memory and written as
    Chrome trace events (one track) when the run ends."""

    def __init__(self):
        self.spans = []  # (name, category, begin, end), time.monotonic seconds

    @contextlib.contextmanager
    def span(self, name, category="bench"):
        begin = time.monotonic()
        try:
            yield
        finally:
            self.spans.append((name, category, begin, time.monotonic()))

    def add(self, name, category, begin, end):
        self.spans.append((name, category, begin, end))

    def chrome_json(self, track):
        """B/E events nested by interval containment (a child is clamped
        into its parent), timestamps in microseconds from the first span."""
        spans = sorted(self.spans, key=lambda s: (s[2], -s[3]))
        origin = spans[0][2] if spans else 0.0

        def event(ph, t, **extra):
            return {"ph": ph, "ts": round((t - origin) * 1e6, 3), "pid": 1,
                    "tid": 1, **extra}

        events = [{"ph": "M", "name": "process_name", "pid": 1,
                   "args": {"name": "perfbench"}},
                  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
                   "args": {"name": track}}]
        open_ends = []
        for name, category, begin, end in spans:
            while open_ends and open_ends[-1] <= begin:
                events.append(event("E", open_ends.pop()))
            if open_ends:
                end = min(end, open_ends[-1])
            events.append(event("B", begin, name=name, cat=category))
            open_ends.append(end)
        while open_ends:
            events.append(event("E", open_ends.pop()))
        return {"traceEvents": events}


def run_variant(exe, args, procs, which, crash_at):
    argv = ["variant", "--workload", args.workload, "--which", which,
            "--procs", procs, "--seed", args.seed]
    if which == "decoupled" and crash_at:
        argv += ["--crash-at-ns", crash_at]
    return call(exe, *argv)


def prepare_io(exe, args, procs):
    """pic_io only: the fault-free resilient run fixes the writer crash time
    (a third of its makespan) and the file size every variant must write."""
    if args.workload != "pic_io_resilient_2k":
        return None
    return call(exe, "prepare", "--workload", args.workload, "--procs", procs,
                "--seed", args.seed)


def oracle_checks(exe, args, checks):
    argv = ["check", "--workload", args.workload, "--seed", args.seed]
    if args.perturb_oracle:
        argv.append("--perturb")
    checks.extend(call(exe, *argv)["checks"])


def run_checks(checks, runs, prep):
    """Modeled invariants of every timed run, bit-identical virtual times
    across repeats, and (pic_io) file size against the fault-free run."""
    for which in VARIANTS:
        series = [run[which] for run in runs]
        names = dict.fromkeys(n for r in series for n, _ in r["invariants"])
        for name in names:
            checks.add(f"{which}.{name}", all(
                ok for r in series for n, ok in r["invariants"] if n == name))
        if len(series) > 1:
            checks.add(f"{which}.vt_deterministic",
                       len({r["vt_s"] for r in series}) == 1)
        if prep is not None:
            checks.add(f"{which}.file_bytes_match_fault_free", all(
                r["file_bytes"] == prep["file_bytes"] for r in series))


def end_to_end(exe, args, procs, checks):
    oracle_checks(exe, args, checks)
    setup = call(exe, "setup", "--procs", procs, "--seed", args.seed,
                 "--reps", SETUP_REPS)
    prep = prepare_io(exe, args, procs)
    crash_at = int(prep["crash_at_ns"]) if prep else 0
    runs = []
    deadline = time.monotonic() + args.seconds
    while len(runs) < MIN_TIMED_REPS or time.monotonic() < deadline:
        runs.append({which: run_variant(exe, args, procs, which, crash_at)
                     for which in VARIANTS})
    run_checks(checks, runs, prep)
    host = [r["reference"]["host_s"] + r["decoupled"]["host_s"] for r in runs]
    cpu = [r["reference"]["cpu_s"] + r["decoupled"]["cpu_s"] for r in runs]
    rss = [max(r["reference"]["peak_rss_mb"], r["decoupled"]["peak_rss_mb"])
           for r in runs]
    vt_ref = runs[0]["reference"]["vt_s"]
    vt_dec = runs[0]["decoupled"]["vt_s"]
    values = {
        "host_s": statistics.median(host),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup["setup_s"]),
        "vt_reference_s": vt_ref,
        "vt_decoupled_s": vt_dec,
        "decoupling_speedup": vt_ref / vt_dec,
    }
    samples = {"host_s": host, "cpu_s": cpu, "peak_rss_mb": rss,
               "setup_s": setup["setup_s"]}
    return values, samples


def per_layer(exe, args, procs, checks):
    tracer = Tracer()
    with tracer.span("checks.oracle"):
        oracle_checks(exe, args, checks)
    prep = None
    if args.workload == "pic_io_resilient_2k":
        with tracer.span("apps.prepare_fault_free", "apps"):
            prep = prepare_io(exe, args, procs)
    crash_at = int(prep["crash_at_ns"]) if prep else 0
    run = {}
    for which in VARIANTS:
        with tracer.span(f"apps.{which}", "apps"):
            run[which] = run_variant(exe, args, procs, which, crash_at)
    run_checks(checks, [run], prep)
    with tracer.span("core.channel_setup", "layer"):
        at_p = call(exe, "setup", "--procs", procs, "--seed", args.seed,
                    "--reps", LAYER_SETUP_REPS)
    with tracer.span("core.channel_setup_at_2p", "layer"):
        at_2p = call(exe, "setup", "--procs", 2 * procs, "--seed", args.seed,
                     "--reps", LAYER_SETUP_REPS)
    with tracer.span("layers", "layer"):
        layers = call(exe, "layers", "--procs", procs, "--seed", args.seed)
    for name, begin, end in layers["spans"]:
        tracer.add(name, "layer", begin, end)
    channel_s = statistics.median(at_p["channel_setup_s"])
    values = {
        "apps.reference.host_s": run["reference"]["host_s"],
        "apps.decoupled.host_s": run["decoupled"]["host_s"],
        "apps.reference.peak_rss_mb": run["reference"]["peak_rss_mb"],
        "apps.decoupled.peak_rss_mb": run["decoupled"]["peak_rss_mb"],
        "core.channel_setup_s": channel_s,
        "core.channel_setup_mb": at_p["rss_growth_mb"],
        "core.channel_setup_growth":
            statistics.median(at_2p["channel_setup_s"]) / channel_s,
        **layers["metrics"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(tracer.chrome_json(args.workload), f)
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    proc = subprocess.run([sys.executable, checker, trace_path],
                          capture_output=True, text=True)
    print((proc.stdout + proc.stderr).strip())
    checks.add("trace.check_trace", proc.returncode == 0)
    return values, {"trace": os.path.relpath(trace_path, ROOT)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--procs", type=int, default=0,
                        help="world size override (self-test)")
    parser.add_argument("--perturb-oracle", action="store_true",
                        help="corrupt one oracle value (self-test)")
    args = parser.parse_args()
    args.seed %= 1 << 64
    mode = "per_layer" if args.trace else "end_to_end"
    try:
        spec = load_spec()
        exe = build()
        env = fingerprint(exe)
        print("fingerprint: " + json.dumps(env, sort_keys=True), flush=True)
        if not env["optimized"]:
            raise BenchError("driver built without optimization: "
                             "invalid run, no numbers reported")
        procs = args.procs or WORKLOADS[args.workload]
        checks = Checks()
        if args.trace:
            values, samples = per_layer(exe, args, procs, checks)
        else:
            values, samples = end_to_end(exe, args, procs, checks)
            values["check_pass_frac"] = 1 - len(checks.failed) / len(checks.results)
        names = [entry["name"] for entry in spec[mode]]
        unexpected = sorted(set(values) - set(names))
        missing = [name for name in names if name not in values]
        if unexpected or missing:
            raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                             f"{missing}, unexpected {unexpected}")
        metrics = {entry["name"]: {"value": values[entry["name"]],
                                   "unit": entry["unit"]}
                   for entry in spec[mode]}
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for name in checks.failed:
        print(f"check FAILED: {name}")
    print(f"checks: {len(checks.results) - len(checks.failed)}/"
          f"{len(checks.results)} passed")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print("samples: " + json.dumps(
        {k: len(v) if isinstance(v, list) else v for k, v in samples.items()}))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "procs": procs, "fingerprint": env, "checks": checks.results,
              "samples": samples, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}"
                                    f"_trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": not checks.failed,
                      "attempted": len(checks.results),
                      "failed": len(checks.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
