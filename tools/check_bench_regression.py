#!/usr/bin/env python3
"""CI perf/behavior-regression guard for the committed bench baselines.

The baseline document's top-level "bench" key selects the mode:

  * "topology_sweep" (BENCH_topology.json) and "fig3_model"
    (BENCH_fig3.json): every scenario the baseline records must exist in
    the fresh output, and every numeric metric must match within a
    relative tolerance (default 1%, override with DS_BENCH_VT_TOLERANCE).
    Both benches are virtual-time deterministic — a pure function of the
    machine model and the seed, independent of the host — so a drift means
    the simulated network, placement or execution-model behavior changed;
    the tight default is intentional.

  * "fault_recovery" (BENCH_fault_recovery.json): the resilience contract
    gate. Every scenario the baseline records must exist in the fresh
    output with its virtual_s within the topology mode's relative tolerance
    (DS_BENCH_VT_TOLERANCE, default 1%): the scenarios are virtual-time
    deterministic, so a drift means the resilience protocol's cost moved.
    The fresh churn scenario (when the baseline has one) must
    uphold the failure-matrix acceptance contract: >= 10 crash/rejoin
    cycles, exactly-once delivery per consumer view, full coverage, no
    delivery to a crashed incarnation's operator (dead_deliveries 0:
    fail-stop), and goodput >= 80% of the paced fault-free reference
    (override the floor with DS_BENCH_FAULT_GOODPUT). A setup_crash scenario (when the
    baseline has one) must show exactly-once complete delivery with zero
    failovers/replay — the crash inside Channel::create must be repaired
    by membership agreement, not by the streaming failover path — and a
    rebuild makespan within 2x of the fault-free run (override with
    DS_BENCH_SETUP_REBUILD). The other numeric recovery/goodput metrics
    are archived for trend reading, not drift-gated here — the bench binary
    itself exits nonzero on every bound it owns.

  * "fig9_termination" (BENCH_fig9.json): the termination-protocol gate.
    Term-message counts and tree depths are exact functions of the
    protocol, so the fresh `series` must match the baseline entry for
    entry, in order, key for key — no tolerance. Any difference means the
    termination protocol's message pattern changed.

  * anything else (BENCH_simcore.json, predating the key): the simulator
    hot-path mode. The steady_stream scenario must not regress:
    elements_per_sec within DS_BENCH_EPS_TOLERANCE (default 20% — it is a
    wall-clock number, host-dependent) and allocs_per_element zero (the
    zero-allocation hot-path gate).

Every problem is reported as a clear per-metric line (which file, which
scenario, which key) and the script exits nonzero — a malformed or
truncated JSON never surfaces as a raw KeyError traceback.

The messages-per-element coalescing gate lives in the bench binary itself
(micro_simcore exits nonzero on it); it is not duplicated here, and the
topology sweep's monotone-advantage gate likewise lives in
bench_topology_sweep.

Usage: check_bench_regression.py <baseline.json> <fresh.json>
"""
import json
import os
import sys

errors = []


def fail(message):
    print(f"FAIL: {message}")
    errors.append(message)


def load(path, which):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit(f"FAIL: cannot read {which} JSON {path!r}: {e}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"FAIL: {which} JSON {path!r} is not valid JSON: {e}")


def scenario(doc, name, which):
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list):
        fail(f"{which} JSON has no 'scenarios' array")
        return None
    for s in scenarios:
        if isinstance(s, dict) and s.get("name") == name:
            return s
    fail(f"scenario '{name}' missing from {which} JSON")
    return None


def metric(s, key, which, name, required=True):
    """Fetch a numeric metric, reporting (not raising) when it is absent."""
    if s is None:
        return None
    if key not in s:
        if required:
            fail(f"metric '{key}' missing from {which} JSON "
             f"(scenario '{name}')")
        return None
    try:
        return float(s[key])
    except (TypeError, ValueError):
        fail(f"metric '{key}' in {which} JSON (scenario '{name}') "
             f"is not a number: {s[key]!r}")
        return None


def vt_tolerance():
    return float(os.environ.get("DS_BENCH_VT_TOLERANCE", "0.01"))


def check_drift(name, key, reference, got, tolerance):
    """Fail when a virtual-time metric drifted past the relative tolerance."""
    if abs(got - reference) > abs(reference) * tolerance:
        fail(f"scenario '{name}' metric '{key}': baseline "
             f"{reference:.6g}, fresh {got:.6g} "
             f"(> {tolerance:.4g} relative drift)")


def check_every_number(baseline_doc, fresh_doc):
    """Virtual-time determinism gate: every fresh metric must reproduce the
    committed baseline within a tight relative tolerance."""
    tolerance = vt_tolerance()
    scenarios = baseline_doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail("baseline JSON has no 'scenarios' array")
        return
    for base in scenarios:
        if not isinstance(base, dict) or "name" not in base:
            fail("baseline scenario without a 'name'")
            continue
        name = base["name"]
        fresh = scenario(fresh_doc, name, "fresh")
        if fresh is None:
            continue
        for key, value in base.items():
            if key == "name" or not isinstance(value, (int, float)):
                continue
            got = metric(fresh, key, "fresh", name)
            if got is not None:
                check_drift(name, key, float(value), got, tolerance)
    print(f"{baseline_doc['bench']}: {len(scenarios)} scenario(s) compared "
          f"at relative tolerance {tolerance:.4g}")


def check_fault_recovery(baseline_doc, fresh_doc):
    """Resilience contract gate: scenario presence and virtual time, plus
    the churn acceptance bounds (cycles, exactly-once, coverage, fail-stop,
    goodput floor)."""
    scenarios = baseline_doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail("baseline JSON has no 'scenarios' array")
        return
    tolerance = vt_tolerance()
    churn_in_baseline = False
    setup_in_baseline = False
    for base in scenarios:
        if not isinstance(base, dict) or "name" not in base:
            fail("baseline scenario without a 'name'")
            continue
        name = base["name"]
        if name == "churn":
            churn_in_baseline = True
        if name == "setup_crash":
            setup_in_baseline = True
        fresh = scenario(fresh_doc, name, "fresh")
        reference = metric(base, "virtual_s", "baseline", name)
        got = metric(fresh, "virtual_s", "fresh", name)
        if reference is not None and got is not None:
            check_drift(name, "virtual_s", reference, got, tolerance)
    print(f"fault recovery: virtual_s of {len(scenarios)} scenario(s) "
          f"compared at relative tolerance {tolerance:.4g}")
    if setup_in_baseline:
        setup = scenario(fresh_doc, "setup_crash", "fresh")
        if setup is not None:
            for key in ("exactly_once", "complete"):
                value = metric(setup, key, "fresh", "setup_crash")
                if value is not None and value != 1:
                    fail(f"setup_crash scenario violates '{key}'")
            for key in ("failovers", "replayed_elements"):
                value = metric(setup, key, "fresh", "setup_crash")
                if value is not None and value != 0:
                    fail(f"setup_crash scenario has nonzero '{key}': the "
                         f"crash inside channel creation must be repaired "
                         f"by the membership agreement, not by streaming "
                         f"failover")
            bound = float(os.environ.get("DS_BENCH_SETUP_REBUILD", "2.0"))
            ratio = metric(setup, "rebuild_ratio", "fresh", "setup_crash")
            if ratio is not None:
                print(f"setup-crash rebuild: {ratio:.2f}x fault-free "
                      f"(bound {bound:.1f}x)")
                if ratio > bound:
                    fail(f"setup-crash rebuild {ratio:.2f}x exceeds the "
                         f"{bound:.1f}x bound")
    if not churn_in_baseline:
        print("fault recovery: baseline predates the churn scenario; "
              "presence-only check")
        return
    churn = scenario(fresh_doc, "churn", "fresh")
    if churn is None:
        return
    floor = float(os.environ.get("DS_BENCH_FAULT_GOODPUT", "0.80"))
    cycles = metric(churn, "cycles", "fresh", "churn")
    if cycles is not None and cycles < 10:
        fail(f"churn ran only {cycles:.0f} crash/rejoin cycles (need >= 10)")
    for key in ("exactly_once", "complete"):
        value = metric(churn, key, "fresh", "churn")
        if value is not None and value != 1:
            fail(f"churn scenario violates '{key}'")
    dead = metric(churn, "dead_deliveries", "fresh", "churn")
    if dead is not None and dead != 0:
        fail(f"churn delivered {dead:.0f} element(s) to crashed "
             f"incarnations' operators (fail-stop requires 0)")
    ratio = metric(churn, "goodput_ratio", "fresh", "churn")
    if ratio is not None:
        print(f"churn goodput: {ratio:.1%} of fault-free (floor {floor:.0%})")
        if ratio < floor:
            fail(f"churn goodput {ratio:.1%} below the {floor:.0%} floor")
    rejoined = metric(churn, "rejoined_views", "fresh", "churn")
    if rejoined is not None and rejoined < 1:
        fail("no rejoined incarnation ever received elements "
             "(churn did not exercise rejoin)")


def check_fig9(baseline_doc, fresh_doc):
    """Termination-protocol gate: every series entry (term-message counts,
    per-rank maxima, tree depth) must reproduce the baseline exactly."""
    base = baseline_doc.get("series")
    fresh = fresh_doc.get("series") if isinstance(fresh_doc, dict) else None
    if not isinstance(base, list) or not base:
        fail("baseline JSON has no 'series' array")
        return
    if not isinstance(fresh, list):
        fail("fresh JSON has no 'series' array")
        return
    if len(fresh) != len(base):
        fail(f"series length: baseline {len(base)}, fresh {len(fresh)}")
    for i, (b, f) in enumerate(zip(base, fresh)):
        if not isinstance(b, dict) or not isinstance(f, dict):
            fail(f"series[{i}] is not an object")
            continue
        where = (f"series[{i}] (consumers={b.get('consumers')}, "
                 f"producers={b.get('producers')})")
        for key in sorted(set(b) | set(f)):
            if b.get(key) != f.get(key):
                fail(f"{where} '{key}': baseline {b.get(key)!r}, "
                     f"fresh {f.get(key)!r}")
    print(f"fig9 termination: {len(base)} baseline series entries checked "
          f"exactly")


MODES = {
    "topology_sweep": check_every_number,
    "fig3_model": check_every_number,
    "fault_recovery": check_fault_recovery,
    "fig9_termination": check_fig9,
}


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    baseline_doc = load(sys.argv[1], "baseline")
    fresh_doc = load(sys.argv[2], "fresh")
    mode = baseline_doc.get("bench") if isinstance(baseline_doc, dict) else None
    if mode in MODES:
        MODES[mode](baseline_doc, fresh_doc)
        ok = not errors
        print("bench regression check:",
              "PASS" if ok else f"FAIL ({len(errors)} problem(s))")
        return 0 if ok else 1

    baseline = scenario(baseline_doc, "steady_stream", "baseline")
    fresh = scenario(fresh_doc, "steady_stream", "fresh")

    tolerance = float(os.environ.get("DS_BENCH_EPS_TOLERANCE", "0.20"))
    base_eps = metric(baseline, "elements_per_sec", "baseline", "steady_stream")
    fresh_eps = metric(fresh, "elements_per_sec", "fresh", "steady_stream")
    if base_eps is not None and fresh_eps is not None:
        floor = base_eps * (1.0 - tolerance)
        print(f"steady_stream elements_per_sec: baseline {base_eps:.3g}, "
              f"fresh {fresh_eps:.3g} (floor {floor:.3g})")
        if fresh_eps < floor:
            fail(f"throughput dropped more than {tolerance:.0%} "
                 f"below the committed baseline")

    # Absent on old baselines is fine; absent on fresh output is a bug in the
    # bench (the gate would silently stop gating).
    allocs = metric(fresh, "allocs_per_element", "fresh", "steady_stream")
    if allocs is not None:
        print(f"steady_stream allocs_per_element: {allocs:.6f}")
        if allocs > 0.0005:
            fail("steady-state eager elements allocate")

    ok = not errors
    print("bench regression check:", "PASS" if ok else f"FAIL ({len(errors)} problem(s))")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
