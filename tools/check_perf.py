#!/usr/bin/env python3
"""Gate CI on hot-path perf regressions.

Usage: check_perf.py CHECKED_IN.json FRESH.json

Compares a fresh perf_harness run (its "current" section) against the
checked-in BENCH_hotpath.json.

Fails (exit 1) when:
  - ns_per_op of a micro regresses by more than REGRESSION_SLACK (10%)
    over max(baseline, current) from the checked-in file: wall-clock is
    noisy on shared runners, so the slack rides on top of the slower of
    the two recorded numbers.
  - allocs_per_op of a micro or a sweep row exceeds the checked-in
    "current" value by more than ALLOC_ABS_SLACK (0.5). The count is
    deterministic (the harness interposes operator new), so it is held
    to the last recorded state alone, never to the pre-rework
    "baseline"; the slack only absorbs amortized-growth rounding.

Also gates peak RSS: the harness records getrusage peak_rss_kb per
section, and the fresh run's footprint may not exceed the slower of
the checked-in baseline/current values by more than RSS_SLACK (10%).
Memory regressions rarely show in ns_per_op — a leaked or oversized
retained pool costs wall time only at the 100k-phone scale, so the
footprint needs its own gate.

Micros and sweeps present in only one file are reported but never fail
the run, so adding a new benchmark does not require regenerating the
reference in the same commit. Smoke-mode fresh runs
(SIPROX_PERF_SMOKE=1) are skipped: their iteration counts are too small
to gate on.

Every run prints the full delta table — metric, reference, fresh
value, % change, verdict — not just the failures, so a CI log answers
"how close are we to the budget" without rerunning anything.
"""


import json
import sys

REGRESSION_SLACK = 0.10
ALLOC_ABS_SLACK = 0.5
RSS_SLACK = 0.10


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def micros(doc, section):
    return doc.get(section, {}).get("micros", {})


def sweeps(doc, section):
    return doc.get(section, {}).get("sweeps", {})


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    checked = load(sys.argv[1])
    fresh = load(sys.argv[2])

    if fresh.get("smoke"):
        print("check_perf: fresh run is smoke mode; nothing to gate")
        return

    ref_base = micros(checked, "baseline")
    ref_cur = micros(checked, "current")
    measured = micros(fresh, "current")

    print(f"  {'metric':38s} {'reference':>10s} {'fresh':>10s} "
          f"{'delta':>8s} {'allowed':>10s}  verdict")
    failures = []

    def row(metric, ref, got, allowed):
        verdict = "ok" if got <= allowed else "REGRESSION"
        delta = (got - ref) / ref if ref > 0.0 else 0.0
        print(f"  {metric:38s} {ref:10.1f} {got:10.1f} "
              f"{delta:+8.1%} {allowed:10.1f}  {verdict}")
        if verdict == "REGRESSION":
            failures.append(
                f"{metric}: {got:.1f} > allowed {allowed:.1f} "
                f"(ref {ref:.1f} {delta:+.1%})")

    for name, m in sorted(measured.items()):
        refs = [r[name] for r in (ref_base, ref_cur) if name in r]
        if not refs:
            print(f"  {name:38s} new micro, no reference — skipped")
            continue
        got = m.get("ns_per_op")
        ref = max((r.get("ns_per_op", 0.0) for r in refs), default=0.0)
        if got is not None and ref > 0.0:
            row(f"{name}.ns_per_op", ref, got,
                ref * (1.0 + REGRESSION_SLACK))
        got = m.get("allocs_per_op")
        ref = ref_cur.get(name, {}).get("allocs_per_op")
        if got is not None and ref is not None:
            row(f"{name}.allocs_per_op", ref, got, ref + ALLOC_ABS_SLACK)

    ref_sweeps = sweeps(checked, "current")
    for name, m in sorted(sweeps(fresh, "current").items()):
        ref = ref_sweeps.get(name, {}).get("allocs_per_op")
        if ref is None:
            print(f"  {name:38s} new sweep, no reference — skipped")
            continue
        got = m.get("allocs_per_op")
        if got is not None:
            row(f"{name}.allocs_per_op", ref, got, ref + ALLOC_ABS_SLACK)

    got_rss = fresh.get("current", {}).get("peak_rss_kb")
    ref_rss = max(
        (checked.get(s, {}).get("peak_rss_kb", 0)
         for s in ("baseline", "current")),
        default=0)
    if got_rss is not None and ref_rss > 0:
        row("peak_rss_kb", float(ref_rss), float(got_rss),
            ref_rss * (1.0 + RSS_SLACK))

    if failures:
        print(f"\ncheck_perf: {len(failures)} regression(s) over budget:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        sys.exit(1)
    print("check_perf: all micros within budget")


if __name__ == "__main__":
    main()
