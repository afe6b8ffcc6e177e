#!/usr/bin/env python3
"""Validate the observability artifacts probe exports.

Usage: check_trace.py [--timeseries=FILE] [--metrics=FILE]
                      [TRACE_JSON [METRICS_JSON]]

Checks that TRACE_JSON is a well-formed Chrome trace-event document
with the track layout the recorder promises (machine processes, core /
process / lock threads, span slices whose per-category wait breakdown
sums to the slice duration, matched async call begin/end pairs), and
that METRICS_JSON is a well-formed metrics snapshot with the unified
counter namespaces. Exits nonzero with a message on the first
violation — the CI gate for the exported artifacts.

--timeseries=FILE additionally (or instead) validates a windowed
telemetry export (probe --timeseries-out): window starts strictly
increasing and contiguous within each series, counter deltas
non-negative integers, and the sum of per-window deltas equal to the
series' end-of-run totals for every counter — the invariant that makes
the windows trustworthy as a decomposition of the final counters.

--metrics=FILE validates a metrics snapshot without a trace.
"""

import json
import sys
from collections import Counter


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty array")

    pids = {}          # pid -> process_name
    phases = Counter()
    cats = Counter()
    async_open = Counter()  # (pid, id, name) -> depth
    spans_checked = 0

    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None:
            fail(f"event {i}: missing ph")
        phases[ph] += 1

        if ph == "M":
            if e.get("name") == "process_name":
                pids[e["pid"]] = e["args"]["name"]
            continue

        for key in ("ts", "pid", "tid"):
            if key not in e:
                fail(f"event {i}: missing {key}")
        if ph == "X" and "dur" not in e:
            fail(f"event {i}: complete event missing dur")
        cats[e.get("cat", "-")] += 1

        if ph == "X" and e.get("cat") == "span":
            args = e.get("args", {})
            if "callId" not in args:
                fail(f"event {i}: span without callId")
            wait_us = sum(v for k, v in args.items()
                          if k.endswith("_us"))
            # The recorder guarantees the decomposition sums to the
            # span duration exactly in ns; after the fixed 3-decimal
            # µs rendering, the parts can each lose < 1ns.
            if abs(wait_us - e["dur"]) > 0.001 * max(1, len(args)):
                fail(f"event {i}: span wait breakdown {wait_us}us "
                     f"!= dur {e['dur']}us")
            spans_checked += 1

        if ph in ("b", "e"):
            key = (e["pid"], e.get("id"), e.get("name"))
            async_open[key] += 1 if ph == "b" else -1
            if async_open[key] < 0:
                fail(f"event {i}: async end without begin: {key}")

    unbalanced = {k: v for k, v in async_open.items() if v != 0}
    if unbalanced:
        fail(f"{len(unbalanced)} unbalanced async call tracks")

    if "calls" not in pids.values():
        fail("missing the synthetic 'calls' process")
    if len(pids) < 2:
        fail("expected at least one machine process besides 'calls'")
    for cat in ("sched", "span"):
        if cats[cat] == 0:
            fail(f"no '{cat}' events recorded")
    if phases["b"] == 0 or phases["b"] != phases["e"]:
        fail("async call begin/end events missing or unbalanced")
    if spans_checked == 0:
        fail("no span slices to check")

    print(f"check_trace: trace ok: {len(events)} events, "
          f"{len(pids)} processes, {spans_checked} spans checked, "
          f"{phases['b']} async calls")


def check_metrics(path):
    with open(path) as f:
        doc = json.load(f)

    for section in ("counters", "gauges"):
        if section not in doc or not isinstance(doc[section], dict):
            fail(f"metrics: missing {section} object")
    counters = doc["counters"]
    for ns in ("proxy.", "phone.", "net.", "faults."):
        if not any(k.startswith(ns) for k in counters):
            fail(f"metrics: no counters in namespace {ns}*")
    for name, v in counters.items():
        if not isinstance(v, int) or v < 0:
            fail(f"metrics: counter {name} is not a non-negative "
                 f"integer")
    if list(counters) != sorted(counters):
        fail("metrics: counters are not sorted")
    print(f"check_trace: metrics ok: {len(counters)} counters, "
          f"{len(doc['gauges'])} gauges")


def check_timeseries(path):
    with open(path) as f:
        doc = json.load(f)

    meta = doc.get("meta")
    if not isinstance(meta, dict) or meta.get("windowNs", 0) <= 0:
        fail("timeseries: meta.windowNs must be a positive integer")
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        fail("timeseries: series must be a non-empty array")

    machines = []
    bounds = {}        # machine -> [(startNs, endNs), ...]
    windows_checked = 0
    counters_checked = 0
    for s in series:
        name = s.get("machine", "?")
        machines.append(name)
        totals = s.get("totals")
        windows = s.get("windows")
        if not isinstance(totals, dict) or not isinstance(windows,
                                                          list):
            fail(f"timeseries: series {name}: missing totals/windows")

        sums = {}
        prev_end = None
        prev_start = None
        for i, w in enumerate(windows):
            start, end = w.get("startNs"), w.get("endNs")
            if not isinstance(start, int) or not isinstance(end, int):
                fail(f"timeseries: {name} window {i}: non-integer "
                     f"bounds")
            if end < start:
                fail(f"timeseries: {name} window {i}: endNs {end} < "
                     f"startNs {start}")
            if prev_start is not None and start <= prev_start:
                fail(f"timeseries: {name} window {i}: startNs {start} "
                     f"not after previous start {prev_start}")
            if prev_end is not None and start != prev_end:
                fail(f"timeseries: {name} window {i}: gap — startNs "
                     f"{start} != previous endNs {prev_end}")
            prev_start, prev_end = start, end
            bounds.setdefault(name, []).append((start, end))
            for metric, v in w.get("counters", {}).items():
                if not isinstance(v, int) or v < 0:
                    fail(f"timeseries: {name} window {i}: counter "
                         f"{metric} delta {v!r} is not a non-negative "
                         f"integer")
                sums[metric] = sums.get(metric, 0) + v
            windows_checked += 1

        for metric, total in sorted(totals.items()):
            if sums.get(metric, 0) != total:
                fail(f"timeseries: {name}: sum of window deltas for "
                     f"{metric} is {sums.get(metric, 0)}, end-of-run "
                     f"total is {total}")
            counters_checked += 1
        stray = sorted(set(sums) - set(totals))
        if stray:
            fail(f"timeseries: {name}: window counters missing from "
                 f"totals: {stray}")

    # Per-instance labels must be unambiguous: the explain report and
    # the cluster bench both key on the machine label, so a duplicate
    # silently merges two instances' telemetry.
    dupes = sorted(m for m, n in Counter(machines).items() if n > 1)
    if dupes:
        fail(f"timeseries: duplicate machine labels: {dupes}")

    # Cluster runs (a series with arch "dispatcher") must carry one
    # series per proxy instance — contiguously numbered proxy0..N-1 —
    # and every instance must be present in every window: identical
    # window boundaries across instances, so a per-instance comparison
    # at any window index compares the same simulated interval.
    if any(s.get("arch") == "dispatcher" for s in series):
        import re
        inst = {}
        for s in series:
            m = re.fullmatch(r"proxy(\d+)", s.get("machine", ""))
            if m:
                inst[int(m.group(1))] = s.get("machine")
        if not inst:
            fail("timeseries: dispatcher series without any "
                 "proxy<i> instance series")
        expect = set(range(len(inst)))
        if set(inst) != expect:
            fail(f"timeseries: instance labels not contiguous: "
                 f"have {sorted(inst)}, expected {sorted(expect)}")
        ref_name = inst[0]
        ref_bounds = bounds.get(ref_name, [])
        for i in sorted(inst):
            got = bounds.get(inst[i], [])
            if got != ref_bounds:
                fail(f"timeseries: instance {inst[i]} windows differ "
                     f"from {ref_name}: {len(got)} vs "
                     f"{len(ref_bounds)} — every instance must be "
                     f"present in every window")
        print(f"check_trace: cluster labels ok: {len(inst)} "
              f"instances x {len(ref_bounds)} aligned windows")

    print(f"check_trace: timeseries ok: {len(series)} series "
          f"({len(set(machines))} machines), {windows_checked} "
          f"windows, {counters_checked} counters reconciled with "
          f"totals")


def main():
    args = sys.argv[1:]
    ts_path = None
    metrics_path = None
    positional = []
    for a in args:
        if a.startswith("--timeseries="):
            ts_path = a.split("=", 1)[1]
        elif a.startswith("--metrics="):
            metrics_path = a.split("=", 1)[1]
        else:
            positional.append(a)
    if len(positional) == 2:
        metrics_path = positional.pop()
    if ((ts_path is None and metrics_path is None and not positional)
            or len(positional) > 1):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if positional:
        check_trace(positional[0])
    if metrics_path is not None:
        check_metrics(metrics_path)
    if ts_path is not None:
        check_timeseries(ts_path)


if __name__ == "__main__":
    main()
