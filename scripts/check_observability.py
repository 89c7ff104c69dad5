#!/usr/bin/env python3
"""Validate the files written by --metrics-out / --trace-out.

Usage: check_observability.py METRICS_JSON [TRACE_JSON]

Asserts the structural contract the docs promise and CI relies on:

* the metrics snapshot parses and has the counters/gauges/histograms/
  manifest sections with sane types;
* histogram bucket counts sum to the histogram count;
* both DSE memo caches report cache.{fitness,chain_solve}.{hits,misses,
  evictions} counters, non-negative, with hits + misses > 0 for each
  (the smoke run exercises both caches);
* the manifest is complete;
* the trace (when given) is valid Chrome trace-event JSON: every event has
  name/ph/ts/pid/tid, complete events have durations, counter events carry
  args.value, and dropped_events is reported.

Exits non-zero with a message on the first violation.
"""

import json
import math
import sys

# The named MemoCaches every DSE run builds (util::metrics counters
# cache.<name>.{hits,misses,evictions}).
CACHES = ("fitness", "chain_solve")


def fail(message: str) -> None:
    print(f"check_observability: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_metrics(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)

    for section in ("counters", "gauges", "histograms", "manifest"):
        if section not in snapshot:
            fail(f"metrics: missing section '{section}'")

    for name, value in snapshot["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"metrics: counter '{name}' has bad value {value!r}")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)) or math.isnan(value):
            fail(f"metrics: gauge '{name}' has bad value {value!r}")

    for name, hist in snapshot["histograms"].items():
        for key in ("count", "sum", "min", "max", "buckets"):
            if key not in hist:
                fail(f"metrics: histogram '{name}' missing '{key}'")
        total = 0
        previous_bound = -math.inf
        for bucket in hist["buckets"]:
            total += bucket["count"]
            if "le" in bucket:
                if bucket["le"] <= previous_bound:
                    fail(f"metrics: histogram '{name}' bounds not ascending")
                previous_bound = bucket["le"]
            elif not bucket.get("overflow"):
                fail(f"metrics: histogram '{name}' bucket lacks le/overflow")
        if total != hist["count"]:
            fail(
                f"metrics: histogram '{name}' buckets sum to {total}, "
                f"count says {hist['count']}"
            )

    counters = snapshot["counters"]
    for cache in CACHES:
        for event in ("hits", "misses", "evictions"):
            name = f"cache.{cache}.{event}"
            value = counters.get(name)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"metrics: counter '{name}' missing or bad: {value!r}")
        lookups = counters[f"cache.{cache}.hits"] + counters[
            f"cache.{cache}.misses"]
        if lookups <= 0:
            fail(f"metrics: cache '{cache}' saw no lookups")

    manifest = snapshot["manifest"]
    for key in ("program", "args", "seed", "threads", "cache_capacity",
                "build_type", "log_level"):
        if key not in manifest:
            fail(f"metrics: manifest missing '{key}'")
    if not manifest["program"]:
        fail("metrics: manifest has an empty program")
    if manifest["build_type"] not in ("Release", "Debug"):
        fail(f"metrics: manifest build_type {manifest['build_type']!r}")

    print(
        f"check_observability: metrics OK — "
        f"{len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms, "
        f"{len(CACHES)} caches"
    )


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)

    if trace.get("displayTimeUnit") not in ("ms", "ns"):
        fail("trace: bad or missing displayTimeUnit")
    other = trace.get("otherData")
    if not isinstance(other, dict) or "dropped_events" not in other:
        fail("trace: otherData.dropped_events missing")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: traceEvents missing or empty")

    for index, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"trace: event {index} missing '{key}'")
        phase = event["ph"]
        if phase == "X":
            if "dur" not in event or event["dur"] < 0:
                fail(f"trace: complete event {index} has bad duration")
        elif phase == "C":
            if "value" not in event.get("args", {}):
                fail(f"trace: counter event {index} lacks args.value")
        elif phase != "i":
            fail(f"trace: event {index} has unexpected phase {phase!r}")

    spans = sum(1 for e in events if e["ph"] == "X")
    print(
        f"check_observability: trace OK — {len(events)} events "
        f"({spans} spans), {other['dropped_events']} dropped"
    )


def main(argv: list[str]) -> None:
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_metrics(argv[1])
    if len(argv) == 3:
        check_trace(argv[2])


if __name__ == "__main__":
    main(sys.argv)
