#!/usr/bin/env python3
"""Validate the JSON emitted by the self-describing benchmarks.

Usage: check_bench.py BENCH_JSON

Dispatches on the top-level "benchmark" id:

* "chain_kernel" (bench_chain_kernel) — the structural contract below;
* "serve" (bench_serve) — the daemon throughput report: jobs ran,
  latency percentiles are ordered, the cache hit-rate is a rate, every
  job completed and the identical-spec jobs produced identical fronts.
* "resilience" (bench_resilience) — the permanent-fault lane: a
  non-empty k-resilient front, every point's analytic availability and
  error inside the injected Wilson interval, injection bit-identical
  across thread counts, and a sane resilience-agnostic baseline.
* "scale" (bench_scale) — the single-population fcCLR scaling report: per
  graph size a positive wall time, the full pop x (gens + 1) evaluation
  budget, and a hypervolume curve with monotone evaluation counts that
  ends at the run's budget and final hypervolume.
* "sim_validation" (bench_sim_validation) — the Monte Carlo validation
  report: the full key set, a positive trial count per point, results
  bit-identical at 1 and 4 threads, and at least 90% of the design points
  agreeing with the analytic QoS.

For chain_kernel the contract CI archives and the docs describe:

* the file parses and identifies itself as the chain_kernel benchmark;
* the scalar-vs-scalar section ("sizes") has the memoized-kernel fields
  with positive timings and the correctness flag set;
* the batched section has one record per (size class, dispatch level)
  with the full field set — intervals, transient_states, width, simd,
  scalar_ns_per_chain, ns_per_chain, chains_per_sec, speedup_vs_scalar,
  pad_waste_pct — and each record is internally consistent
  (chains_per_sec ~ 1e9 / ns_per_chain, speedup ~ scalar/batched);
* the batched lanes were bit-identical to the scalar solver
  (batched_agree, batched_max_rel_err == 0).

Speedups are a soft gate: a worst-case batched speedup below the warning
threshold prints a WARN (shared CI runners are noisy) but does not fail
the job. Structural violations exit non-zero on the first one found.
"""

import json
import sys

# Warn (don't fail) below this batched speedup — the acceptance target is
# 3x on quiet AVX2 hardware, but CI runners share cores and throttle.
SOFT_SPEEDUP_WARN = 2.0

BATCHED_FIELDS = (
    "intervals",
    "transient_states",
    "width",
    "simd",
    "scalar_ns_per_chain",
    "ns_per_chain",
    "chains_per_sec",
    "speedup_vs_scalar",
    "pad_waste_pct",
)


def fail(message: str) -> None:
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def warn(message: str) -> None:
    print(f"check_bench: WARN: {message}")


def check_sizes(report: dict) -> None:
    sizes = report.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        fail("'sizes' missing or empty")
    for entry in sizes:
        for key in ("intervals", "transient_states", "old_ns_per_eval",
                    "new_ns_per_eval", "speedup", "new_allocs_per_eval"):
            if key not in entry:
                fail(f"sizes entry missing '{key}': {entry}")
        if entry["old_ns_per_eval"] <= 0 or entry["new_ns_per_eval"] <= 0:
            fail(f"sizes entry has non-positive timing: {entry}")
        if entry["new_allocs_per_eval"] != 0:
            fail(
                f"warm evaluation allocated "
                f"({entry['new_allocs_per_eval']} allocs/eval at "
                f"t={entry['transient_states']}) — workspace reuse regressed"
            )
    if report.get("agree") is not True:
        fail("scalar kernel results diverged from the reference (agree=false)")


def check_batched(report: dict) -> None:
    batched = report.get("batched")
    if not isinstance(batched, list) or not batched:
        fail("'batched' missing or empty")

    seen = set()
    for entry in batched:
        for key in BATCHED_FIELDS:
            if key not in entry:
                fail(f"batched entry missing '{key}': {entry}")
        if entry["simd"] not in ("scalar", "avx2", "avx512"):
            fail(f"batched entry has unknown simd level {entry['simd']!r}")
        if entry["width"] not in (1, 4, 8):
            fail(f"batched entry has unexpected width {entry['width']}")
        if entry["ns_per_chain"] <= 0 or entry["scalar_ns_per_chain"] <= 0:
            fail(f"batched entry has non-positive timing: {entry}")
        if not 0 <= entry["pad_waste_pct"] <= 100:
            fail(f"batched entry pad_waste_pct out of range: {entry}")

        combo = (entry["transient_states"], entry["simd"], entry["width"])
        if combo in seen:
            fail(f"duplicate batched record for t/simd/width {combo}")
        seen.add(combo)

        throughput = 1e9 / entry["ns_per_chain"]
        if abs(entry["chains_per_sec"] - throughput) > 1e-3 * throughput:
            fail(
                f"chains_per_sec {entry['chains_per_sec']} inconsistent with "
                f"ns_per_chain {entry['ns_per_chain']}"
            )
        ratio = entry["scalar_ns_per_chain"] / entry["ns_per_chain"]
        if abs(entry["speedup_vs_scalar"] - ratio) > 1e-3 * ratio:
            fail(
                f"speedup_vs_scalar {entry['speedup_vs_scalar']} inconsistent "
                f"with the per-chain timings (expected {ratio})"
            )

    if report.get("batched_agree") is not True:
        fail("batched lanes diverged from the scalar solver "
             "(batched_agree=false)")
    if report.get("batched_max_rel_err", 1.0) != 0:
        fail(
            f"batched lanes are not bit-identical to scalar "
            f"(batched_max_rel_err={report.get('batched_max_rel_err')})"
        )

    worst = min(e["speedup_vs_scalar"] for e in batched)
    if worst < SOFT_SPEEDUP_WARN:
        slowest = min(batched, key=lambda e: e["speedup_vs_scalar"])
        warn(
            f"worst batched speedup {worst:.2f}x "
            f"(t={slowest['transient_states']}, {slowest['simd']} "
            f"w{slowest['width']}) is below the {SOFT_SPEEDUP_WARN}x soft "
            f"gate — likely a noisy runner, investigate if persistent"
        )

    print(
        f"check_bench: batched OK — {len(batched)} records, "
        f"worst speedup {worst:.2f}x, max divergence "
        f"{report.get('batched_max_rel_err')}"
    )


def check_chain_kernel(report: dict) -> str:
    for key in ("reps", "evals_per_rep", "simd_detected"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    check_sizes(report)
    check_batched(report)
    return f"simd={report['simd_detected']}"


def check_serve(report: dict) -> str:
    for key in ("jobs", "workers", "queue_depth", "jobs_per_sec",
                "p50_job_latency_ms", "p99_job_latency_ms", "cache_hit_rate",
                "fitness_hits", "chain_hits", "all_completed",
                "identical_fronts_agree"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    if report["jobs"] <= 0:
        fail(f"no jobs ran (jobs={report['jobs']})")
    if report["jobs_per_sec"] <= 0:
        fail(f"non-positive throughput (jobs_per_sec={report['jobs_per_sec']})")
    if report["p50_job_latency_ms"] <= 0:
        fail(f"non-positive p50 latency ({report['p50_job_latency_ms']})")
    if report["p50_job_latency_ms"] > report["p99_job_latency_ms"]:
        fail(
            f"latency percentiles out of order: p50 "
            f"{report['p50_job_latency_ms']} > p99 "
            f"{report['p99_job_latency_ms']}"
        )
    if not 0 <= report["cache_hit_rate"] <= 1:
        fail(f"cache_hit_rate out of range: {report['cache_hit_rate']}")
    if report["all_completed"] is not True:
        fail("not every submitted job completed (all_completed=false)")
    if report["identical_fronts_agree"] is not True:
        fail("identical-spec jobs produced different fronts — the serve "
             "path broke determinism (identical_fronts_agree=false)")
    if report["fitness_hits"] <= 0:
        fail("no cross-request fitness-cache hits — session sharing "
             f"regressed (fitness_hits={report['fitness_hits']})")

    if "keepalive" not in report:
        fail("missing 'keepalive' section (HTTP front-end benchmark)")
    ka = report["keepalive"]
    for key in ("requests", "http_ok", "keepalive_rps", "per_connection_rps",
                "keepalive_p50_ms", "keepalive_p99_ms",
                "per_connection_p50_ms", "per_connection_p99_ms", "speedup"):
        if key not in ka:
            fail(f"missing keepalive key '{key}'")
    if ka["http_ok"] is not True:
        fail("HTTP keep-alive section hit a socket failure (http_ok=false)")
    if ka["keepalive_rps"] <= 0 or ka["per_connection_rps"] <= 0:
        fail("non-positive HTTP throughput "
             f"(keepalive {ka['keepalive_rps']}, "
             f"per-connection {ka['per_connection_rps']})")
    for prefix in ("keepalive", "per_connection"):
        if ka[f"{prefix}_p50_ms"] > ka[f"{prefix}_p99_ms"]:
            fail(f"{prefix} latency percentiles out of order")
    # Soft gate: shared CI runners are too noisy for a hard perf assertion,
    # but a persistent connection should comfortably beat a fresh TCP
    # handshake per request.
    if ka["speedup"] < 1.3:
        warn(f"keep-alive speedup {ka['speedup']:.2f}x below the expected "
             "1.3x over one-connection-per-request")

    return (
        f"{report['jobs']} jobs at {report['jobs_per_sec']:.1f}/s, "
        f"p50 {report['p50_job_latency_ms']:.2f} ms, "
        f"hit-rate {100 * report['cache_hit_rate']:.1f}%, "
        f"keep-alive {ka['speedup']:.2f}x"
    )


def check_resilience(report: dict) -> str:
    for key in ("max_failures", "mission_hours", "trials_per_point",
                "front_points", "points", "availability_covered",
                "error_covered", "covered", "deterministic",
                "baseline_front_points", "baseline_survivors",
                "baseline_survivor_fraction"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    n = report["front_points"]
    if n <= 0:
        fail(f"empty k-resilient front (front_points={n})")
    points = report["points"]
    if not isinstance(points, list) or len(points) != n:
        fail(f"'points' missing or inconsistent with front_points={n}")
    for point in points:
        for key in ("analytic_availability", "injected_availability",
                    "availability_ci_lo", "availability_ci_hi",
                    "availability_covered", "analytic_error_prob",
                    "injected_error_prob", "error_ci_lo", "error_ci_hi",
                    "error_covered", "available_trials"):
            if key not in point:
                fail(f"points entry missing '{key}': {point}")
        if not 0 <= point["analytic_availability"] <= 1:
            fail(f"analytic availability out of range: {point}")
        if point["availability_ci_lo"] > point["availability_ci_hi"]:
            fail(f"availability CI inverted: {point}")
        if point["error_ci_lo"] > point["error_ci_hi"]:
            fail(f"error CI inverted: {point}")
        if point["available_trials"] <= 0:
            fail(f"no available trials — injection never found a surviving "
                 f"configuration: {point}")
    if report["deterministic"] is not True:
        fail("injection diverged across thread counts (deterministic=false)")
    if report["covered"] is not True:
        fail(
            f"Monte Carlo oracle disagrees with the analytic degraded-mode "
            f"prediction (availability {report['availability_covered']}/{n}, "
            f"error {report['error_covered']}/{n} covered)"
        )
    if not 0 <= report["baseline_survivor_fraction"] <= 1:
        fail(f"baseline_survivor_fraction out of range: "
             f"{report['baseline_survivor_fraction']}")
    return (
        f"k={report['max_failures']}, {n} front points covered at "
        f"{report['trials_per_point']} trials, baseline survivors "
        f"{100 * report['baseline_survivor_fraction']:.0f}%"
    )


def check_scale(report: dict) -> str:
    for key in ("flow", "population", "generations", "seed", "fast_mode",
                "sizes"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    budget = report["population"] * (report["generations"] + 1)
    sizes = report["sizes"]
    if not isinstance(sizes, list) or not sizes:
        fail("'sizes' missing or empty")
    for entry in sizes:
        for key in ("tasks", "wall_seconds", "evaluations", "hypervolume",
                    "curve"):
            if key not in entry:
                fail(f"sizes entry missing '{key}': {list(entry)}")
        label = f"{entry['tasks']}-task run"
        if entry["wall_seconds"] <= 0:
            fail(f"{label} has non-positive wall_seconds")
        if entry["evaluations"] != budget:
            fail(f"{label} spent {entry['evaluations']} evaluations, "
                 f"not the pop x (gens + 1) budget {budget}")
        curve = entry["curve"]
        if not isinstance(curve, list) or not curve:
            fail(f"{label} has missing/empty 'curve'")
        last_evals = -1
        for point in curve:
            for key in ("evaluations", "wall_seconds", "front_size",
                        "hypervolume"):
                if key not in point:
                    fail(f"{label} curve point missing '{key}': {point}")
            if point["evaluations"] < last_evals:
                fail(f"{label} curve evaluations not monotone")
            last_evals = point["evaluations"]
        if curve[-1]["evaluations"] != entry["evaluations"]:
            fail(f"{label} curve ends at {curve[-1]['evaluations']} "
                 f"evaluations but the run reports {entry['evaluations']}")
        if curve[-1]["hypervolume"] != entry["hypervolume"]:
            fail(f"{label} curve ends at hypervolume "
                 f"{curve[-1]['hypervolume']}, not the reported "
                 f"{entry['hypervolume']}")
    return ", ".join(
        f"{entry['tasks']} tasks {entry['wall_seconds']:.2f}s "
        f"hv {entry['hypervolume']:.4g}" for entry in sizes)


def check_sim_validation(report: dict) -> str:
    for key in ("application", "trials_per_point", "sim_seed", "flows",
                "design_points", "makespan_agreement", "error_agreement",
                "agreement", "deterministic", "trials_per_sec_serial",
                "trials_per_sec_parallel"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    if report["trials_per_point"] <= 0:
        fail(f"no trials ran (trials_per_point={report['trials_per_point']})")
    if report["deterministic"] is not True:
        fail("simulation diverged across thread counts (deterministic=false)")
    if report["agreement"] < 0.9:
        fail(f"analytic/simulated agreement {report['agreement']:.3f} "
             "below 0.9")
    return (
        f"{report['design_points']} design points at "
        f"{report['trials_per_point']} trials, agreement "
        f"{100 * report['agreement']:.0f}%"
    )


CHECKERS = {
    "chain_kernel": check_chain_kernel,
    "serve": check_serve,
    "resilience": check_resilience,
    "scale": check_scale,
    "sim_validation": check_sim_validation,
}


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(argv[1], encoding="utf-8") as handle:
        report = json.load(handle)

    checker = CHECKERS.get(report.get("benchmark"))
    if checker is None:
        fail(f"unexpected benchmark id {report.get('benchmark')!r}")
    detail = checker(report)
    print(f"check_bench: OK — {argv[1]} ({detail})")


if __name__ == "__main__":
    main(sys.argv)
