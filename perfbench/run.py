#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (it imports the program from ``src/``).
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload twice, untraced then with span wrappers
installed in every process, and reports the per-layer metrics, the
tracing overhead and the share of end-to-end time the spans cover.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is non-zero when the run could not be made (for example with no
``src/repro`` next to this directory). See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("hot-read", "drift-read", "routed-read", "table1-bench")

#: name -> unit of the end-to-end metrics (see README.md).
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MiB",
}

#: Every end-to-end quantity, with its unit: the summary line prints them
#: all, the JSON line only the bounded END_TO_END ones.
SUMMARY_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "capacity_rps": "1/s",
    "req_per_cpu_s": "1/s",
    "fail_frac": "ratio",
    "stale_frac": "ratio",
    "rss_mb": "MiB",
    "backtest_s": "s",
    "guarantee_misses": "count",
}

#: Share of the run budget spent at the fixed rates; the rest searches
#: for capacity.
FIXED_SHARE = 0.55
#: Each fixed rate is replayed this many times, in rotation, so a slow
#: drift of the host moves every rate alike. p50 pools every fixed-rate
#: sample. The printed p99 is the median of the p99s of consecutive
#: P99_WINDOW-request windows (each has 10 samples beyond its p99), next
#: to the pooled percentiles.
FIXED_ROUNDS = 4
P99_WINDOW = 1000
PROBE_SECONDS = 0.6
#: Unmeasured traffic before the first measured phase: the server's first
#: collector passes over the warm-start heap and its first-touch caches
#: (URL parse memo, encode cache) happen here, not in a measured phase.
WARMUP_SECONDS = 1.0
#: Set-ups per measured run; setup_s is their median.
SETUP_REPEATS = 3


class Outcome:
    """What one run measured, checked and wants to print."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        # End-to-end quantities that carry no regression bound.
        self.extra: dict[str, float] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def line(self, text: str) -> None:
        self.lines.append(text)

    def summary_line(self) -> str:
        """Every end-to-end quantity the workload defines, by name and unit
        (``n/a`` where the workload has none)."""
        values = {**self.metrics, **self.extra}
        values["fail_frac"] = self.failed / max(self.attempted, 1)
        parts = []
        for name, unit in SUMMARY_UNITS.items():
            value = values.get(name)
            parts.append(f"{name} n/a" if value is None else f"{name} {value:.4f} {unit}")
        return "  end to end: " + "; ".join(parts)


# -- serving workloads ----------------------------------------------------------------


def _serving_pass(name: str, seed: int, seconds: float, trace: bool, capacity: bool, out: Outcome, setups: int = 1) -> dict:
    """Set up the workload's servers ``setups`` times (all but the last
    are stopped at once), replay the fixed rates (and, when ``capacity``,
    search for capacity), check outputs, drain.

    Returns the raw material: phases, counter deltas, CPU, spans.
    """
    import serving

    shape = serving.SHAPES[name]

    def set_up(trace: bool):
        """Build the fleet and start the servers; returns them with the
        set-up's (CPU, wall) seconds: this process's share plus every
        server process's whole life so far."""
        cpu, wall = serving.self_cpu_seconds(), time.perf_counter()
        fleet = serving.build_fleet()
        servers = serving.Servers(fleet, shape, trace)
        cpu = serving.self_cpu_seconds() - cpu + sum(map(serving.cpu_seconds, servers.pids))
        return fleet, servers, (cpu, time.perf_counter() - wall)

    setup_times = []
    for _ in range(setups - 1):
        spare, times = set_up(trace=False)[1:]
        spare.stop()
        setup_times.append(times)
    # The spare fleets must not live on in the memory the measured
    # servers inherit at fork (it would count in their RSS).
    gc.collect()
    client_recorder = None
    if trace:
        from tracing import SpanRecorder, install_client_spans

        client_recorder = SpanRecorder()
        install_client_spans(client_recorder)
    fleet, servers, times = set_up(trace)
    setup_times.append(times)
    try:
        maker = serving.StreamMaker(fleet, seed, shape.now_drift)
        warm_rate = shape.rates[len(shape.rates) // 2]
        warmup = serving.replay(servers.url, maker.stream(warm_rate, WARMUP_SECONDS), warm_rate)
        per_phase = seconds * FIXED_SHARE / (len(shape.rates) * FIXED_ROUNDS)
        streams = [
            (rate, maker.stream(rate, per_phase))
            for _ in range(FIXED_ROUNDS)
            for rate in shape.rates
        ]
        before = serving.counters_of(servers)
        cpu0 = [serving.cpu_seconds(pid) for pid in servers.pids]
        client0 = serving.self_cpu_seconds()
        if client_recorder is not None:
            servers.mark()
            client_recorder.mark()
        window0 = time.monotonic()
        phases = [serving.replay(servers.url, stream, rate) for rate, stream in streams]
        window_s = time.monotonic() - window0
        if client_recorder is not None:
            servers.mark()
            client_recorder.mark()
        client_cpu = serving.self_cpu_seconds() - client0
        cpu1 = [serving.cpu_seconds(pid) for pid in servers.pids]
        after = serving.counters_of(servers)
        cpu = {"front": cpu1[0] - cpu0[0], "shards": sum(cpu1[1:]) - sum(cpu0[1:])}
        requests = sum(p.attempted for p in phases)
        result = {
            "setup_s": statistics.median(cpu for cpu, _ in setup_times),
            "setup_wall_s": statistics.median(wall for _, wall in setup_times),
            "phases": phases,
            "window_s": window_s,
            # Pool sizes are levels, not counters: keep their end value.
            "delta": {
                k: v if k.startswith("router.pool.") else v - before.get(k, 0.0)
                for k, v in after.items()
            },
            "cpu": cpu,
            "req_per_cpu_s": requests / (cpu["front"] + cpu["shards"]),
            "client_cpu_s": client_cpu,
        }
        if capacity:
            result["capacity"] = serving.capacity_search(
                servers.url,
                maker,
                result["req_per_cpu_s"],
                max(seconds - window_s, PROBE_SECONDS),
                PROBE_SECONDS,
            )
        check_now = fleet.start_now
        if shape.now_drift:
            # Past every key's refresh horizon: each sampled key must be
            # brought up to check_now by the refresher before comparison.
            check_now = maker.last_now + 2 * serving.ServiceConfig().refresh_seconds
        urls = [r.url for _, stream in streams for r in stream]
        result["check"] = serving.check_outputs(servers, fleet, urls, seed, check_now)
        result["rss_mb"] = sum(serving.peak_rss_mb(pid) for pid in servers.pids)
    finally:
        stats = servers.stop()
    result["drain"] = stats
    if client_recorder is not None:
        client_recorder.uninstall()
        result["client_spans"] = client_recorder.summary()
    compared, mismatched = result["check"]
    attempted = requests + warmup.attempted
    failed = sum(p.failed for p in phases) + warmup.failed
    out.attempted += attempted + compared
    out.failed += failed + mismatched
    drained = stats.get("drained") and stats.get("exit_status") == 0
    if mismatched or failed or not drained:
        out.correct = False
    out.line(
        f"{name}{' traced' if trace else ''}: {attempted} requests, {failed} failed; "
        f"output check {compared - mismatched}/{compared} byte-identical; "
        f"drain {'clean' if drained else 'DIRTY'}"
    )
    window = serving.pooled(phases)
    if window.client_bound:
        # The generator fell behind its schedule: the latencies measure
        # the client, so the run is invalid rather than fast.
        out.correct = False
        out.line(
            f"  fixed-rate window is CLIENT-BOUND (dispatch lag p50 "
            f"{np.median(window.dispatch_lag_ms):.3f} ms, client CPU "
            f"{window.client_busy:.0%} busy): the run is invalid"
        )
    return result


def _p50(phases) -> float:
    """The due-time p50 of every fixed-rate sample."""
    import serving

    return float(np.percentile(serving.pooled(phases).latency_ms, 50))


def run_serving(name: str, seed: int, seconds: float, out: Outcome) -> None:
    import serving

    result = _serving_pass(
        name, seed, seconds, trace=False, capacity=True, out=out, setups=SETUP_REPEATS
    )
    phases = result["phases"]
    for rate in sorted({p.rate for p in phases}):
        at_rate = serving.pooled([p for p in phases if p.rate == rate])
        out.line(
            f"  offered {at_rate.offered_rps:7.0f} rps  achieved {at_rate.achieved_rps:7.0f}  "
            f"p50 {np.percentile(at_rate.latency_ms, 50):6.3f} ms  "
            f"p99 {np.percentile(at_rate.latency_ms, 99):7.3f} ms  "
            f"n={at_rate.latency_ms.size}  lag p99 {np.percentile(at_rate.lag_ms, 99):6.3f} ms  "
            f"steal {at_rate.steal_frac:.1%}"
        )
    out.line(
        "  phase p50s (ms): "
        + " ".join(f"{np.percentile(p.latency_ms, 50):.3f}" for p in phases)
    )
    capacity, knee, probes = result["capacity"]
    out.line(
        "  capacity probes: "
        + ", ".join(
            f"{p.rate:.0f}{'+' if p.meets_slo else '-'}{'c' if p.client_bound else ''}"
            for p in probes
        )
        + "  (+ pass, - fail, c client-bound)"
    )
    if knee is not None and knee.client_bound:
        out.line(
            f"  capacity ceiling is CLIENT-BOUND (the generator fell behind above "
            f"{capacity:.0f} rps): not a server number, capacity_rps n/a"
        )
        capacity = None
    elif capacity is None:
        out.line("  no knee within the budget (no probe passed, or none failed): capacity_rps n/a")
    window = serving.pooled(phases)
    latency = window.latency_ms
    windowed_p99 = np.median(
        [
            np.percentile(chunk, 99)
            for chunk in np.array_split(latency, max(1, latency.size // P99_WINDOW))
        ]
    )
    delta = result["delta"]
    out.metrics.update(setup_s=result["setup_s"], rss_mb=result["rss_mb"])
    out.extra.update(
        p50_ms=_p50(phases),
        req_per_cpu_s=result["req_per_cpu_s"],
        p99_ms=windowed_p99,
        stale_frac=delta.get("gateway.stale_hits", 0.0) / max(delta.get("gateway.requests", 0.0), 1),
    )
    if capacity is not None:
        out.extra["capacity_rps"] = capacity
    out.line(
        f"  set-up {result['setup_s']:.3f} s CPU, {result['setup_wall_s']:.3f} s wall "
        f"(medians of {SETUP_REPEATS})"
    )
    out.line(
        f"  samples {latency.size}; replay lag p99 {np.percentile(window.lag_ms, 99):.3f} ms "
        f"(dispatch lag p50 {np.median(window.dispatch_lag_ms):.3f} ms, client CPU "
        f"{window.client_busy:.0%} busy); "
        f"p99 is the median over {P99_WINDOW}-request windows; pooled tails: "
        + ", ".join(f"p{q} {np.percentile(latency, q):.3f} ms" for q in (90, 95, 99, 99.9))
        + f"; host steal {window.steal_frac:.1%} of CPU time"
    )
    from layers import counter_metrics

    accounting = counter_metrics(delta, window.attempted, result["cpu"], result["client_cpu_s"])
    out.line(
        "  per request: "
        + ", ".join(f"{k} {v:.3f}" for k, v in accounting.items() if v)
    )


def trace_serving(name: str, seed: int, seconds: float, out: Outcome) -> None:
    import serving
    from layers import counter_metrics, span_metrics
    from tracing import merge_summaries

    plain = _serving_pass(name, seed, seconds, trace=False, capacity=False, out=out)
    traced = _serving_pass(name, seed, seconds, trace=True, capacity=False, out=out)
    window = serving.pooled(plain["phases"])
    metrics = counter_metrics(plain["delta"], window.attempted, plain["cpu"], plain["client_cpu_s"])
    metrics["replay.lag_p99_ms"] = float(np.percentile(window.lag_ms, 99))

    drain = traced["drain"]
    server_summaries = [drain.get("spans")]
    gateway_summaries = [drain.get("spans")]
    if "shards" in drain:
        gateway_summaries = [s.get("spans") for s in drain["shards"].values()]
        server_summaries += gateway_summaries
    summaries = server_summaries + [traced["client_spans"]]
    merged = merge_summaries(summaries)
    spans, gauges = merged["spans"], merged["gauges"]
    setup = merge_summaries(summaries, section="setup")["spans"]
    metrics.update(span_metrics(spans, gauges, setup))
    refreshes = spans.get("refresher.refresh", {}).get("count", 0)
    metrics["refresher.refreshes_per_s"] = refreshes / traced["window_s"]

    traced_p50 = _p50(traced["phases"])
    plain_p50 = _p50(plain["phases"])
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    calls = spans.get("replay.call", {}).get("total_ms", 0.0)
    metrics["trace.span_coverage"] = calls / float(serving.pooled(traced["phases"]).latency_ms.sum())
    gateway_spans = merge_summaries(gateway_summaries)["spans"]
    serve = gateway_spans.get("aiohttpd.serve", {})
    offload = gateway_spans.get("aiohttpd.offload", {})
    metrics["trace.server_span_coverage"] = (
        serve.get("total_ms", 0.0) + offload.get("total_ms", 0.0)
    ) / calls if calls else 0.0
    if "shards" in drain:
        shard_p50_ms = serve.get("p50_us", 0.0) / 1e3
        metrics["router.hop_ms"] = traced_p50 - shard_p50_ms
    out.metrics.update(metrics)
    out.line(
        f"  untraced p50 {plain_p50:.3f} ms, traced p50 {traced_p50:.3f} ms "
        f"(overhead {metrics['trace.overhead_frac']:+.1%}); client spans cover "
        f"{metrics['trace.span_coverage']:.1%} of due-time latency, server spans "
        f"{metrics['trace.server_span_coverage']:.1%} of the client's calls"
    )


# -- table1-bench ---------------------------------------------------------------------------


def _table1_pass(seconds: float, trace: bool, out: Outcome) -> list[dict]:
    import table1

    reports: list[dict] = []
    start = time.monotonic()
    while True:
        report = table1.run_once(trace)
        reports.append(report)
        elapsed = time.monotonic() - start
        if trace or elapsed + elapsed / len(reports) > seconds:
            break
    for report in reports:
        mismatched = table1.mismatched_cells(report["cells"])
        out.attempted += len(report["cells"])
        out.failed += mismatched
        if mismatched or report["guarantee_misses"]:
            out.correct = False
        out.line(
            f"table1-bench{' traced' if trace else ''}: backtest {report['backtest_s']:.3f} s "
            f"({report['backtest_cpu_s']:.3f} s CPU), "
            f"set-up {report['setup_s']:.3f} s CPU; {len(report['cells']) - mismatched}/"
            f"{len(report['cells'])} cells match the reference; "
            f"guarantee_misses {report['guarantee_misses']}"
        )
    return reports


def run_table1(seconds: float, out: Outcome) -> None:
    import table1

    reports = _table1_pass(seconds, trace=False, out=out)
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_REPEATS:
        setups.append(table1.run_once(trace=False, setup_only=True)["setup_s"])
    # The matrix is single-threaded: its CPU time is its wall time less the
    # time the host gave the CPU to someone else, and is the steadier of
    # the two on a shared host. Wall time is printed as backtest_s.
    cpu_s = statistics.median(r["backtest_cpu_s"] for r in reports)
    out.metrics.update(
        setup_s=statistics.median(setups),
        rss_mb=statistics.median(r["rss_mb"] for r in reports),
    )
    out.extra.update(
        p50_ms=cpu_s * 1e3,
        req_per_cpu_s=reports[0]["requests"] / cpu_s,
        backtest_s=statistics.median(r["backtest_s"] for r in reports),
        guarantee_misses=max(r["guarantee_misses"] for r in reports),
    )
    out.line(
        f"  {len(reports)} repetition(s); set-ups "
        + ", ".join(f"{s:.3f}" for s in setups)
        + " s CPU"
    )


def trace_table1(seconds: float, out: Outcome) -> None:
    from layers import span_metrics

    plain = _table1_pass(seconds, trace=False, out=out)[0]
    traced = _table1_pass(seconds, trace=True, out=out)[0]
    spans = traced["spans"]["spans"]
    metrics = span_metrics(spans, traced["spans"]["gauges"])
    metrics["trace.overhead_frac"] = traced["backtest_s"] / plain["backtest_s"] - 1.0
    top = sum(
        spans.get(name, {}).get("total_ms", 0.0)
        for name in ("universe_driver.drafts_bids", "ar1.prefit", "engine.run_backtest")
    )
    metrics["trace.span_coverage"] = top / 1e3 / traced["backtest_s"]
    out.metrics.update(metrics)
    out.line(
        f"  untraced backtest {plain['backtest_s']:.3f} s, traced {traced['backtest_s']:.3f} s "
        f"(overhead {metrics['trace.overhead_frac']:+.1%}); top-level spans cover "
        f"{metrics['trace.span_coverage']:.1%} of it"
    )


# -- entry point ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = Outcome()
    traced = bool(args.trace)
    if args.workload == "table1-bench":
        (trace_table1 if traced else run_table1)(args.seconds, out)
    else:
        runner = trace_serving if traced else run_serving
        runner(args.workload, args.seed, args.seconds, out)
    if traced:
        from layers import complete

        metrics = complete(out.metrics)
    else:
        metrics = {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for text in out.lines:
        print(text)
    if not traced:
        print(out.summary_line())
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
