"""Per-layer metrics: what each layer of the program did in a traced run.

Two sources feed them. *Outside-in* numbers come from the untraced pass
of a traced run: ``/metrics`` counter deltas across the measured window
and utime/stime of every server pid from ``/proc``, divided by the
requests served. *Span* numbers come from the traced pass (see
:mod:`tracing`): per-call means of the wrapped entry points, self time
where a layer calls into another one.

Every metric is reported on every workload; a layer a workload bypasses
reads 0.
"""

from __future__ import annotations

#: name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "replay.lag_p99_ms": "ms",
    "replay.cpu_us_per_req": "us",
    "aiohttpd.cpu_us_per_req": "us",
    "aiohttpd.inline_frac": "ratio",
    "aiohttpd.offload_ms": "ms",
    "aiohttpd.encode_calls_per_req": "count",
    "httpcore.parse_head_us": "us",
    "httpcore.dispatch_us": "us",
    "httpcore.render_us": "us",
    "gateway.get_us": "us",
    "gateway.probe_inline_us": "us",
    "gateway.hit_frac": "ratio",
    "gateway.stale_frac": "ratio",
    "gateway.recomputes": "count",
    "gateway.coalesced": "count",
    "store.lookup_us": "us",
    "store.peek_us": "us",
    "curves.to_dict_us": "us",
    "curves.bid_for_duration_us": "us",
    "rest.encode_body_us": "us",
    "refresher.refresh_ms": "ms",
    "refresher.refreshes_per_s": "1/s",
    "refresher.pending_max": "count",
    "service.curve_ms": "ms",
    "service.incremental_refreshes": "count",
    "service.refits": "count",
    "service.batch_ticks": "count",
    "service.scalar_ticks": "count",
    "universe.tick_ms": "ms",
    "universe.curves_ms": "ms",
    "universe.extend_frozen_s": "s",
    "universe_fit.fit_s": "s",
    "predcache.batch_fit_s": "s",
    "universe_driver.drafts_bids_s": "s",
    "ar1.prefit_s": "s",
    "engine.run_backtest_s": "s",
    "market.trace_s": "s",
    "router.cpu_us_per_req": "us",
    "shard.cpu_us_per_req": "us",
    "router.route_us": "us",
    "router.hop_ms": "ms",
    "router.merge_us": "us",
    "router.upstream_conns_created": "count",
    "router.partial_merges": "count",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage": "ratio",
    "trace.server_span_coverage": "ratio",
}


def _mean_us(spans: dict, name: str, field: str = "total_ms") -> float:
    agg = spans.get(name)
    if not agg or not agg["count"]:
        return 0.0
    return agg[field] / agg["count"] * 1e3


def _total_s(spans: dict, name: str) -> float:
    agg = spans.get(name)
    return agg["total_ms"] / 1e3 if agg else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: dict, gauges: dict, setup: dict | None = None) -> dict[str, float]:
    """The span-derived metrics common to every workload.

    ``setup`` holds the spans recorded before the measured window (a
    serving worker's warm start, the client's trace synthesis); the fit
    and trace-synthesis totals come from it when given.
    """
    setup = spans if setup is None else setup
    serves = spans.get("aiohttpd.serve", {}).get("count", 0)
    encodes = spans.get("rest.encode_body", {}).get("count", 0)
    return {
        "aiohttpd.offload_ms": _mean_us(spans, "aiohttpd.offload") / 1e3,
        "aiohttpd.encode_calls_per_req": _ratio(encodes, serves),
        "httpcore.parse_head_us": _mean_us(spans, "httpcore.parse_head"),
        "httpcore.dispatch_us": _mean_us(spans, "httpcore.dispatch", "self_ms"),
        "httpcore.render_us": _mean_us(spans, "httpcore.render_response"),
        "gateway.get_us": _mean_us(spans, "gateway.get", "self_ms"),
        "gateway.probe_inline_us": _mean_us(spans, "gateway.probe_inline"),
        "store.lookup_us": _mean_us(spans, "store.lookup"),
        "store.peek_us": _mean_us(spans, "store.peek"),
        "curves.to_dict_us": _mean_us(spans, "curves.to_dict"),
        "curves.bid_for_duration_us": _mean_us(spans, "curves.bid_for_duration"),
        "rest.encode_body_us": _mean_us(spans, "rest.encode_body"),
        "refresher.refresh_ms": _mean_us(spans, "refresher.refresh") / 1e3,
        "refresher.pending_max": float(gauges.get("refresher.pending_max", 0.0)),
        "service.curve_ms": _mean_us(spans, "service.curve") / 1e3,
        "universe.tick_ms": _mean_us(spans, "universe.tick") / 1e3,
        "universe.curves_ms": _mean_us(spans, "universe.curves") / 1e3,
        "universe.extend_frozen_s": _total_s(spans, "universe.extend_frozen"),
        "universe_fit.fit_s": _total_s(setup, "universe_fit.fit"),
        "predcache.batch_fit_s": _total_s(spans, "predcache.batch_fit"),
        "universe_driver.drafts_bids_s": _total_s(spans, "universe_driver.drafts_bids"),
        "ar1.prefit_s": _total_s(spans, "ar1.prefit"),
        "engine.run_backtest_s": _total_s(spans, "engine.run_backtest"),
        "market.trace_s": _total_s(setup, "market.trace"),
        "router.route_us": _mean_us(spans, "router.route"),
        "router.merge_us": _mean_us(spans, "router.merge_cheapest"),
    }


def counter_metrics(delta: dict, requests: int, cpu: dict, client_cpu_s: float) -> dict[str, float]:
    """The outside-in metrics of a serving window.

    ``delta`` holds counter differences across the window and the router's
    pool sizes at its end (see :func:`serving.counters_of`), ``cpu`` the CPU seconds each server role
    used in it (``front`` is the gateway or the router, ``shards`` the
    shard processes summed).
    """
    gateway_requests = delta.get("gateway.requests", 0.0)
    routed = "router.requests" in delta
    gateway_cpu = cpu["shards"] if routed else cpu["front"]
    return {
        "replay.cpu_us_per_req": _ratio(client_cpu_s, requests) * 1e6,
        "aiohttpd.cpu_us_per_req": _ratio(gateway_cpu, requests) * 1e6,
        "aiohttpd.inline_frac": _ratio(
            delta.get("httpd.requests_inline", 0.0), delta.get("httpd.requests", 0.0)
        ),
        "gateway.hit_frac": _ratio(delta.get("gateway.hits", 0.0), gateway_requests),
        "gateway.stale_frac": _ratio(delta.get("gateway.stale_hits", 0.0), gateway_requests),
        "gateway.recomputes": delta.get("serving.recomputes", 0.0),
        "gateway.coalesced": delta.get("serving.coalesced", 0.0),
        "service.incremental_refreshes": delta.get("service.incremental_refreshes", 0.0),
        "service.refits": delta.get("service.refits", 0.0),
        "service.batch_ticks": delta.get("service.batch_ticks", 0.0),
        "service.scalar_ticks": delta.get("service.scalar_ticks", 0.0),
        "router.cpu_us_per_req": _ratio(cpu["front"], requests) * 1e6 if routed else 0.0,
        "shard.cpu_us_per_req": _ratio(cpu["shards"], requests) * 1e6 if routed else 0.0,
        "router.upstream_conns_created": delta.get("router.pool.connections", 0.0),
        "router.partial_merges": delta.get("router.partial_merges", 0.0),
    }


def complete(metrics: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit, 0 where the workload has none."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
