"""In-memory span recording around public entry points of the program.

The benchmark never edits the program: in a traced run it replaces a few
module and class attributes with timing wrappers, in each process of the
workload (client, gateway, router, shards, backtest child), before the
code under test runs. A span is one call of a wrapped function; spans
nest per thread, and a span's *self* time is its duration minus the part
of it that its child spans cover.

Spans are aggregated per name as they close (count, total and self
nanoseconds, plus the raw durations for quantiles), per thread so the hot
path takes no lock, and merged when the process drains.
"""

from __future__ import annotations

import functools
import inspect
import signal
import threading
import time
from array import array

_now_ns = time.perf_counter_ns


class _ThreadSpans:
    """One thread's open-span stack and closed-span aggregates."""

    __slots__ = ("stack", "totals")

    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        # name -> [count, total_ns, self_ns, durations_ns]
        self.totals: dict[str, list] = {}


class SpanRecorder:
    """Installs wrappers and aggregates the spans they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self._marks: list[dict] = []
        self.gauges: dict[str, float] = {}
        self._window_gauges: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def _close(self, spans: _ThreadSpans, name: str, dt: int, child: int):
        agg = spans.totals.get(name)
        if agg is None:
            agg = spans.totals[name] = [0, 0, 0, array("q")]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        agg[3].append(dt)

    def _wrap_sync(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = recorder._spans()
            frame = [0]
            spans.stack.append(frame)
            t0 = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now_ns() - t0
                spans.stack.pop()
                if spans.stack:
                    spans.stack[-1][0] += dt
                recorder._close(spans, name, dt, frame[0])

        return traced

    def _wrap_async(self, fn, name: str):
        """A coroutine span is wall time from first step to completion; it
        suspends across awaits, so it takes no part in the nesting."""
        recorder = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            t0 = _now_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                dt = _now_ns() - t0
                recorder._close(recorder._spans(), name, dt, 0)

        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or
        coroutine function) with a span-recording wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap_sync(raw.__func__, name))
        elif inspect.iscoroutinefunction(raw):
            wrapped = self._wrap_async(raw, name)
        else:
            wrapped = self._wrap_sync(raw, name)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def observe_max(self, name: str, value: float) -> None:
        """Keep the largest value seen for a sampled gauge."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- windows ------------------------------------------------------------

    def _positions(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        return {
            id(spans): {
                name: (agg[0], agg[1], agg[2], len(agg[3]))
                for name, agg in list(spans.totals.items())
            }
            for spans in threads
        }

    def mark(self) -> None:
        """Close a window: the first mark ends set-up and starts the
        measured window, the second ends it. Gauges restart at the first
        mark and freeze at the second."""
        self._marks.append(self._positions())
        if len(self._marks) == 1:
            self.gauges.clear()
        elif len(self._marks) == 2:
            self._window_gauges = dict(self.gauges)

    def install_mark_signal(self, signum: int = signal.SIGUSR1) -> None:
        """Let another process place marks by sending ``signum``."""
        signal.signal(signum, lambda _signum, _frame: self.mark())

    # -- reporting ----------------------------------------------------------

    def _aggregate(self, lo: dict | None, hi: dict | None) -> dict:
        with self._lock:
            threads = list(self._threads)
        merged: dict[str, list] = {}
        for spans in threads:
            start = (lo or {}).get(id(spans), {})
            stop = None if hi is None else hi.get(id(spans), {})
            for name, agg in list(spans.totals.items()):
                c0, t0, s0, n0 = start.get(name, (0, 0, 0, 0))
                if stop is None:
                    c1, t1, s1, n1 = agg[0], agg[1], agg[2], len(agg[3])
                else:
                    c1, t1, s1, n1 = stop.get(name, (c0, t0, s0, n0))
                if c1 == c0:
                    continue
                into = merged.setdefault(name, [0, 0, 0, array("q")])
                into[0] += c1 - c0
                into[1] += t1 - t0
                into[2] += s1 - s0
                into[3].extend(agg[3][n0:n1])
        out: dict = {}
        for name, (count, total, self_ns, durations) in sorted(merged.items()):
            ordered = sorted(durations)
            out[name] = {
                "count": count,
                "total_ms": total / 1e6,
                "self_ms": self_ns / 1e6,
                "p50_us": ordered[len(ordered) // 2] / 1e3 if ordered else 0.0,
            }
        return out

    def summary(self) -> dict:
        """Per-name aggregates, JSON-ready: ``{name: {"count", "total_ms",
        "self_ms", "p50_us"}}`` for the window between the first two marks
        (everything, when never marked), the set-up before the first mark
        under ``"setup"``, and the sampled gauges."""
        if not self._marks:
            return {"spans": self._aggregate(None, None), "setup": {}, "gauges": dict(self.gauges)}
        first = self._marks[0]
        last = self._marks[1] if len(self._marks) > 1 else None
        return {
            "spans": self._aggregate(first, last),
            "setup": self._aggregate(None, first),
            "gauges": dict(self._window_gauges if last is not None else self.gauges),
        }


def merge_summaries(summaries, section: str = "spans") -> dict:
    """Sum span aggregates over processes (p50 keeps the busiest's)."""
    spans: dict[str, dict] = {}
    gauges: dict[str, float] = {}
    for summary in summaries:
        if not summary:
            continue
        for name, agg in summary[section].items():
            into = spans.get(name)
            if into is None:
                spans[name] = dict(agg)
                continue
            if agg["count"] > into["count"]:
                into["p50_us"] = agg["p50_us"]
            for field in ("count", "total_ms", "self_ms"):
                into[field] += agg[field]
        for name, value in summary["gauges"].items():
            gauges[name] = max(value, gauges.get(name, value))
    return {"spans": spans, "gauges": gauges}


# -- the layers' public entry points ------------------------------------------------


def install_server_spans(recorder: SpanRecorder) -> None:
    """Wrap the serving stack's entry points in a server process.

    ``parse_head``, ``dispatch``, ``render_response`` and ``encode_body``
    are wrapped as the asyncio front end binds them (its module globals),
    so the threaded server and other callers are untouched.
    """
    from repro.core.curves import BidDurationCurve
    from repro.core.universe import UniverseTicker
    from repro.service.drafts_service import DraftsService
    from repro.serving import aiohttpd
    from repro.serving.gateway import ServingGateway
    from repro.serving.refresher import BackgroundRefresher
    from repro.serving.store import ShardedCurveStore

    recorder.wrap(aiohttpd._GatewayProtocol, "_serve", "aiohttpd.serve")
    recorder.wrap(aiohttpd._GatewayProtocol, "_offload", "aiohttpd.offload")
    recorder.wrap(aiohttpd, "_parse_head", "httpcore.parse_head")
    recorder.wrap(aiohttpd, "dispatch", "httpcore.dispatch")
    recorder.wrap(aiohttpd, "render_response", "httpcore.render_response")
    recorder.wrap(aiohttpd, "encode_body", "rest.encode_body")
    recorder.wrap(ServingGateway, "get", "gateway.get")
    recorder.wrap(ServingGateway, "probe_inline", "gateway.probe_inline")
    recorder.wrap(ShardedCurveStore, "lookup", "store.lookup")
    recorder.wrap(ShardedCurveStore, "peek", "store.peek")
    recorder.wrap(BidDurationCurve, "to_dict", "curves.to_dict")
    recorder.wrap(
        BidDurationCurve, "bid_for_duration", "curves.bid_for_duration"
    )
    recorder.wrap(BackgroundRefresher, "refresh", "refresher.refresh")
    recorder.wrap(DraftsService, "curve", "service.curve")
    # The service advances its tickers with observe() (the epoch step that
    # tick() wraps together with curves()).
    recorder.wrap(UniverseTicker, "observe", "universe.tick")
    recorder.wrap(UniverseTicker, "curves", "universe.curves")

    # Queue depth of the refresher, sampled each time work is queued.
    poke = BackgroundRefresher.poke

    def sampled_poke(self, key, now):
        poke(self, key, now)
        recorder.observe_max("refresher.pending_max", self.pending_count())

    recorder._installed.append((BackgroundRefresher, "poke", poke))
    BackgroundRefresher.poke = sampled_poke


def install_router_spans(recorder: SpanRecorder) -> None:
    """Wrap the router's routing and merge entry points."""
    from repro.serving import router

    recorder.wrap(router.Partition, "route", "router.route")
    recorder.wrap(router, "merge_cheapest", "router.merge_cheapest")


def install_client_spans(recorder: SpanRecorder) -> None:
    """Wrap the replay client's transport call (send to response read) and
    the trace synthesis the client does while setting up."""
    from repro.market.universe import Universe
    from repro.serving.replay import HttpTransport

    recorder.wrap(HttpTransport, "__call__", "replay.call")
    recorder.wrap(Universe, "trace", "market.trace")


def install_backtest_spans(recorder: SpanRecorder) -> None:
    """Wrap the Table 1 matrix's stages as ``backtest_matrix`` binds them."""
    from repro.backtest import predcache, universe_driver
    from repro.baselines.ar1 import AR1Bid
    from repro.core.universe import UniverseTicker
    from repro.experiments import parallel
    from repro.market.universe import Universe

    recorder.wrap(predcache, "fit_drafts_universe", "universe_fit.fit")
    recorder.wrap(predcache, "get_predictors_batch", "predcache.batch_fit")
    recorder.wrap(universe_driver, "drafts_bids", "universe_driver.drafts_bids")
    recorder.wrap(AR1Bid, "prefit_universe", "ar1.prefit")
    recorder.wrap(parallel, "run_backtest", "engine.run_backtest")
    recorder.wrap(UniverseTicker, "extend_frozen", "universe.extend_frozen")
    recorder.wrap(Universe, "trace", "market.trace")


def install_fit_spans(recorder: SpanRecorder) -> None:
    """Wrap the warm-start batch fit a serving worker runs while it sets
    up (``fit_drafts_universe`` as the service binds it)."""
    from repro.service import drafts_service

    recorder.wrap(drafts_service, "fit_drafts_universe", "universe_fit.fit")
