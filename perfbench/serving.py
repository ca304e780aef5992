"""The serving workloads: forked servers under one open-loop client.

Process layout. The benchmark process is the client and nothing else: a
:class:`~repro.serving.replay.Replayer` with two worker threads and two
keep-alive connections (the box's core count), fed a pre-generated
stream. Every server component is a forked child:

* ``hot-read`` / ``drift-read`` — one :class:`AsyncGatewayHTTPServer`
  process;
* ``routed-read`` — one router process, which forks two shard processes
  (the smallest count that exercises scatter-gather).

Load shape. A homogeneous open-loop Poisson stream (independent
provisioners asking for bids) over 64 combinations x probabilities
{0.95, 0.99} = 128 keys, Zipf(1.1) popularity over a fixed rank order
(the same for every seed), mixing ~70 % ``/predictions``, ~28 % ``/bid``
over durations {0.5, 1, 2, 4} h and ~2 % ``/cheapest``. The 64 combinations are whole
(type, region) groups, so ``/cheapest`` never reaches an unenrolled zone
and never triggers a cold fit.

Latency is measured from each request's *due* time (its scheduled
arrival), so a request that queues inside the client counts its wait.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.cloud.api import EC2Api
from repro.market.universe import Universe, UniverseConfig
from repro.service.drafts_service import DraftsService, ServiceConfig
from repro.serving.loadgen import Request, zipf_weights
from repro.serving.replay import HTTPConnection, ReplayConfig, Replayer

UNIVERSE_SEED = 20170101
TRACE_DAYS = 60
HISTORY_DAYS = 35
N_COMBOS = 64
PROBABILITIES = (0.95, 0.99)
ZIPF_EXPONENT = 1.1
DURATIONS = (1800.0, 3600.0, 7200.0, 14400.0)
PREDICTIONS_SHARE = 0.70
BID_SHARE = 0.28  # the remaining ~2 % ask /cheapest
CLIENT_THREADS = 2

#: The capacity search's latency limit: this percentile of due-time
#: latency within each probe must stay under LATENCY_LIMIT_MS.
SLO_PERCENTILE = 90.0
LATENCY_LIMIT_MS = 10.0
#: The load generator is behind when most of its hand-offs to a client
#: worker are later than this after their due time...
LAG_LIMIT_MS = 1.0
#: ...or when the client process kept this share of its CPU busy.
CLIENT_BUSY_LIMIT = 0.9
#: Ratio between consecutive capacity probes.
CAPACITY_STEP = 1.15
#: Seeded URLs re-fetched and compared byte for byte after each run.
CHECK_SAMPLE = 24


@dataclass(frozen=True)
class ServingShape:
    """One serving workload.

    ``rates`` are the fixed offered rates (requests/second) the latency
    metrics are measured at, all below the workload's knee;
    ``now_drift`` is how far the simulation clock in the URLs advances
    per request (0 = every URL repeats).
    """

    routed: bool
    now_drift: float
    rates: tuple[float, ...]


SHAPES = {
    "hot-read": ServingShape(
        routed=False, now_drift=0.0, rates=(2000.0, 4000.0, 6000.0)
    ),
    "drift-read": ServingShape(
        routed=False, now_drift=0.5, rates=(500.0, 1000.0, 1500.0)
    ),
    "routed-read": ServingShape(
        routed=True, now_drift=0.0, rates=(500.0, 1000.0, 2000.0)
    ),
}


# -- universe and keys ---------------------------------------------------------------


@dataclass
class Fleet:
    """The served universe: combinations grouped by (type, region)."""

    universe: Universe
    combos: list[tuple[str, str]]
    groups: dict[tuple[str, str], list[str]]  # (type, region) -> zones
    start_now: float


def build_fleet() -> Fleet:
    """Synthesise the universe and the traces of the served combinations.

    Combinations are taken as whole (type, region) groups in sorted order
    until there are :data:`N_COMBOS`, so every zone a ``/cheapest``
    request scans is enrolled.
    """
    universe = Universe(
        UniverseConfig(seed=UNIVERSE_SEED, n_epochs=TRACE_DAYS * 288)
    )
    by_group: dict[tuple[str, str], list] = defaultdict(list)
    for combo in universe.combos():
        by_group[(combo.instance_type, combo.region)].append(combo)
    api = EC2Api(universe)
    picked: list = []
    groups: dict[tuple[str, str], list[str]] = {}
    for group in sorted(by_group):
        members = by_group[group]
        region_zones = set(api.describe_availability_zones(group[1]))
        if {c.zone.name for c in members} != region_zones:
            continue  # /cheapest would scan a zone the type is not offered in
        if len(picked) + len(members) <= N_COMBOS:
            picked.extend(members)
            groups[group] = [c.zone.name for c in members]
        if len(picked) == N_COMBOS:
            break
    start_now = max(universe.trace(c).start for c in picked)
    return Fleet(
        universe=universe,
        combos=[(c.instance_type, c.zone.name) for c in picked],
        groups=groups,
        start_now=start_now + HISTORY_DAYS * 86400.0,
    )


def _region_of(zone: str) -> str:
    return zone.rstrip("abcdefghijklmnopqrstuvwxyz")


#: Seed of the fixed popularity order of the keys. The workload seed
#: draws the traffic over it; it does not reshuffle which keys are hot,
#: so runs with different seeds measure the same hot set.
POPULARITY_SEED = 20170101


class StreamMaker:
    """Seeded request streams over the fleet's 128 keys.

    Each phase draws its arrivals, keys, routes and durations from one
    generator seeded with the workload seed, so a seed fixes the whole
    run's traffic.
    """

    def __init__(self, fleet: Fleet, seed: int, now_drift: float) -> None:
        self._rng = np.random.default_rng(seed)
        keys = [
            (itype, zone, p) for itype, zone in fleet.combos for p in PROBABILITIES
        ]
        order = np.random.default_rng(POPULARITY_SEED).permutation(len(keys))
        self.keys = [keys[i] for i in order]
        self._weights = zipf_weights(len(self.keys), ZIPF_EXPONENT)
        self._start_now = fleet.start_now
        self._drift = now_drift
        self._generated = 0

    @property
    def last_now(self) -> float:
        """The simulation instant of the latest generated request."""
        return self._start_now + self._drift * max(self._generated - 1, 0)

    def stream(self, rate: float, seconds: float) -> list[Request]:
        """A Poisson stream at ``rate`` lasting about ``seconds``."""
        rng = self._rng
        n = max(2, int(rate * seconds))
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
        key_index = rng.choice(len(self.keys), size=n, p=self._weights)
        kind = rng.random(n)
        duration_index = rng.integers(0, len(DURATIONS), size=n)
        out = []
        for i in range(n):
            itype, zone, p = self.keys[key_index[i]]
            now = self._start_now + self._drift * self._generated
            self._generated += 1
            if kind[i] < PREDICTIONS_SHARE:
                url = f"/predictions/{itype}/{zone}?probability={p}&now={now}"
            elif kind[i] < PREDICTIONS_SHARE + BID_SHARE:
                url = (
                    f"/bid/{itype}/{zone}?probability={p}"
                    f"&duration={DURATIONS[duration_index[i]]}&now={now}"
                )
            else:
                url = (
                    f"/cheapest/{itype}/{_region_of(zone)}"
                    f"?probability={p}&now={now}"
                )
            out.append(
                Request(url=url, key=(itype, zone, p), arrival=float(arrivals[i]), now=now)
            )
        return out


# -- forked servers ------------------------------------------------------------------


class _Reporting:
    """A started server whose drain statistics carry its spans and pid.

    Wrapping happens once set-up is done, so this is where the process
    moves onto the server CPUs (set-up, a CPU-bound batch fit, may use
    them all).
    """

    def __init__(self, server, recorder) -> None:
        self._server = server
        self._recorder = recorder
        self.url = server.url
        pin_to_server_cpus()

    def stop(self) -> dict:
        stats = self._server.stop()
        stats["pid"] = os.getpid()
        if self._recorder is not None:
            stats["spans"] = self._recorder.summary()
        return stats


def cpu_split() -> tuple[set[int], set[int]]:
    """(client CPUs, server CPUs): the client takes the first CPU and every
    server process shares the rest, so client work never preempts the
    server under test. One CPU: both get it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def pin_to_server_cpus() -> None:
    """Move every thread of this process onto the server CPUs (threads it
    starts later inherit the mask)."""
    cpus = cpu_split()[1]
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpus)


def _gateway_recorder(trace: bool):
    """A span recorder wrapping a gateway process's layers (traced runs)."""
    if not trace:
        return None
    from tracing import SpanRecorder, install_fit_spans, install_server_spans

    recorder = SpanRecorder()
    recorder.install_mark_signal()
    install_fit_spans(recorder)
    install_server_spans(recorder)
    return recorder


def _gateway_factory(fleet: Fleet, trace: bool):
    def build(_worker_id: str):
        from repro.serving.aiohttpd import AsyncGatewayHTTPServer
        from repro.serving.gateway import GatewayConfig, ServingGateway
        from repro.serving.httpd import HttpdConfig

        recorder = _gateway_recorder(trace)
        service = DraftsService(
            EC2Api(fleet.universe), ServiceConfig(probabilities=PROBABILITIES)
        )
        gateway = ServingGateway(service, GatewayConfig(max_inflight=256))
        service.warm_start(fleet.combos, fleet.start_now)
        server = AsyncGatewayHTTPServer(gateway, HttpdConfig(max_connections=64))
        server.start()
        for itype, zone in fleet.combos:
            for p in PROBABILITIES:
                gateway.get(f"/predictions/{itype}/{zone}?probability={p}&now={fleet.start_now}")
        return _Reporting(server, recorder)

    return build


def _routed_factory(fleet: Fleet, trace: bool):
    """The router process: forks the shards, then routes in front of them."""

    def build(_worker_id: str):
        from repro.serving.httpd import HttpdConfig
        from repro.serving.router import RouterConfig, ShardDeployment, plan_shards

        class Deployment(ShardDeployment):
            def _build_shard_server(self, shard_id):
                recorder = _gateway_recorder(trace)
                return _Reporting(super()._build_shard_server(shard_id), recorder)

        recorder = None
        if trace:
            from tracing import SpanRecorder, install_router_spans

            recorder = SpanRecorder()
        deployment = Deployment(
            fleet.universe,
            plan_shards(2, fleet.combos),
            start_now=fleet.start_now,
            probabilities=PROBABILITIES,
            mode="fork",
            router_config=RouterConfig(max_connections=64),
            httpd_config=HttpdConfig(max_connections=64),
        )
        deployment.start()
        pin_to_server_cpus()
        if recorder is not None:
            # Installed after the shards forked, so only the router records.
            recorder.install_mark_signal()
            install_router_spans(recorder)

        class RouterProcess:
            url = deployment.router.url

            def stop(self) -> dict:
                stats = deployment.stop()
                stats["pid"] = os.getpid()
                if recorder is not None:
                    stats["spans"] = recorder.summary()
                return stats

        return RouterProcess()

    return build


class Servers:
    """The workload's forked server processes, seen from the client."""

    def __init__(self, fleet: Fleet, shape: ServingShape, trace: bool) -> None:
        from repro.serving.router import ForkedWorker

        factory = _routed_factory if shape.routed else _gateway_factory
        self.routed = shape.routed
        self._worker = ForkedWorker(factory(fleet, trace), "front")
        self.url = self._worker.wait_ready(300.0)
        self._all_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpu_split()[0])
        self.front_pid = self._worker.pid
        self.shard_urls: list[str] = []
        self.shard_pids: list[int] = []
        if shape.routed:
            snapshot = get_json(self.url, "/metrics")
            self.shard_urls = [s["url"] for s in snapshot["shards"].values()]
            self.shard_pids = [get_json(u, "/healthz")["pid"] for u in self.shard_urls]

    def mark(self) -> None:
        """Place a span-window mark in every server process (traced runs
        only: an untraced worker has no handler for the signal)."""
        for pid in self.pids:
            os.kill(pid, signal.SIGUSR1)

    @property
    def pids(self) -> list[int]:
        return [self.front_pid, *self.shard_pids]

    @property
    def gateway_urls(self) -> list[str]:
        """Base URLs of the processes that hold a gateway."""
        return self.shard_urls if self.routed else [self.url]

    def stop(self) -> dict:
        stats = self._worker.terminate(30.0)
        os.sched_setaffinity(0, self._all_cpus)
        return stats


def get_raw(base: str, path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection (metrics, checks; never timed)."""
    host, port = base.split("//", 1)[1].split(":")
    conn = HTTPConnection(host, int(port), timeout=30.0)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(base: str, path: str) -> dict:
    status, body = get_raw(base, path)
    if status != 200:
        raise RuntimeError(f"GET {base}{path} answered {status}")
    return json.loads(body)


# -- /proc accounting ----------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of every thread of ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_steal() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine so far: the time the
    hypervisor ran someone else while this machine had work."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


# -- replay --------------------------------------------------------------------------


class _StreamReplayer(Replayer):
    """The repo's open-loop replayer over a given stream, keeping its raw
    per-request records (schedule, dispatch, completion) for due-time
    accounting instead of its start-to-finish report."""

    def __init__(self, target: str, stream: list[Request], rate: float) -> None:
        super().__init__(
            [target],
            sorted({r.key for r in stream}),
            ReplayConfig(
                n_requests=len(stream),
                rate=rate,
                warmup_requests=0,
                concurrency=CLIENT_THREADS,
                timeout_seconds=5.0,
            ),
        )
        self._given = stream
        self.records: list = []

    def _stream(self) -> list:
        return self._given

    def _report(self, records) -> dict:
        self.records = records
        return {}


def _failed(record, url: str) -> bool:
    if record.timeout or record.error or record.status is None:
        return True
    if record.status == 200:
        return False
    # "No published bid guarantees the requested duration" is a correct
    # answer to /bid; every other non-200 is a failure.
    return not (record.status == 404 and url.startswith("/bid/"))


@dataclass
class Phase:
    """One replayed stream at one offered rate."""

    rate: float
    latency_ms: np.ndarray  # due-time latency of answered requests
    lag_ms: np.ndarray  # send minus due, every request
    dispatch_lag_ms: np.ndarray  # hand-off to a client worker minus due
    attempted: int
    failed: int
    offered_rps: float
    achieved_rps: float
    client_busy: float  # share of the client's CPU it kept busy
    steal_frac: float  # of the machine's CPU time, during the phase

    @property
    def slo_ms(self) -> float:
        if not self.latency_ms.size:
            return math.inf
        return float(np.percentile(self.latency_ms, SLO_PERCENTILE))

    @property
    def client_bound(self) -> bool:
        """Whether the load generator, not the server, set the pace.

        Send lag (:attr:`lag_ms`) is not the test: with two connections a
        slow server makes requests wait for a free connection inside the
        client too. The generator itself is behind when it hands most
        requests to the workers late or has no CPU left. A stall of the
        whole machine (host steal) delays a few hand-offs, not most, and
        due-time latency already charges it to the requests it delayed.
        """
        return (
            float(np.median(self.dispatch_lag_ms)) > LAG_LIMIT_MS
            or self.client_busy >= CLIENT_BUSY_LIMIT
        )

    @property
    def meets_slo(self) -> bool:
        """Latency within the limit, no backlog growth, nothing failed."""
        return (
            self.failed == 0
            and self.slo_ms <= LATENCY_LIMIT_MS
            and self.achieved_rps >= 0.97 * self.offered_rps
        )


def pooled(phases: list[Phase]) -> Phase:
    """The phases as one: samples pooled, counts summed, rates and shares
    weighted by each phase's length."""
    seconds = np.asarray([p.attempted / p.offered_rps for p in phases])

    def weighted(field: str) -> float:
        return float(np.dot(seconds, [getattr(p, field) for p in phases]) / seconds.sum())

    return Phase(
        rate=phases[0].rate,
        latency_ms=np.concatenate([p.latency_ms for p in phases]),
        lag_ms=np.concatenate([p.lag_ms for p in phases]),
        dispatch_lag_ms=np.concatenate([p.dispatch_lag_ms for p in phases]),
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        offered_rps=weighted("offered_rps"),
        achieved_rps=weighted("achieved_rps"),
        client_busy=weighted("client_busy"),
        steal_frac=weighted("steal_frac"),
    )


def replay(target: str, stream: list[Request], rate: float) -> Phase:
    """Replay ``stream`` open-loop and account it from due times."""
    replayer = _StreamReplayer(target, stream, rate)
    # The client is not under test: keep its collector from stalling the
    # dispatcher mid-phase (a full collection over the run's records takes
    # tens of milliseconds).
    gc.collect()
    gc.disable()
    steal0, total0 = host_steal()
    cpu0, wall0 = self_cpu_seconds(), time.perf_counter()
    try:
        replayer.run()
    finally:
        gc.enable()
    cpu1, wall1 = self_cpu_seconds(), time.perf_counter()
    steal1, total1 = host_steal()
    records = replayer.records
    answered = [r for r in records if r.status is not None]
    failed = sum(_failed(r, req.url) for r, req in zip(records, stream))
    span = records[-1].scheduled - records[0].scheduled
    done = max((r.finished for r in answered), default=0.0) - records[0].scheduled
    client_cpus = len(cpu_split()[0])
    return Phase(
        rate=rate,
        latency_ms=np.asarray([(r.finished - r.scheduled) * 1e3 for r in answered]),
        lag_ms=np.asarray([(r.started - r.scheduled) * 1e3 for r in records]),
        dispatch_lag_ms=np.asarray([(r.submitted - r.scheduled) * 1e3 for r in records]),
        attempted=len(records),
        failed=failed,
        offered_rps=(len(records) - 1) / span if span > 0 else rate,
        achieved_rps=len(answered) / done if done > 0 else 0.0,
        client_busy=(cpu1 - cpu0) / (client_cpus * (wall1 - wall0)),
        steal_frac=(steal1 - steal0) / max(total1 - total0, 1),
    )


def capacity_search(target: str, maker: StreamMaker, start: float, seconds: float, probe_seconds: float):
    """Highest rate that meets the SLO, by a ladder of offered rates.

    Probes climb :data:`CAPACITY_STEP` at a time from ``start`` until one
    fails: that one is the knee. Until a probe passes, they step down
    instead. Returns ``(rps, knee, probes)``: ``rps`` is the achieved rate
    of the highest probe that passed, ``None`` when none did or no probe
    failed within the budget ``seconds``; ``knee`` is the failed probe
    above it. A knee that is :attr:`Phase.client_bound` measured the load
    generator, not the server.
    """
    best = None
    knee = None
    probes: list[Phase] = []
    deadline = time.monotonic() + seconds
    rate = start
    while time.monotonic() + probe_seconds <= deadline:
        phase = replay(target, maker.stream(rate, probe_seconds), rate)
        probes.append(phase)
        if phase.meets_slo:
            best = phase.achieved_rps
            rate *= CAPACITY_STEP
        elif best is not None:
            knee = phase
            break
        else:
            rate /= CAPACITY_STEP
        time.sleep(0.1)  # let a failed probe's backlog drain
    return (best if knee is not None else None), knee, probes


# -- output checks ----------------------------------------------------------------------


def _restamp(url: str, now: float) -> str:
    head, _, _ = url.rpartition("&now=")
    return f"{head}&now={now}"


def wait_refresh_idle(servers: Servers, timeout: float = 60.0) -> None:
    """Block until no gateway has queued or running refresh work."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        state = []
        for base in servers.gateway_urls:
            snapshot = get_json(base, "/metrics")
            state.append(
                (
                    snapshot["store"]["refresh_pending"],
                    snapshot["counters"]["serving.recomputes"],
                    snapshot["gauges"].get("gateway.inflight", 0),
                )
            )
        if all(s[0] == 0 for s in state) and state == last:
            return
        last = state
        time.sleep(0.1)
    raise RuntimeError("refresher did not go idle")


def check_outputs(servers: Servers, fleet: Fleet, urls: list[str], seed: int, check_now: float) -> tuple[int, int]:
    """Re-fetch a seeded sample of the run's URLs and compare each, byte
    for byte, with an in-process reference gateway at the same ``now``.

    Every sampled URL is fetched once to bring its keys up to
    ``check_now`` (a stale key is served stale and queued for refresh),
    the refresher is let go idle, then fetched again and compared.
    Returns ``(compared, mismatched)``.
    """
    from repro.service.rest import encode_body
    from repro.serving.gateway import GatewayConfig, ServingGateway

    rng = np.random.default_rng(seed + 1)
    distinct = sorted({_restamp(u, check_now) for u in urls})
    pick = rng.choice(len(distinct), size=min(CHECK_SAMPLE, len(distinct)), replace=False)
    sample = [distinct[i] for i in sorted(pick)]
    for url in sample:
        get_raw(servers.url, url)
    wait_refresh_idle(servers)
    reference_service = DraftsService(
        EC2Api(fleet.universe), ServiceConfig(probabilities=PROBABILITIES)
    )
    reference = ServingGateway(reference_service, GatewayConfig(max_inflight=256))
    needed = set()
    for url in sample:
        _, kind, itype, place = url.split("?")[0].split("/")
        if kind == "cheapest":
            needed.update((itype, z) for z in fleet.groups[(itype, place)])
        else:
            needed.add((itype, place))
    reference_service.warm_start(sorted(needed), check_now)
    mismatched = 0
    for url in sample:
        status, body = get_raw(servers.url, url)
        expected = reference.get(url)
        if status != expected.status or body != encode_body(expected.body):
            mismatched += 1
    return len(sample), mismatched


# -- per-run accounting ---------------------------------------------------------------


def counters_of(servers: Servers) -> dict:
    """Summed ``/metrics`` counters of every gateway process plus the
    service ``cache_info`` and (routed) the router's counters and pools."""
    total: dict[str, float] = defaultdict(float)
    for base in servers.gateway_urls:
        snapshot = get_json(base, "/metrics")
        for name, value in snapshot["counters"].items():
            total[name] += value
        for name, value in snapshot["service"].items():
            if isinstance(value, (int, float)):
                total[f"service.{name}"] += value
    if servers.routed:
        snapshot = get_json(servers.url, "/metrics")
        for name, value in snapshot["counters"].items():
            total[name] += value
        for pool in snapshot["shards"].values():
            for name, value in pool.items():
                if isinstance(value, (int, float)):
                    total[f"router.pool.{name}"] += value
    return dict(total)
