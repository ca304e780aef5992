"""The DrAFTS decision-support service (§3.3 of the paper).

The production prototype (predictspotprice.cs.ucsb.edu) operates
asynchronously: it periodically queries the price-history API, recomputes a
set of maximum-bid predictions for every instance type and AZ — bid ladders
in 5 % increments from the smallest bid that can guarantee *any* duration
up to 4x that minimum, at both the 0.95 and 0.99 probability levels — and
serves them to clients over REST. It recomputes every 15 minutes — and the
paper is explicit that each recompute is *incremental*: predictor state is
updated "in a few milliseconds" per new price announcement (§3.3), not
refitted from scratch.

This module is that service against the simulated EC2: a curve cache with
the same refresh policy, exposed through the in-process REST router in
:mod:`repro.service.rest`. Each (type, AZ, probability) key keeps one
long-lived :class:`~repro.core.online.OnlineDraftsPredictor`; a refresh
delta-fetches only the announcements after the key's cursor and feeds them
in, publishing ``curve_at(n)``. A full QBETS refit happens only on:

* **cold** — no predictor state for the key (first request, or the key was
  LRU-evicted);
* **rewind** — ``now`` moved to or before the cursor (backtest replays);
* **gap** — the 90-day API window no longer reaches back to the cursor, so
  announcements were missed;
* **rewindow** — the accumulated history span exceeded
  ``rewindow_factor`` x the 90-day window (incremental refreshes
  accumulate history rather than sliding the window, trading a bounded
  amount of extra — older — data for O(delta) refresh cost; the periodic
  refit re-clips to the API window and bounds the footprint);
* **ladder_change** — a delta price exceeded the key's pinned ``max_price``
  ladder domain, which requires a new quantile-tracker domain.

``cache_info()`` splits ``recomputes`` into ``refits`` (full fits) and
``incremental_refreshes`` (delta updates), with per-reason refit counts.
At every refresh boundary the published curve is bit-identical to a
from-scratch :class:`~repro.core.drafts.DraftsPredictor` fit of the same
accumulated history (tests/test_service.py).
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.cloud.api import HISTORY_WINDOW_SECONDS, EC2Api
from repro.core.curves import BidDurationCurve
from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.core.online import OnlineDraftsPredictor
from repro.core.universe import UniverseTicker
from repro.core.universe_fit import fit_drafts_universe
from repro.service import persistence
from repro.service.persistence import MANIFEST_NAME, SnapshotError

__all__ = ["DraftsService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service parameters (§3.3 defaults).

    Attributes
    ----------
    probabilities:
        Probability levels curves are published at.
    refresh_seconds:
        Recompute interval (15 minutes in the prototype).
    ladder_increment / ladder_span:
        Bid ladder geometry (5 % rungs up to 4x the minimum).
    max_predictors:
        How many per-key predictors (each retaining a full history array)
        are kept; least-recently-used ones are evicted beyond this, so the
        service's footprint is bounded even over the full 452-combination
        universe. An evicted key refits from a cold fetch on next touch.
    incremental:
        Feed per-key online predictors with delta fetches (the §3.3
        production behaviour). Off, every refresh is a full refit — kept
        for A/B benchmarking of the refresh cost.
    rewindow_factor:
        Full-refit threshold on accumulated history span, as a multiple of
        the 90-day API window. Bounds both per-key memory and how far the
        oldest retained announcement can lag the API's own horizon.
    batch:
        Enroll warm incremental keys into one structure-of-arrays
        :class:`~repro.core.universe.UniverseTicker` per probability level,
        so a universe-wide epoch advance (:meth:`DraftsService.batch_refresh`)
        is a handful of array ops instead of per-key Python update chains.
        Keys needing a refit (cold/rewind/gap/rewindow/ladder_change) fall
        out of the batch to the scalar path, exactly as curve-cache misses
        do, and re-enroll after the refit. Published curves are
        bit-identical either way.
    """

    probabilities: tuple[float, ...] = (0.95, 0.99)
    refresh_seconds: float = 900.0
    ladder_increment: float = 0.05
    ladder_span: float = 4.0
    max_predictors: int = 128
    incremental: bool = True
    rewindow_factor: float = 2.0
    batch: bool = True

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("at least one probability level required")
        for p in self.probabilities:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability {p} outside (0, 1)")
        if self.refresh_seconds <= 0:
            raise ValueError("refresh_seconds must be positive")
        if self.max_predictors < 1:
            raise ValueError("max_predictors must be >= 1")
        if self.rewindow_factor < 1.0:
            raise ValueError("rewindow_factor must be >= 1")


@dataclass
class _CacheEntry:
    computed_at: float
    curve: BidDurationCurve | None


@dataclass
class _Group:
    """One batch-tick universe: all enrolled keys of one probability level.

    ``lock`` serialises every ticker mutation; the locking order is always
    group lock before key-state lock (and the service bookkeeping lock is
    only ever taken innermost), so the batch sweep and single-key
    refreshes can never deadlock.
    """

    ticker: UniverseTicker
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _KeyState:
    """Long-lived per-(type, AZ, probability) predictor state.

    ``lock`` serialises refreshes of one key without blocking other keys;
    ``cursor`` is the timestamp of the last announcement consumed;
    ``max_price`` is the quantile-tracker domain pinned at the first fit so
    refreshes of the same key can never silently lay out different ladders
    (the pre-incremental service re-derived it from whatever price spike
    happened to be inside the window). ``group`` is the batch universe the
    key is enrolled in (its QBETS/ladder state then lives in the group's
    ticker and ``online`` is None).
    """

    lock: threading.Lock = field(default_factory=threading.Lock)
    online: OnlineDraftsPredictor | None = None
    predictor: DraftsPredictor | None = None
    curve: BidDurationCurve | None = None
    cursor: float = math.nan
    last_now: float = math.nan
    max_price: float | None = None
    group: _Group | None = None


class DraftsService:
    """Periodically recomputed bid–duration curves over an EC2 account.

    The service sees the market through an :class:`~repro.cloud.api.EC2Api`
    — including its 90-day history limit and (if configured) its AZ-name
    obfuscation, which is why production deployments need the
    deobfuscation of :mod:`repro.market.obfuscation`.
    """

    def __init__(self, api: EC2Api, config: ServiceConfig | None = None):
        self._api = api
        self._cfg = config or ServiceConfig()
        self._cache: dict[tuple[str, str, float], _CacheEntry] = {}
        self._states: OrderedDict[tuple[str, str, float], _KeyState] = (
            OrderedDict()
        )
        # Guards cache/state bookkeeping: the serving gateway drives this
        # object from several threads (one refresh per key at a time, but
        # distinct keys concurrently). Per-key work runs under the key's
        # own lock only.
        self._lock = threading.Lock()
        self._groups: dict[float, _Group] = {}
        self._hits = 0
        self._misses = 0
        self._refits = 0
        self._cold_fits = 0
        self._incremental_refreshes = 0
        self._batch_ticks = 0
        self._scalar_ticks = 0
        self._refit_reasons: dict[str, int] = {}
        self._evictions = 0

    @property
    def config(self) -> ServiceConfig:
        """The service configuration."""
        return self._cfg

    @property
    def api(self) -> EC2Api:
        """The account view the service predicts through."""
        return self._api

    def _drafts_config(self, probability: float, max_price: float) -> DraftsConfig:
        return DraftsConfig(
            probability=probability,
            ladder_increment=self._cfg.ladder_increment,
            ladder_span=self._cfg.ladder_span,
            max_price=max_price,
        )

    def _full_refit(
        self,
        state: _KeyState,
        instance_type: str,
        zone: str,
        probability: float,
        now: float,
        reason: str,
    ) -> BidDurationCurve | None:
        # Boot-time vs steady-state observability: a fit of a key that holds
        # no predictor state at all (first touch, post-eviction, failed
        # restore) counts under ``cold_fits``; refitting a key that already
        # has state (rewind/gap/rewindow/ladder_change, or every recompute
        # with ``incremental=False``) counts under ``refits``.
        cold = (
            state.online is None
            and state.predictor is None
            and state.group is None
        )
        history = self._api.describe_spot_price_history(instance_type, zone, now)
        # Pin the ladder domain at the first fit; only an out-of-domain
        # price (the explicit ladder_change refit) may raise it. Without
        # the pin, a spike entering/leaving the 90-day window would change
        # max_price between refreshes of the *same* key and silently alter
        # the quantile-tracker domain mid-stream.
        peak = float(history.prices.max())
        max_price = state.max_price
        if max_price is None or peak >= max_price:
            max_price = max(100.0, peak * 8.0)
        config = self._drafts_config(probability, max_price)
        if self._cfg.incremental:
            online = OnlineDraftsPredictor(config)
            online.extend(history)
            curve = online.curve_at(
                online.n, instance_type=instance_type, zone=zone
            )
            state.online = online
            state.predictor = None
        else:
            predictor = DraftsPredictor(history, config)
            curve = predictor.curve_at(
                len(history), instance_type=instance_type, zone=zone
            )
            state.predictor = predictor
            state.online = None
        state.curve = curve
        state.max_price = max_price
        state.cursor = history.end
        state.last_now = now
        with self._lock:
            if cold:
                self._cold_fits += 1
            else:
                self._refits += 1
            self._refit_reasons[reason] = self._refit_reasons.get(reason, 0) + 1
        return curve

    def _refit_reason(
        self, state: _KeyState, now: float, key=None
    ) -> str | None:
        """Why this refresh cannot be served incrementally (None = it can)."""
        if not self._cfg.incremental or (
            state.online is None and state.group is None
        ):
            return "cold"
        if now <= state.cursor:
            return "rewind"
        if now - HISTORY_WINDOW_SECONDS > state.cursor:
            return "gap"
        span = (
            state.online.span
            if state.online is not None
            else state.group.ticker.span(key)
        )
        if span > self._cfg.rewindow_factor * HISTORY_WINDOW_SECONDS:
            return "rewindow"
        return None

    def _refresh_key(
        self,
        state: _KeyState,
        instance_type: str,
        zone: str,
        probability: float,
        now: float,
    ) -> BidDurationCurve | None:
        reason = self._refit_reason(state, now)
        delta = None
        if reason is None:
            delta = self._api.describe_spot_price_history(
                instance_type, zone, now, since=state.cursor
            )
            if (
                delta is not None
                and float(delta.prices.max()) >= state.max_price
            ):
                # Out of the pinned quantile-tracker domain: the ladder
                # must be re-laid-out, which is a full refit by design.
                reason = "ladder_change"
        if reason is not None:
            return self._full_refit(
                state, instance_type, zone, probability, now, reason
            )
        online = state.online
        if delta is not None:
            online.extend(delta)
            state.cursor = delta.end
            state.curve = online.curve_at(
                online.n, instance_type=instance_type, zone=zone
            )
        # A zero-announcement delta republishes the identical curve: the
        # market said nothing new, so the predictor state is untouched.
        state.last_now = now
        with self._lock:
            self._incremental_refreshes += 1
            self._scalar_ticks += 1
        return state.curve

    def _refresh_batched(
        self,
        key: tuple[str, str, float],
        group: _Group,
        state: _KeyState,
        now: float,
    ) -> BidDurationCurve | None:
        """Refresh an enrolled key through its group ticker.

        Caller holds ``group.lock`` then ``state.lock``. Refit reasons
        eject the key from the batch back onto the scalar path (the caller
        re-enrolls after a successful refit); everything else is a delta
        fetch fed to the ticker, publishing the batched curve —
        bit-identical to the scalar ``online.curve_at(n)``.
        """
        instance_type, zone, probability = key
        reason = self._refit_reason(state, now, key)
        delta = None
        if reason is None:
            delta = self._api.describe_spot_price_history(
                instance_type, zone, now, since=state.cursor
            )
            if (
                delta is not None
                and float(delta.prices.max()) >= state.max_price
            ):
                reason = "ladder_change"
        if reason is not None:
            group.ticker.remove_key(key)
            state.group = None
            return self._full_refit(
                state, instance_type, zone, probability, now, reason
            )
        ticker = group.ticker
        if delta is not None:
            for t, price in zip(
                delta.times.tolist(), delta.prices.tolist()
            ):
                ticker.observe(t, (price,), (key,))
            state.cursor = delta.end
            state.curve = ticker.curve_for(key)
        state.last_now = now
        with self._lock:
            self._incremental_refreshes += 1
            self._batch_ticks += 1
        return state.curve

    def _group_for(self, probability: float) -> _Group:
        with self._lock:
            group = self._groups.get(probability)
            if group is None:
                config = self._drafts_config(
                    probability, DraftsConfig().max_price
                )
                group = _Group(ticker=UniverseTicker(config))
                self._groups[probability] = group
            return group

    def _maybe_enroll(
        self, key: tuple[str, str, float], state: _KeyState
    ) -> None:
        """Adopt a warm scalar predictor into the batch universe.

        The scalar wrapper's QBETS moves into the ticker by reference and
        the wrapper is discarded; from here the key refreshes through the
        group until a refit reason ejects it again.
        """
        if not (self._cfg.batch and self._cfg.incremental):
            return
        if state.group is not None or state.online is None:
            return  # racy pre-check; re-validated under the locks below
        group = self._group_for(key[2])
        with group.lock:
            with state.lock:
                if state.group is not None or state.online is None:
                    return
                self._enroll_locked(key, state, group)

    @staticmethod
    def _enroll_locked(
        key: tuple[str, str, float], state: _KeyState, group: _Group
    ) -> None:
        """Move ``state``'s scalar QBETS into ``group``'s ticker.

        Caller holds ``group.lock`` and ``state.lock``.
        """
        if key in group.ticker:
            # Ghost slot from a lost enrollment race (the key was refit on
            # the scalar path while still enrolled).
            group.ticker.remove_key(key)
        group.ticker.add_key(
            key, online=state.online, instance_type=key[0], zone=key[1]
        )
        state.online = None
        state.group = group

    def _unenroll(self, key: tuple[str, str, float], state: _KeyState) -> None:
        """Remove an (evicted) key's slot from its batch group, if any."""
        group = state.group
        if group is None:
            return
        with group.lock:
            with state.lock:
                if state.group is group:
                    group.ticker.remove_key(key)
                    state.group = None

    def _compute_curve(
        self, instance_type: str, zone: str, probability: float, now: float
    ) -> BidDurationCurve | None:
        key = (instance_type, zone, probability)
        with self._lock:
            state = self._states.get(key)
            fresh = state is None
            if fresh:
                state = _KeyState()
                self._states[key] = state
            else:
                self._states.move_to_end(key)
            evicted = []
            while len(self._states) > self._cfg.max_predictors:
                evicted.append(self._states.popitem(last=False))
                self._evictions += 1
        for ekey, estate in evicted:
            # Outside the bookkeeping lock: unenrollment takes the group
            # lock, which must never nest inside self._lock.
            self._unenroll(ekey, estate)
        try:
            while True:
                group = state.group  # racy read; re-validated under locks
                if group is None:
                    with state.lock:
                        if state.group is not None:
                            continue  # enrolled concurrently — retry
                        curve = self._refresh_key(
                            state, instance_type, zone, probability, now
                        )
                    break
                with group.lock:
                    if state.group is not group:
                        continue  # ejected/moved concurrently — retry
                    with state.lock:
                        curve = self._refresh_batched(key, group, state, now)
                break
        except BaseException:
            if fresh:
                # Unknown combination (or a failed cold fetch): do not
                # leave an empty placeholder occupying an LRU slot.
                with self._lock:
                    if (
                        self._states.get(key) is state
                        and state.online is None
                        and state.group is None
                    ):
                        del self._states[key]
            raise
        self._maybe_enroll(key, state)
        return curve

    def curve(
        self, instance_type: str, zone: str, probability: float, now: float
    ) -> BidDurationCurve | None:
        """The published curve for a combination at time ``now``.

        Recomputed lazily when the cached copy is older than the refresh
        interval, exactly like the prototype's 15-minute cron. ``None``
        means the history is still too short to guarantee anything.
        """
        if probability not in self._cfg.probabilities:
            raise ValueError(
                f"service does not publish probability {probability}; "
                f"levels: {self._cfg.probabilities}"
            )
        key = (instance_type, zone, probability)
        with self._lock:
            entry = self._cache.get(key)
            stale = entry is not None and (
                now - entry.computed_at >= self._cfg.refresh_seconds
                or now < entry.computed_at  # backtests may query past instants
            )
            if entry is not None and not stale:
                self._hits += 1
                return entry.curve
            self._misses += 1
        curve = self._compute_curve(instance_type, zone, probability, now)
        entry = _CacheEntry(computed_at=now, curve=curve)
        with self._lock:
            self._cache[key] = entry
        return entry.curve

    def invalidate(
        self, instance_type: str, zone: str, probability: float
    ) -> bool:
        """Drop one key's cached curve, forcing a refresh on next touch.

        The long-lived predictor state is kept, so the forced recompute is
        still an incremental delta fetch. Returns whether a cached curve
        was dropped. Ops tooling and the chaos harness use this to force
        recompute traffic.
        """
        with self._lock:
            entry = self._cache.pop((instance_type, zone, probability), None)
        return entry is not None

    # -- universe-wide batch tick --------------------------------------------

    def warm_start(
        self, combos: list[tuple[str, str]], now: float
    ) -> dict:
        """Cold-boot every ``(instance_type, zone)`` in one batch phase-1 fit.

        A ``save_state``-less boot otherwise pays one sequential scalar
        QBETS replay per key on first touch. This fetches each
        combination's history once, runs a single universe-wide phase-1
        pass (:func:`repro.core.universe_fit.fit_drafts_universe`) across
        every published probability level, and lands per-key state
        bit-identical to the scalar cold path, publishing every curve into
        the cache at ``now``. On the batch path (``batch`` and
        ``incremental``) each key's fitted QBETS goes straight into its
        probability group's :class:`~repro.core.universe.UniverseTicker`
        and the curves come from one ``ticker.curves`` call per group: no
        scalar curve or exceedance ladder is built. Otherwise incremental
        keys get an :class:`~repro.core.online.OnlineDraftsPredictor`
        restored from the batch fit's snapshot and non-incremental keys
        the fitted :class:`~repro.core.drafts.DraftsPredictor`, each
        publishing its own ``curve_at``. Each fit counts under
        ``cold_fits`` with reason ``"cold"``, exactly like the scalar
        first touch it replaces. Keys already holding predictor state are
        skipped; a key the ``max_predictors`` bound evicts again during the
        same call is counted but neither enrolled nor published. Returns
        ``{"fitted", "skipped"}``.
        """
        todo: list[tuple[tuple[str, str, float], object]] = []
        skipped = 0
        histories: dict[tuple[str, str], object] = {}
        for instance_type, zone in combos:
            for probability in self._cfg.probabilities:
                key = (instance_type, zone, probability)
                with self._lock:
                    state = self._states.get(key)
                if state is not None and (
                    state.online is not None
                    or state.predictor is not None
                    or state.group is not None
                ):
                    skipped += 1
                    continue
                pair = (instance_type, zone)
                history = histories.get(pair)
                if history is None:
                    history = self._api.describe_spot_price_history(
                        instance_type, zone, now
                    )
                    histories[pair] = history
                todo.append((key, history))
        if not todo:
            return {"fitted": 0, "skipped": skipped}
        # The same per-key ladder-domain pin the scalar cold fit derives.
        configs = [
            self._drafts_config(
                key[2], max(100.0, float(history.prices.max()) * 8.0)
            )
            for key, history in todo
        ]
        fit = fit_drafts_universe([h for _, h in todo], configs)
        batched = self._cfg.batch and self._cfg.incremental
        groups = (
            {p: self._group_for(p) for p in sorted({k[2] for k, _ in todo})}
            if batched
            else {}
        )
        fitted = 0
        owned: list[tuple[tuple[str, str, float], _KeyState]] = []
        evicted: list[tuple[tuple[str, str, float], _KeyState]] = []
        with contextlib.ExitStack() as held:
            # Batch path: the group locks (in a fixed order; no other code
            # path holds two) and then each new key's lock stay held until
            # its curve is published, so no reader sees a curve-less state.
            for group in groups.values():
                held.enter_context(group.lock)
            for i, (key, history) in enumerate(todo):
                state = _KeyState()
                if batched:
                    held.enter_context(state.lock)
                    state.online = fit.online_predictor(i)
                elif self._cfg.incremental:
                    online = fit.online_predictor(i)
                    state.curve = online.curve_at(
                        online.n, instance_type=key[0], zone=key[1]
                    )
                    state.online = online
                else:
                    predictor = fit.predictor(i)
                    state.curve = predictor.curve_at(
                        len(history), instance_type=key[0], zone=key[1]
                    )
                    state.predictor = predictor
                state.max_price = configs[i].max_price
                state.cursor = history.end
                state.last_now = now
                with self._lock:
                    if key in self._states:
                        # Lost a race to a concurrent scalar fit: keep theirs.
                        continue
                    self._states[key] = state
                    self._states.move_to_end(key)
                    while len(self._states) > self._cfg.max_predictors:
                        evicted.append(self._states.popitem(last=False))
                        self._evictions += 1
                    if not batched:
                        self._cache[key] = _CacheEntry(
                            computed_at=now, curve=state.curve
                        )
                    self._cold_fits += 1
                    self._refit_reasons["cold"] = (
                        self._refit_reasons.get("cold", 0) + 1
                    )
                owned.append((key, state))
                fitted += 1
            if batched:
                with self._lock:
                    owned = [
                        (key, state)
                        for key, state in owned
                        if self._states.get(key) is state
                    ]
                for key, state in owned:
                    self._enroll_locked(key, state, groups[key[2]])
                curves: dict = {}
                for probability, group in groups.items():
                    curves.update(
                        group.ticker.curves(
                            [k for k, _ in owned if k[2] == probability]
                        )
                    )
                with self._lock:
                    for key, state in owned:
                        state.curve = curves[key]
                        self._cache[key] = _CacheEntry(
                            computed_at=now, curve=state.curve
                        )
        for ekey, estate in evicted:
            # Outside every lock: unenrollment takes the group lock, which
            # must never nest inside self._lock.
            self._unenroll(ekey, estate)
        return {"fitted": fitted, "skipped": skipped}

    def batch_refresh(self, now: float) -> dict:
        """Advance every enrolled key to ``now`` in one vectorised sweep.

        The universe-wide epoch tick: per probability group, delta-fetch
        every enrolled key, feed announcements epoch-by-epoch into the
        group's :class:`~repro.core.universe.UniverseTicker` (keys sharing
        an announcement timestamp advance in one array op) and publish all
        curves from a single batched ``curves()`` call. Keys hitting a
        refit reason are ejected to the scalar path, refit inline and
        re-enrolled. Keys already refreshed at ``now`` are skipped.

        Returns ``{"keys", "refits", "epochs", "skipped"}``.
        """
        if not (self._cfg.batch and self._cfg.incremental):
            return {"keys": 0, "refits": 0, "epochs": 0, "skipped": 0}
        with self._lock:
            groups = list(self._groups.values())
        refreshed = 0
        refits = 0
        epochs = 0
        skipped = 0
        reenroll: list[tuple[tuple[str, str, float], _KeyState]] = []
        for group in groups:
            with group.lock:
                ticker = group.ticker
                pending: dict[tuple[str, str, float], object] = {}
                fed: list[tuple[str, str, float]] = []
                for key in ticker.keys():
                    with self._lock:
                        state = self._states.get(key)
                    if state is None or state.group is not group:
                        continue
                    with state.lock:
                        if state.group is not group:
                            continue
                        if state.last_now == now:
                            skipped += 1
                            continue
                        reason = self._refit_reason(state, now, key)
                        delta = None
                        if reason is None:
                            delta = self._api.describe_spot_price_history(
                                key[0], key[1], now, since=state.cursor
                            )
                            if (
                                delta is not None
                                and float(delta.prices.max())
                                >= state.max_price
                            ):
                                reason = "ladder_change"
                        if reason is not None:
                            ticker.remove_key(key)
                            state.group = None
                            curve = self._full_refit(
                                state, key[0], key[1], key[2], now, reason
                            )
                            with self._lock:
                                self._cache[key] = _CacheEntry(
                                    computed_at=now, curve=curve
                                )
                            refits += 1
                            reenroll.append((key, state))
                            continue
                        if delta is None:
                            # Zero-delta: republish the identical curve.
                            state.last_now = now
                            with self._lock:
                                self._cache[key] = _CacheEntry(
                                    computed_at=now, curve=state.curve
                                )
                                self._incremental_refreshes += 1
                                self._batch_ticks += 1
                            refreshed += 1
                            continue
                        pending[key] = delta
                        fed.append(key)
                # Epoch sweep: advance all keys sharing the next announce
                # timestamp in one vectorised observe.
                cursors = {k: 0 for k in fed}
                live = [k for k in fed if pending[k].times.size]
                while live:
                    t = min(
                        float(pending[k].times[cursors[k]]) for k in live
                    )
                    batch = [
                        k
                        for k in live
                        if float(pending[k].times[cursors[k]]) == t
                    ]
                    prices = [
                        float(pending[k].prices[cursors[k]]) for k in batch
                    ]
                    ticker.observe(t, prices, batch)
                    epochs += 1
                    for k in batch:
                        cursors[k] += 1
                    live = [
                        k for k in live if cursors[k] < pending[k].times.size
                    ]
                if fed:
                    curves = ticker.curves(fed)
                    for key in fed:
                        with self._lock:
                            state = self._states.get(key)
                        if state is None:
                            continue
                        with state.lock:
                            state.curve = curves[key]
                            state.cursor = pending[key].end
                            state.last_now = now
                        with self._lock:
                            self._cache[key] = _CacheEntry(
                                computed_at=now, curve=curves[key]
                            )
                            self._incremental_refreshes += 1
                            self._batch_ticks += 1
                        refreshed += 1
        for key, state in reenroll:
            self._maybe_enroll(key, state)
        return {
            "keys": refreshed,
            "refits": refits,
            "epochs": epochs,
            "skipped": skipped,
        }

    # -- crash-safe persistence ---------------------------------------------

    def cached_curves(
        self,
    ) -> list[tuple[tuple[str, str, float], BidDurationCurve | None, float]]:
        """The curve cache as ``(key, curve, computed_at)`` triples.

        Lets a restarted gateway prime its store from a freshly loaded
        checkpoint without recomputing anything.
        """
        with self._lock:
            return [
                (key, entry.curve, entry.computed_at)
                for key, entry in self._cache.items()
            ]

    def save_state(self, directory: str | Path) -> dict:
        """Checkpoint every incremental predictor to ``directory``.

        One framed, checksummed ``.snap`` file per key (see
        :mod:`repro.service.persistence`) plus a manifest, each written
        atomically. Keys running in batch mode (``incremental=False``) hold
        no incremental state worth persisting and are skipped. Returns
        ``{"saved", "skipped", "directory"}``.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with self._lock:
            states = list(self._states.items())
            cache = dict(self._cache)
        saved = 0
        skipped = 0
        files = []
        for key, state in states:
            group = state.group  # racy read; re-validated under the locks
            payload = None
            if group is not None:
                with group.lock:
                    with state.lock:
                        if state.group is group:
                            payload = {
                                "key": [key[0], key[1], float(key[2])],
                                "cursor": float(state.cursor),
                                "last_now": float(state.last_now),
                                "max_price": state.max_price,
                                "curve": (
                                    None
                                    if state.curve is None
                                    else state.curve.to_dict()
                                ),
                                # Enrolled keys serialise straight out of
                                # the batch ticker, in the exact scalar
                                # snapshot format — restore always lands on
                                # the scalar path and re-enrolls lazily.
                                "predictor": group.ticker.key_snapshot(key),
                            }
            if payload is None:
                with state.lock:
                    if state.online is None:
                        skipped += 1
                        continue
                    payload = {
                        "key": [key[0], key[1], float(key[2])],
                        "cursor": float(state.cursor),
                        "last_now": float(state.last_now),
                        "max_price": state.max_price,
                        "curve": (
                            None
                            if state.curve is None
                            else state.curve.to_dict()
                        ),
                        "predictor": state.online.to_snapshot(),
                    }
            entry = cache.get(key)
            if entry is not None:
                payload["computed_at"] = float(entry.computed_at)
            name = persistence.key_filename(key)
            persistence.write_snapshot(path / name, payload, kind="key")
            files.append(name)
            saved += 1
        persistence.write_snapshot(
            path / MANIFEST_NAME, {"files": files}, kind="manifest"
        )
        return {"saved": saved, "skipped": skipped, "directory": str(path)}

    def load_state(self, directory: str | Path) -> dict:
        """Restore predictor state checkpointed by :meth:`save_state`.

        Degrades, never crashes: a missing or unreadable manifest loads
        nothing, and any per-key file that is corrupt, torn, version-skewed
        or otherwise unusable is skipped — that key simply cold-refits on
        its next touch, which is the exact pre-checkpoint behaviour.
        Returns ``{"loaded", "skipped", "errors": {file: reason}}``.
        """
        path = Path(directory)
        errors: dict[str, str] = {}
        try:
            manifest = persistence.read_snapshot(
                path / MANIFEST_NAME, kind="manifest"
            )
            files = [str(f) for f in manifest["files"]]
        except (SnapshotError, KeyError, TypeError) as exc:
            return {
                "loaded": 0,
                "skipped": 0,
                "errors": {MANIFEST_NAME: str(exc)},
            }
        loaded = 0
        for name in files:
            try:
                payload = persistence.read_snapshot(path / name, kind="key")
                raw_key = payload["key"]
                key = (str(raw_key[0]), str(raw_key[1]), float(raw_key[2]))
                if key[2] not in self._cfg.probabilities:
                    raise SnapshotError(
                        f"probability {key[2]} not published by this service"
                    )
                state = _KeyState()
                state.online = OnlineDraftsPredictor.from_snapshot(
                    payload["predictor"]
                )
                if payload["curve"] is not None:
                    state.curve = BidDurationCurve.from_dict(payload["curve"])
                state.cursor = float(payload["cursor"])
                state.last_now = float(payload["last_now"])
                max_price = payload["max_price"]
                state.max_price = (
                    None if max_price is None else float(max_price)
                )
            except Exception as exc:  # any damage -> clean refit, no crash
                errors[name] = str(exc)
                continue
            with self._lock:
                self._states[key] = state
                self._states.move_to_end(key)
                while len(self._states) > self._cfg.max_predictors:
                    self._states.popitem(last=False)
                    self._evictions += 1
                if "computed_at" in payload:
                    self._cache[key] = _CacheEntry(
                        computed_at=float(payload["computed_at"]),
                        curve=state.curve,
                    )
            loaded += 1
        return {"loaded": loaded, "skipped": len(errors), "errors": errors}

    def cache_info(self) -> dict:
        """Cache and predictor occupancy counters (for the metrics layer).

        ``hits``/``misses`` count :meth:`curve` lookups against the curve
        cache; full QBETS fits split into ``cold_fits`` (the key held no
        predictor state: boot-time first touches, post-eviction refits,
        :meth:`warm_start` batch fits) and ``refits`` (the key was warm:
        rewind/gap/rewindow/ladder_change, and every recompute with
        ``incremental=False``), with per-trigger counts in
        ``refit_reasons``; ``incremental_refreshes`` counts delta-fed
        refreshes, and ``recomputes`` is the sum of all three (the
        pre-incremental service's counter); ``evictions`` counts predictor
        states dropped
        by the LRU bound. ``incremental_refreshes`` further splits into
        ``batch_ticks`` (served through a group's
        :class:`~repro.core.universe.UniverseTicker`) and ``scalar_ticks``
        (served by a per-key scalar predictor), so the batch path's
        coverage is observable; ``batch_keys`` counts currently enrolled
        keys.
        """
        with self._lock:
            return {
                "entries": len(self._cache),
                "predictors": len(self._states),
                "max_predictors": self._cfg.max_predictors,
                "hits": self._hits,
                "misses": self._misses,
                "recomputes": (
                    self._cold_fits
                    + self._refits
                    + self._incremental_refreshes
                ),
                "cold_fits": self._cold_fits,
                "refits": self._refits,
                "incremental_refreshes": self._incremental_refreshes,
                "batch_ticks": self._batch_ticks,
                "scalar_ticks": self._scalar_ticks,
                "batch_keys": sum(
                    len(g.ticker) for g in self._groups.values()
                ),
                "refit_reasons": dict(self._refit_reasons),
                "evictions": self._evictions,
            }

    def key_info(
        self, instance_type: str, zone: str, probability: float
    ) -> dict | None:
        """Observability snapshot of one key's predictor state (or None)."""
        key = (instance_type, zone, probability)
        with self._lock:
            state = self._states.get(key)
        if state is None:
            return None
        with state.lock:
            enrolled = state.group is not None
            if state.online is not None or enrolled:
                mode = "incremental"
            else:
                mode = "batch"
            if state.online is not None:
                n = state.online.n
            elif enrolled:
                n = state.group.ticker.n(key)
            else:
                n = None
            return {
                "mode": mode,
                "batched": enrolled,
                "cursor": state.cursor,
                "last_now": state.last_now,
                "max_price": state.max_price,
                "n": n,
            }

    def bid_for_duration(
        self,
        instance_type: str,
        zone: str,
        probability: float,
        duration_seconds: float,
        now: float,
    ) -> float:
        """Smallest published bid guaranteeing ``duration_seconds``.

        ``nan`` when no published rung can (clients fall back to
        On-demand, §4.4).
        """
        curve = self.curve(instance_type, zone, probability, now)
        if curve is None:
            return float("nan")
        return curve.bid_for_duration(duration_seconds)

    def cheapest_zone(
        self,
        instance_type: str,
        region: str,
        probability: float,
        now: float,
    ) -> tuple[str, float]:
        """AZ with the lowest minimum bid and that bid (§4.2's fitness rule).

        Raises ``RuntimeError`` when no AZ has enough history yet.
        """
        best_zone, best_bid = "", math.inf
        for zone in self._api.describe_availability_zones(region):
            try:
                curve = self.curve(instance_type, zone, probability, now)
            except KeyError:
                continue
            if curve is not None and curve.minimum_bid < best_bid:
                best_zone, best_bid = zone, curve.minimum_bid
        if not best_zone:
            raise RuntimeError(
                f"no AZ in {region} can quote {instance_type} yet"
            )
        return best_zone, best_bid
