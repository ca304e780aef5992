"""QBETS — Queue Bounds Estimation from Time Series.

The non-parametric forecaster DrAFTS builds on (§3.1 of the paper;
Nurmi, Brevik & Wolski 2008). Given a univariate time series, a quantile
``q`` and a confidence level ``c``, QBETS predicts a ``c``-confidence bound
on the ``q``-quantile of the *next* observation by selecting an order
statistic of the recent stationary segment of the series:

1. the binomial argument (see :mod:`repro.core.binomial`) maps ``(n, q, c)``
   to an order-statistic index;
2. a change-point detector (:mod:`repro.core.changepoint`) truncates the
   history whenever the stationarity assumption visibly breaks;
3. an autocorrelation compensation (:mod:`repro.core.autocorr`) shrinks the
   effective sample size for positively dependent series, pushing the chosen
   order statistic toward the extremes.

The online implementation keeps its history in an incremental
order-statistic tracker (:mod:`repro.core.quantile_tracker`), so processing
one new observation costs far less than re-sorting — this is what makes the
paper's "incremental update in a few milliseconds" claim (§3.3) hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core import binomial
from repro.core.changepoint import ChangePointDetector, ChangeSignal
from repro.core.quantile_tracker import QuantileTracker
from repro.util.stats import lag1_autocorr
from repro.util.validation import check_probability

__all__ = ["QBETS", "QBETSConfig"]


@dataclass(frozen=True)
class QBETSConfig:
    """Configuration of a QBETS predictor.

    Parameters
    ----------
    q:
        Quantile of the series to bound.
    c:
        Confidence level of the bound (the paper uses 0.99 throughout).
    side:
        ``"upper"`` for an upper bound (price series), ``"lower"`` for a
        lower bound (duration series).
    tick:
        Quantisation step of the underlying order-statistic tracker. For
        prices this is $0.0001 (the Spot tier increment, §3.2); for
        durations one 5-minute epoch.
    max_value:
        Domain limit of the tracker.
    changepoint:
        Enable change-point truncation (ablation switch).
    cp_window / cp_alpha:
        Change-point detector window (in decimated samples) and
        significance.
    cp_decimation:
        Feed the change-point detector every this many observations. Spot
        prices decorrelate over tens of minutes, so the detector samples
        hourly (12 five-minute epochs) by default to keep its binomial null
        honest.
    cp_down_quantile:
        Empirical history quantile defining a "low" observation for the
        downward-shift test.
    autocorr:
        Enable autocorrelation compensation (ablation switch).
    autocorr_mode:
        ``"ess"`` (default) — the analytic effective-sample-size
        correction; ``"table"`` — the Monte-Carlo correction table of
        :mod:`repro.core.artable`, the mechanism the original QBETS used.
        Table mode pays a one-time simulation cost per (q, c) pair
        (cached process-wide) and yields tighter bounds at the same
        coverage.
    artable_trials:
        Monte-Carlo trials per table cell when ``autocorr_mode="table"``.
    autocorr_window:
        Number of recent observations used to estimate the exceedance
        autocorrelation.
    autocorr_refresh:
        Recompute the autocorrelation estimate every this many updates
        (it moves slowly; recomputing each step wastes time).
    """

    q: float
    c: float = 0.99
    side: str = "upper"
    tick: float = 1e-4
    max_value: float = 100.0
    changepoint: bool = True
    cp_window: int = 48
    cp_alpha: float = 0.001
    cp_decimation: int = 12
    cp_down_quantile: float = 0.25
    autocorr: bool = True
    autocorr_mode: str = "ess"
    artable_trials: int = 800
    autocorr_window: int = 256
    autocorr_refresh: int = 16

    def __post_init__(self) -> None:
        check_probability(self.q, "q")
        check_probability(self.c, "c")
        if self.side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {self.side!r}")
        if self.cp_window < 1:
            raise ValueError("cp_window must be >= 1")
        if self.cp_decimation < 1:
            raise ValueError("cp_decimation must be >= 1")
        if self.autocorr_window < 8:
            raise ValueError("autocorr_window must be >= 8")
        if self.autocorr_refresh < 1:
            raise ValueError("autocorr_refresh must be >= 1")
        if self.autocorr_mode not in ("ess", "table"):
            raise ValueError(
                f"autocorr_mode must be 'ess' or 'table', got "
                f"{self.autocorr_mode!r}"
            )
        if self.artable_trials < 100:
            raise ValueError("artable_trials must be >= 100")

    def min_history(self) -> int:
        """Observations needed before any bound exists (ignoring autocorr)."""
        if self.side == "upper":
            return binomial.min_history_upper(self.q, self.c)
        return binomial.min_history_lower(self.q, self.c)

    def with_(self, **kwargs) -> "QBETSConfig":
        """Return a modified copy (ablation convenience)."""
        return replace(self, **kwargs)


class QBETS:
    """Online QBETS predictor for one time series.

    Typical use::

        qb = QBETS(QBETSConfig(q=0.975, c=0.99, side="upper"))
        for price in prices:
            bound_before = qb.bound      # prediction for this observation
            qb.update(price)
        next_bound = qb.bound            # prediction for the next one

    ``bound`` is ``nan`` until the history is long enough for a valid
    ``c``-confidence order statistic to exist.
    """

    def __init__(self, config: QBETSConfig) -> None:
        self._cfg = config
        rounding = "up" if config.side == "upper" else "down"
        self._tracker = QuantileTracker(
            tick=config.tick, max_value=config.max_value, rounding=rounding
        )
        self._detector = (
            ChangePointDetector(
                config.q,
                config.cp_window,
                config.cp_alpha,
                config.cp_down_quantile,
            )
            if config.changepoint
            else None
        )
        # Last `autocorr_window` observations, kept in a preallocated ring
        # buffer: the per-update cost is one array store, and the
        # chronological view is materialised only when the autocorrelation
        # estimate is actually refreshed.
        self._recent_buf = np.empty(config.autocorr_window, dtype=np.float64)
        self._recent_n = 0
        self._recent_pos = 0
        self._min_history = config.min_history()
        self._updates_since_rho = 0
        self._bound = float("nan")
        self._bound_stale = False
        self._changepoints: list[int] = []
        self._n_seen = 0
        self._set_rho(0.0)
        # The order-statistic index depends only on (n, q, c); computing it
        # through scipy per update dominates the profile, so every instance
        # indexes the process-wide memoised table (predictors for different
        # combinations share identical (q, c) and therefore one table).
        self._k_table = binomial.index_table(config.side, config.q, config.c, 0)
        self._artable = None  # built lazily when autocorr_mode == "table"

    @property
    def config(self) -> QBETSConfig:
        """The immutable configuration."""
        return self._cfg

    @property
    def n(self) -> int:
        """Length of the currently used (post-change-point) history."""
        return len(self._tracker)

    @property
    def n_seen(self) -> int:
        """Total observations ever fed in (including truncated ones)."""
        return self._n_seen

    @property
    def bound(self) -> float:
        """Current bound prediction for the next observation (nan if none)."""
        if self._bound_stale:
            self._recompute_bound()
            self._bound_stale = False
        return self._bound

    @property
    def rho(self) -> float:
        """Most recent exceedance lag-1 autocorrelation estimate."""
        return self._rho

    @property
    def changepoints(self) -> list[int]:
        """Indices (in ``n_seen`` terms) at which change points fired."""
        return list(self._changepoints)

    def state_dict(self) -> dict:
        """The predictor's full mutable state as plain values and arrays.

        Everything derived (binomial index tables, ESS factors, the sorted
        multiset inside the tracker, Monte-Carlo correction tables) is
        deliberately excluded: it is a pure function of the configuration
        plus the state captured here, so :meth:`load_state_dict` on a fresh
        instance with the same config reproduces a bit-identical predictor.
        """
        state = {
            "tracker": np.asarray(self._tracker.state_slots(), dtype=np.int64),
            "recent": self._recent_buf[: self._recent_n].copy(),
            "recent_pos": int(self._recent_pos),
            "rho": float(self._rho),
            "updates_since_rho": int(self._updates_since_rho),
            "bound": float(self._bound),
            "bound_stale": bool(self._bound_stale),
            "changepoints": [int(c) for c in self._changepoints],
            "n_seen": int(self._n_seen),
        }
        if self._detector is not None:
            state["detector"] = self._detector.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        The instance must have been constructed with the same
        :class:`QBETSConfig` that produced the state; mismatches surface as
        ``ValueError`` (domain/window checks), not silent drift.
        """
        self._tracker.clear()
        self._tracker.load_slots(state["tracker"])
        recent = np.asarray(state["recent"], dtype=np.float64)
        if recent.size > self._recent_buf.size:
            raise ValueError(
                f"{recent.size} recent observations exceed the "
                f"autocorr window {self._recent_buf.size}"
            )
        self._recent_n = int(recent.size)
        self._recent_buf[: self._recent_n] = recent
        self._recent_pos = int(state["recent_pos"])
        if not 0 <= self._recent_pos < max(self._recent_buf.size, 1):
            raise ValueError(f"recent_pos {self._recent_pos} out of range")
        self._set_rho(float(state["rho"]))
        self._updates_since_rho = int(state["updates_since_rho"])
        self._bound = float(state["bound"])
        self._bound_stale = bool(state["bound_stale"])
        self._changepoints = [int(c) for c in state["changepoints"]]
        self._n_seen = int(state["n_seen"])
        if self._detector is not None and "detector" in state:
            self._detector.load_state_dict(state["detector"])

    def _set_rho(self, rho: float) -> None:
        """Store a new autocorrelation estimate plus its ESS factors.

        The effective-sample-size correction (see
        :func:`repro.core.autocorr.effective_sample_size`) is applied on
        every update while ``rho`` changes at most every
        ``autocorr_refresh``-th; caching the clamped numerator/denominator
        keeps the per-update cost to one multiply and one divide. The
        expression order matches the original function exactly, so the
        resulting ``n_eff`` is bit-identical.
        """
        self._rho = float(rho)
        r = min(max(self._rho, 0.0), 0.99)
        self._ess_num = 1.0 - r
        self._ess_den = 1.0 + r

    def _effective_n(self) -> int:
        n = len(self._tracker)
        if not self._cfg.autocorr:
            return n
        n_eff = int(n * self._ess_num / self._ess_den)
        if n_eff < 1:
            n_eff = 1
        # The correction makes the bound more conservative (k closer to the
        # extreme) but must never silence a predictor that has enough raw
        # history: floor at the minimum sample a bound needs. Strongly
        # autocorrelated series then get the most conservative valid order
        # statistic instead of no answer at all.
        return max(n_eff, min(n, self._min_history))

    def _k_for(self, n_eff: int) -> int:
        table = self._k_table
        if n_eff >= len(table):
            # Grows the shared list in place; the local reference stays valid.
            binomial.index_table(
                self._cfg.side, self._cfg.q, self._cfg.c, n_eff
            )
        return table[n_eff]

    def _table_k(self, n: int) -> int:
        """Order-statistic index via the Monte-Carlo correction table.

        Rules, mirroring the "never silence, never loosen" semantics of
        the ESS path: no bound while the raw history is below the
        independence minimum; never a deeper (less conservative) index
        than the independence answer; fall back to the minimum-history
        independence index when the table cell is empty.
        """
        from repro.core.artable import ARCorrectionTable

        k_plain = self._k_for(n)
        if k_plain < 0:
            return -1
        if self._artable is None:
            q_table = (
                self._cfg.q if self._cfg.side == "upper" else 1.0 - self._cfg.q
            )
            self._artable = ARCorrectionTable.build(
                q_table, self._cfg.c, trials=self._cfg.artable_trials
            )
        k = self._artable.k_index(n, self._rho)
        if k < 0:
            return self._k_for(min(n, self._min_history))
        return min(k, k_plain)

    def _recompute_bound(self) -> None:
        if self._cfg.autocorr and self._cfg.autocorr_mode == "table":
            k = self._table_k(len(self._tracker))
        else:
            k = self._k_for(self._effective_n())
        if k < 0:
            self._bound = float("nan")
        elif self._cfg.side == "upper":
            self._bound = self._tracker.kth_largest(k)
        else:
            self._bound = self._tracker.kth_smallest(k)

    def _recent_append(self, value: float) -> None:
        if self._recent_n < self._recent_buf.size:
            self._recent_buf[self._recent_n] = value
            self._recent_n += 1
        else:
            self._recent_buf[self._recent_pos] = value
            pos = self._recent_pos + 1
            self._recent_pos = 0 if pos == self._recent_buf.size else pos

    def _recent_reset(self, values) -> None:
        """Refill the ring with the tail of ``values`` (change-point path)."""
        window = self._recent_buf.size
        tail = values[-window:] if len(values) > window else values
        self._recent_n = len(tail)
        self._recent_pos = 0
        self._recent_buf[: self._recent_n] = tail

    def _recent_view(self) -> np.ndarray:
        """Chronologically ordered recent observations.

        A zero-copy view while the ring has not wrapped; one small
        concatenation (at most ``autocorr_window`` elements, only on
        refresh steps) afterwards.
        """
        if self._recent_n < self._recent_buf.size:
            return self._recent_buf[: self._recent_n]
        pos = self._recent_pos
        if pos == 0:
            return self._recent_buf
        return np.concatenate((self._recent_buf[pos:], self._recent_buf[:pos]))

    def _refresh_rho(self) -> None:
        if not self._cfg.autocorr:
            return
        self._updates_since_rho += 1
        if self._updates_since_rho < self._cfg.autocorr_refresh:
            return
        self._updates_since_rho = 0
        if self._recent_n < 8 or len(self._tracker) < 4:
            self._set_rho(0.0)
            return
        recent = self._recent_view()
        if self._cfg.autocorr_mode == "table":
            # The correction table is parameterised by the *latent series*
            # AR(1) coefficient. A rank (Spearman) lag-1 autocorrelation is
            # invariant under the unknown monotone marginal, and maps to
            # the latent Gaussian rho via 2 sin(pi * rho_s / 6).
            ranks = np.argsort(np.argsort(recent)).astype(np.float64)
            rho_s = lag1_autocorr(ranks)
            self._set_rho(float(2.0 * math.sin(math.pi * rho_s / 6.0)))
            return
        # ESS mode: exceedance indicators relative to the empirical
        # q-quantile of the tracked segment — dependence of the rare
        # events is what matters.
        n = len(self._tracker)
        idx = min(max(int(math.ceil(self._cfg.q * n)) - 1, 0), n - 1)
        threshold = self._tracker.kth_smallest(idx)
        self._set_rho(lag1_autocorr((recent > threshold).astype(np.float64)))

    def update(self, value: float, need_bound: bool = True) -> float:
        """Consume one observation; return the new bound prediction.

        The returned value is the bound for the *next* (not yet seen)
        observation, mirroring the paper's use of the history up to time
        ``t`` to predict a bid valid at ``t``.

        ``need_bound=False`` defers the order-statistic selection: the
        state evolves identically (the detector still sees the exact bound
        in effect at each decimated step, recomputed on demand from the
        unchanged pre-push state) but the per-step selection is skipped and
        the return value is meaningless. Callers that only consume
        :attr:`changepoints` — see :meth:`scan` — avoid ~a third of the
        per-update cost; :attr:`bound` stays correct either way because the
        property recomputes when stale.
        """
        self._n_seen += 1
        tracker = self._tracker
        # The change-point detector samples every cp_decimation-th
        # observation, so its features (bound exceedance, below-median
        # indicator) are computed only on the steps it actually consumes —
        # they describe pre-push state, so they must be extracted before
        # the push below.
        feed_detector = (
            self._detector is not None
            and self._n_seen % self._cfg.cp_decimation == 0
        )
        if feed_detector:
            if self._bound_stale:
                self._recompute_bound()
                self._bound_stale = False
            exceeded = (not math.isnan(self._bound)) and value > self._bound
            below_low = False
            n = len(tracker)
            if n >= 16:
                k_low = max(
                    int(math.ceil(self._cfg.cp_down_quantile * n)) - 1, 0
                )
                below_low = value < tracker.kth_smallest(k_low)

        tracker.push(value)
        self._recent_append(value)

        if feed_detector:
            signal = self._detector.observe(exceeded, below_low)
            if signal is not ChangeSignal.NONE:
                self._changepoints.append(self._n_seen)
                # Keep the detection window's worth of raw observations, but
                # never less than the minimum history a bound needs — a
                # truncation that silences the predictor for days would be
                # worse than retaining a little pre-change data.
                keep = max(
                    self._detector.window * self._cfg.cp_decimation,
                    self._min_history,
                )
                keep = min(keep, len(tracker))
                tracker.truncate_to(keep)
                kept = tracker.recent(keep)
                if signal is ChangeSignal.DOWN and len(kept) >= 8:
                    # A level *drop* leaves stale high observations inside
                    # the kept window (the detector fires shortly after the
                    # change, so part of the window predates it). The newest
                    # quarter is post-change by construction; values above
                    # its maximum belong to the dead regime and would pin
                    # the upper bound there for a long time. Never winsorize
                    # below the minimum history, though: a predictor that
                    # goes silent is worse than one that stays conservative.
                    ceiling = max(kept[-(len(kept) // 4) :])
                    filtered = [v for v in kept if v <= ceiling]
                    if len(filtered) < self._min_history:
                        # Pad back to the minimum history with the smallest
                        # of the removed values (the least regime-pinning
                        # ones), placed oldest-first so future truncations
                        # shed them before any post-change data.
                        removed = sorted(v for v in kept if v > ceiling)
                        pad = removed[: self._min_history - len(filtered)]
                        filtered = pad + filtered
                    kept = filtered
                    tracker.clear()
                    tracker.extend(kept)
                self._recent_reset(kept)
                self._set_rho(0.0)
                self._updates_since_rho = 0

        self._refresh_rho()
        if need_bound:
            self._recompute_bound()
            self._bound_stale = False
        else:
            self._bound_stale = True
        return self._bound

    def bound_series(self, values: np.ndarray) -> np.ndarray:
        """Feed a whole series; return the bound *in effect before* each point.

        ``out[i]`` is the prediction computed from ``values[:i]`` — i.e. the
        bid DrAFTS would have quoted at the instant observation ``i``
        arrived. This is phase 1 of the DrAFTS methodology (§3.2).
        """
        x = np.asarray(values, dtype=np.float64)
        out = np.empty(x.size, dtype=np.float64)
        update = self.update
        # tolist() converts to Python floats in one C pass; per-step work
        # is then one update plus one array store, with no allocations.
        for i, v in enumerate(x.tolist()):
            out[i] = self._bound
            update(v)
        return out

    def scan(self, values: np.ndarray) -> None:
        """Feed a whole series without materialising per-step bounds.

        State (history, change points, autocorrelation) evolves exactly as
        with :meth:`bound_series`; only the per-step order-statistic
        selection is skipped. For consumers that need the change-point
        segmentation but not the bounds (the AR(1) baseline), this is the
        cheaper fit.
        """
        x = np.asarray(values, dtype=np.float64)
        update = self.update
        for v in x.tolist():
            update(v, need_bound=False)
