"""Universe-wide batched phase-1 fit (SoA bound series + ladder layout).

:class:`~repro.core.qbets.QBETS` replays one price history at a time; the
paper-scale Table 1 sweep fits 452 of them back to back, and PR 6's
`UniverseTicker` showed the remaining wall-clock lives in exactly that
per-combo fit. This module performs the same phase-1 replay for the whole
universe at once, as one structure-of-arrays pass per *epoch column*:

* Histories are stored transposed, ``(time, key)``, keys sorted by length
  descending — the active set at column ``i`` is always a prefix, and every
  active key has consumed exactly ``i`` observations, so the change-point
  decimation clock (``n_seen % cp_decimation``) is one shared scalar per
  column. That lockstep is what makes the bound series column-sweepable:
  all per-key state transitions at column ``i`` depend only on state after
  column ``i - 1`` plus the column's price vector.
* Each key's quantised tick multiset lives in a per-key *two-level count
  histogram over its rank-compressed slot alphabet*: leaf counts
  ``(keys, nb*B)`` plus block counts ``(keys, nb)``, ``B`` about the square
  root of the largest alphabet. Pushing a column is two vectorised
  increments, and every order statistic the scalar path reads (bound
  selection, the change-point "low" threshold, the autocorrelation
  threshold) is one lockstep block-then-leaf cumulative count across all
  queried keys.
* Keys may differ in ``q`` and ``c`` (one probability level each, so a
  service publishing 0.95 and 0.99 fits both in one sweep): the quantile,
  minimum history and change-point thresholds are per-key arrays, and one
  row of the binomial index table
  (:func:`repro.core.binomial.index_table`) per distinct ``(q, c)`` is
  snapshotted and stacked once per fit, so the per-column bound selection
  is one flat gather instead of 452 list probes.

Change points are the one genuinely scalar event: they are rare (a few per
key per fit), so each firing is handled by a per-key mirror of
``QBETS.update``'s truncation/winsorisation branch, rewriting that key's
history segment in place and rebuilding its histogram row. If a key's
post-change state cannot be represented in its compressed alphabet (a
winsorisation pad re-quantises to an unseen slot — impossible for realistic
price domains, but the rule is explicit), the key is *ejected to scalar*: a
fresh ``QBETS`` replays its prefix (bit-identically, by construction) and
advances it column by column from then on. Ejection is also the whole-
universe fallback for configurations the SoA kernels do not cover
(``side != "upper"``, the Monte-Carlo ``autocorr_mode="table"``).

Every floating-point expression mirrors the scalar code's operation order
(including the ``int(n * num / den)`` ESS truncation and the per-key BLAS
``np.dot`` inside :func:`repro.util.stats.lag1_autocorr`), so the produced
bound series, change points, final states and ladders are bit-identical to
per-key ``QBETS.bound_series`` — asserted by tests/test_universe_fit.py and
gated by benchmarks/bench_universe_fit.py.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core import binomial
from repro.core.changepoint import BinomialRunDetector
from repro.core.drafts import DraftsConfig, DraftsPredictor, ladder_levels
from repro.core.durations import DurationLadder
from repro.core.qbets import QBETS, QBETSConfig
from repro.util.stats import lag1_autocorr

__all__ = [
    "DraftsUniverseFit",
    "UniverseFitResult",
    "UniverseFitter",
    "fit_drafts_universe",
    "fit_universe",
    "scan_universe",
]


def _batchable(cfg: QBETSConfig) -> bool:
    """Whether the SoA kernels cover this configuration.

    Phase 1 is always an upper bound with the analytic ESS correction; the
    other combinations stay on the scalar reference path (whole-universe
    ejection) rather than growing rarely-exercised kernel variants.
    """
    if cfg.side != "upper":
        return False
    if cfg.autocorr and cfg.autocorr_mode == "table":
        return False
    return True


def _lockstep_config(cfg: QBETSConfig) -> QBETSConfig:
    """``cfg`` with the fields one column sweep may vary per key pinned.

    ``max_value`` (tracker domain), ``q`` and ``c`` (binomial index row,
    minimum history, up-detector threshold) live in per-key arrays; every
    other field drives the shared column clock and must agree.
    """
    return replace(cfg, max_value=1.0, q=0.5, c=0.5)


class UniverseFitter:
    """One batched phase-1 fit over many price histories.

    Parameters
    ----------
    series:
        One 1-D price array per key (ragged lengths allowed, including
        empty).
    configs:
        One :class:`QBETSConfig` shared by every key, or a sequence of
        per-key configs. All configs must agree on every field except
        ``max_value``, ``q`` and ``c``: the tracker domain and the
        probability level may vary per key, so every published level fits
        in one sweep. Disagreement elsewhere raises ``ValueError`` because
        lockstep columns require shared decimation/window parameters.
    need_bounds:
        ``True`` (fit mode) materialises the full per-key bound series,
        exactly as ``QBETS.bound_series`` would. ``False`` (scan mode)
        evolves state identically — change points, final state — but skips
        the per-column order-statistic selection, mirroring ``QBETS.scan``.
    eject_after:
        Testing/debug hook: ``{key_index: column}`` forces the key onto the
        scalar ejection path just before that column is consumed. The
        result must stay bit-identical; tests use this to exercise the
        eject rules without constructing a pathological price domain.
    """

    def __init__(
        self,
        series: Sequence[np.ndarray],
        configs: QBETSConfig | Sequence[QBETSConfig],
        *,
        need_bounds: bool = True,
        eject_after: dict[int, int] | None = None,
    ) -> None:
        arrays = [np.asarray(s, dtype=np.float64).ravel() for s in series]
        K = len(arrays)
        if isinstance(configs, QBETSConfig):
            cfg_list = [configs] * K
        else:
            cfg_list = list(configs)
        if len(cfg_list) != K:
            raise ValueError(
                f"{len(cfg_list)} configs for {K} series"
            )
        if K:
            shared = {_lockstep_config(c) for c in cfg_list}
            if len(shared) > 1:
                raise ValueError(
                    "batched fit requires configs identical up to "
                    f"max_value, q and c; got {len(shared)} distinct "
                    "configurations"
                )
        self._series = arrays
        self._cfg_for = cfg_list
        self._need_bounds = need_bounds
        self._K = K
        self._lengths = np.array([a.size for a in arrays], dtype=np.int64)
        self._T = int(self._lengths.max()) if K else 0
        self._ejected: dict[int, QBETS] = {}
        self._ejected_mask = np.zeros(K, dtype=bool)
        self._cps: list[list[int]] = [[] for _ in range(K)]
        self._scan_final = np.full(K, np.nan)
        if K == 0 or self._T == 0:
            self._order = np.arange(K, dtype=np.int64)
            self._inv = np.arange(K, dtype=np.int64)
            self._bound = np.full(K, np.nan)
            self._out_T = None
            self._fallback = True
            self._run_fallback()
            return
        cfg = cfg_list[0]
        self._fallback = not _batchable(cfg)
        # Sorted-by-length-descending key layout; everything below indexes
        # keys by their *sorted* position j, translated at the API edge.
        order = np.argsort(-self._lengths, kind="stable")
        self._order = order
        inv = np.empty(K, dtype=np.int64)
        inv[order] = np.arange(K, dtype=np.int64)
        self._inv = inv
        self._len_sorted = self._lengths[order]
        self._eject_at: dict[int, list[int]] = {}
        if eject_after:
            for k, col in eject_after.items():
                self._eject_at.setdefault(int(col), []).append(int(inv[k]))
        self._out_T = (
            np.zeros((self._T, K), dtype=np.float64) if need_bounds else None
        )
        self._bound = np.full(K, np.nan)
        if self._fallback:
            self._run_fallback()
            return
        self._setup(cfg)
        self._run()

    # -- setup ---------------------------------------------------------------

    def _setup(self, cfg: QBETSConfig) -> None:
        K, T = self._K, self._T
        order = self._order
        cfgs = [self._cfg_for[k] for k in order.tolist()]
        self._tick = float(cfg.tick)
        self._cp_down_q = float(cfg.cp_down_quantile)
        self._autocorr = bool(cfg.autocorr)
        self._use_cp = bool(cfg.changepoint)
        self._decim = int(cfg.cp_decimation)
        self._refresh = int(cfg.autocorr_refresh)
        # q and c may differ per key (one probability level each): the
        # quantile, minimum history and truncation floor are per-key arrays.
        self._q = np.array([c.q for c in cfgs], dtype=np.float64)
        self._min_history = np.array(
            [c.min_history() for c in cfgs], dtype=np.int64
        )
        self._keep_base = np.maximum(
            cfg.cp_window * self._decim, self._min_history
        )
        self._Wa = int(cfg.autocorr_window)
        # The closed-form lag-1 fast path needs m = hits/Wa (and every
        # partial sum) exactly representable: Wa a power of two, small
        # enough that Wa^3 stays under 2^53.
        self._exact_lag1 = (
            self._Wa >= 2
            and (self._Wa & (self._Wa - 1)) == 0
            and self._Wa <= (1 << 17)
        )
        self._Wd = int(cfg.cp_window)
        limits = np.array(
            [
                int(math.ceil(self._cfg_for[k].max_value / self._tick)) + 1
                for k in order.tolist()
            ],
            dtype=np.int64,
        )
        self._slots_limit = limits
        slot_dtype = np.int64 if int(limits.max()) > 2**31 - 1 else np.int32
        self._prices_T = np.zeros((T, K), dtype=np.float64)
        for j, k in enumerate(order.tolist()):
            x = self._series[k]
            if x.size:
                self._prices_T[: x.size, j] = x
        # Validate and quantise the whole matrix at once (the zero pads
        # quantise to slot 0 and trivially pass both checks); only fall
        # back to a per-value walk to reproduce the scalar tracker's exact
        # error message for the first offending value in arrival order.
        if not (np.isfinite(self._prices_T).all() and (self._prices_T >= 0).all()):
            for j in range(K):
                x = self._prices_T[: self._len_sorted[j], j]
                bad = np.flatnonzero((x < 0) | ~np.isfinite(x))
                if bad.size:
                    v = float(x[bad[0]])
                    if v < 0:
                        raise ValueError(
                            f"values must be non-negative, got {v}"
                        )
                    raise ValueError(f"values must be finite, got {v}")
        slots_f = np.ceil(self._prices_T / self._tick - 1e-9)
        # Domain-check on the float slots BEFORE the integer cast so an
        # out-of-domain price cannot wrap around a narrow slot dtype.
        if (slots_f.max(axis=0) >= limits).any():
            for j in range(K):
                n = int(self._len_sorted[j])
                over = np.flatnonzero(slots_f[:n, j] >= limits[j])
                if over.size:
                    raise ValueError(
                        f"value {float(self._prices_T[over[0], j])} exceeds "
                        f"tracker domain (max {(limits[j] - 1) * self._tick})"
                    )
        slots_all = slots_f.astype(slot_dtype)
        self._slots_T = slots_all
        U_arr = np.zeros(K, dtype=np.int64)
        uniqs: list[np.ndarray] = []
        for j in range(K):
            n = int(self._len_sorted[j])
            if n == 0:
                uniqs.append(np.zeros(0, dtype=np.int64))
                continue
            u = np.unique(slots_all[:n, j])
            U_arr[j] = u.size
            uniqs.append(u)
        self._U = U_arr
        U_max = max(int(U_arr.max()), 1)
        # Two-level count histogram over each key's compressed alphabet:
        # B leaves per block, B the power of two >= sqrt(U_max) (>= 16),
        # so a selection scans about 2 * sqrt(U_max) counts per key.
        B = 16
        while B * B < U_max:
            B <<= 1
        nb = -(-U_max // B)
        self._B = B
        self._B_shift = B.bit_length() - 1
        self._nb = nb
        self._uniq = np.zeros((K, nb * B), dtype=np.int64)
        self._comp_T = np.zeros((T, K), dtype=np.int32)
        for j, u in enumerate(uniqs):
            n = int(self._len_sorted[j])
            if u.size == 0:
                continue
            self._uniq[j, : u.size] = u
            # Pad with the last slot so clipped leaves stay in-alphabet.
            self._uniq[j, u.size :] = u[-1]
            self._comp_T[:n, j] = np.searchsorted(u, self._slots_T[:n, j])
        self._leaf_cap = np.maximum(U_arr - 1, 0)
        self._leaf = np.zeros((K, nb * B), dtype=np.int32)
        self._block = np.zeros((K, nb), dtype=np.int32)
        self._ar = np.arange(K, dtype=np.int64)
        self._leaf_base = self._ar * (nb * B)
        self._block_base = self._ar * nb
        # Event state for the incremental fit-mode bound finger.
        self._k_prev = np.full(K, np.iinfo(np.int64).min, dtype=np.int64)
        self._cp_touched = np.zeros(K, dtype=bool)
        # Per-key scalar-state mirrors (sorted order).
        self._L = np.zeros(K, dtype=np.int64)
        self._h0 = np.zeros(K, dtype=np.int64)
        self._rec_buf = np.zeros((K, self._Wa), dtype=np.float64)
        self._rec_n = np.zeros(K, dtype=np.int64)
        # Single write cursor: equals the scalar `_recent_n` while the ring
        # is filling (head stays 0) and the scalar `_recent_pos` once full,
        # so one modular increment replaces the scalar's two-field update.
        self._rec_w = np.zeros(K, dtype=np.int64)
        self._rho = np.zeros(K, dtype=np.float64)
        self._ess_num = np.ones(K, dtype=np.float64)
        self._ess_den = np.ones(K, dtype=np.float64)
        self._upd = np.zeros(K, dtype=np.int64)
        if self._use_cp:
            crit = {
                q: BinomialRunDetector(1.0 - q, self._Wd, cfg.cp_alpha)
                .critical_hits
                for q in set(self._q.tolist())
            }
            self._crit_up = np.array(
                [crit[q] for q in self._q.tolist()], dtype=np.int64
            )
            self._crit_down = BinomialRunDetector(
                self._cp_down_q, self._Wd, cfg.cp_alpha
            ).critical_hits
            self._up_events = np.zeros((K, self._Wd), dtype=bool)
            self._up_len = np.zeros(K, dtype=np.int64)
            self._up_head = np.zeros(K, dtype=np.int64)
            self._up_hits = np.zeros(K, dtype=np.int64)
            self._dn_events = np.zeros((K, self._Wd), dtype=bool)
            self._dn_len = np.zeros(K, dtype=np.int64)
            self._dn_head = np.zeros(K, dtype=np.int64)
            self._dn_hits = np.zeros(K, dtype=np.int64)
        # One binomial index row per distinct (q, c), stacked flat; key j
        # reads k(n) at _k_flat[_k_base[j] + n].
        rows: dict[tuple[float, float], int] = {}
        gid = [rows.setdefault((c.q, c.c), len(rows)) for c in cfgs]
        self._k_flat = np.concatenate(
            [
                np.array(
                    binomial.index_table(cfg.side, q, c, T)[: T + 1],
                    dtype=np.int64,
                )
                for q, c in rows
            ]
        )
        self._k_base = np.array(gid, dtype=np.int64) * (T + 1)
        neg = -self._len_sorted
        self._kact_arr = np.searchsorted(
            neg, -np.arange(T, dtype=np.int64), side="left"
        )

    # -- lockstep kernels ----------------------------------------------------

    def _select(self, rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """``rank``-th smallest tracked value for each queried key.

        Two counting passes over the queried keys' histograms in lockstep:
        the block cumsum locates the block holding the rank, the leaf
        cumsum inside that block locates the slot. Counts are exact
        integers, so the returned floats are ``slot * tick``, exactly what
        ``QuantileTracker.kth_smallest`` produces.
        """
        blocks = self._block[rows]
        csum = blocks.cumsum(axis=1)
        b = (csum <= ranks[:, None]).sum(axis=1)
        # Clips protect ejected keys' garbage rows; live ranks always land
        # inside the alphabet.
        np.minimum(b, self._nb - 1, out=b)
        at = np.arange(rows.size)
        r_in = ranks - (csum[at, b] - blocks[at, b])
        leaves = self._leaf.reshape(self._K, self._nb, self._B)[rows, b]
        within = (leaves.cumsum(axis=1) <= r_in[:, None]).sum(axis=1)
        leaf = np.minimum((b << self._B_shift) + within, self._leaf_cap[rows])
        return self._uniq[rows, leaf].astype(np.float64) * self._tick

    def _push(self, kact: int, comp_row: np.ndarray) -> None:
        # One leaf and one block per key, each in the key's own row: the
        # index vectors have no duplicates, so a fancy += is safe.
        self._leaf.reshape(-1)[self._leaf_base[:kact] + comp_row] += 1
        self._block.reshape(-1)[
            self._block_base[:kact] + (comp_row >> self._B_shift)
        ] += 1

    def _observe(self, kact, events, elen, ehead, ehits, hit, crit):
        """Vectorised ``BinomialRunDetector.observe`` across the prefix."""
        ar = self._ar[:kact]
        ln = elen[:kact].copy()
        hd = ehead[:kact]
        full = ln == self._Wd
        ehits[:kact] -= events[ar, hd] & full
        wpos = np.where(full, hd, ln)
        events[ar, wpos] = hit
        ehits[:kact] += hit
        nh = hd + 1
        nh[nh == self._Wd] = 0
        ehead[:kact] = np.where(full, nh, hd)
        elen[:kact] = np.minimum(ln + 1, self._Wd)
        return (elen[:kact] == self._Wd) & (ehits[:kact] >= crit)

    def _bound_index(self, kact: int) -> np.ndarray:
        """Per-key binomial index ``k`` (``QBETS._k_for(_effective_n())``)."""
        La = self._L[:kact]
        if self._autocorr:
            ne = (
                (La.astype(np.float64) * self._ess_num[:kact])
                / self._ess_den[:kact]
            ).astype(np.int64)
            np.maximum(ne, 1, out=ne)
            floor_ = np.minimum(La, self._min_history[:kact])
            np.maximum(ne, floor_, out=ne)
        else:
            ne = La.copy()
        ne += self._k_base[:kact]
        return self._k_flat[ne]

    def _compute_bounds_incr(self, kact: int, v: np.ndarray) -> None:
        """Event-driven bound maintenance for the fit-mode column sweep.

        The bound is the k-th largest tracked value.  Pushing a value that
        is not strictly above the carried bound leaves the multiset's top-k
        untouched, so the carried float is exactly what a fresh selection
        would return.  A selection is therefore only needed for keys where
        (a) the pushed value exceeded the carried bound, (b) the binomial
        index k changed (L growth, ESS/rho refresh, or nan -> valid
        transition), or (c) a change point rewrote the segment.
        """
        La = self._L[:kact]
        k = self._bound_index(kact)
        events = k != self._k_prev[:kact]
        events |= self._cp_touched[:kact]
        events |= v > self._bound[:kact]
        self._k_prev[:kact] = k
        rows = np.flatnonzero(events)
        if rows.size:
            self._cp_touched[rows] = False
            kr = k[rows]
            Lr = La[rows]
            ok = (kr >= 0) & (Lr > 0)
            bad = rows[~ok]
            if bad.size:
                self._bound[bad] = np.nan
            sel = rows[ok]
            if sel.size:
                self._bound[sel] = self._select(sel, Lr[ok] - 1 - kr[ok])

    def _compute_bounds(self, kact: int) -> None:
        """Mirror ``QBETS._recompute_bound`` for the whole active prefix."""
        La = self._L[:kact]
        k = self._bound_index(kact)
        self._bound[:kact] = np.nan
        valid = np.flatnonzero((k >= 0) & (La > 0))
        if valid.size:
            # kth_largest(k) over L samples is rank L - 1 - k from below.
            self._bound[valid] = self._select(valid, La[valid] - 1 - k[valid])

    # -- the column sweep ----------------------------------------------------

    def _run(self) -> None:
        T = self._T
        need_bounds = self._need_bounds
        prices_T, comp_T = self._prices_T, self._comp_T
        out_T, bound = self._out_T, self._bound
        L = self._L
        rec_buf, rec_n, rec_w = self._rec_buf, self._rec_n, self._rec_w
        Wa = self._Wa
        decim, use_cp = self._decim, self._use_cp
        kact_arr = self._kact_arr
        ar = self._ar
        len_sorted = self._len_sorted
        for i in range(T):
            kact = int(kact_arr[i])
            v = prices_T[i, :kact]
            if need_bounds:
                out_T[i, :kact] = bound[:kact]
            for j in self._eject_at.pop(i, ()):
                if not self._ejected_mask[j]:
                    self._eject(j, i)
            if self._ejected:
                for j, qb in self._ejected.items():
                    if i < len_sorted[j]:
                        if need_bounds:
                            out_T[i, j] = qb._bound
                            qb.update(float(prices_T[i, j]))
                        else:
                            qb.update(float(prices_T[i, j]), need_bound=False)
            feed = use_cp and (i + 1) % decim == 0
            if feed:
                if not need_bounds and i > 0:
                    # Scan mode: the detector sees the exact bound in
                    # effect, recomputed on demand from pre-push state —
                    # identical to the value fit mode carried over.
                    self._compute_bounds(kact)
                b = bound[:kact]
                with np.errstate(invalid="ignore"):
                    exceeded = ~np.isnan(b) & (v > b)
                below = np.zeros(kact, dtype=bool)
                big = np.flatnonzero(L[:kact] >= 16)
                if big.size:
                    kl = (
                        np.ceil(self._cp_down_q * L[big]).astype(np.int64) - 1
                    )
                    np.maximum(kl, 0, out=kl)
                    below[big] = v[big] < self._select(big, kl)
            self._push(kact, comp_T[i, :kact])
            L[:kact] += 1
            w = rec_w[:kact]
            rec_buf[ar[:kact], w] = v
            w += 1
            w[w == Wa] = 0
            np.minimum(rec_n[:kact] + 1, Wa, out=rec_n[:kact])
            if feed:
                fired_up = self._observe(
                    kact,
                    self._up_events,
                    self._up_len,
                    self._up_head,
                    self._up_hits,
                    exceeded,
                    self._crit_up[:kact],
                )
                fired_dn = self._observe(
                    kact,
                    self._dn_events,
                    self._dn_len,
                    self._dn_head,
                    self._dn_hits,
                    below,
                    self._crit_down,
                )
                fired = fired_up | fired_dn
                if fired.any():
                    idxs = np.flatnonzero(fired)
                    for name in ("_up", "_dn"):
                        getattr(self, name + "_len")[idxs] = 0
                        getattr(self, name + "_head")[idxs] = 0
                        getattr(self, name + "_hits")[idxs] = 0
                    for j in idxs.tolist():
                        if not self._ejected_mask[j]:
                            self._handle_changepoint(
                                j, i, bool(fired_dn[j] and not fired_up[j])
                            )
            if self._autocorr:
                self._refresh_rho_col(kact)
            if need_bounds:
                self._compute_bounds_incr(kact, v)
        if not need_bounds:
            # Preserve the stale per-state bound values (what a scalar
            # scan's `state_dict` would capture), then refresh `_bound`
            # into the `qb.bound` property's fresh recompute.
            self._scan_final[:] = self._bound
            self._compute_bounds(self._K)
        # Sweep-only buffers: the result reads bounds, slots and the state
        # mirrors, never the price matrix or the count histograms.
        del self._prices_T, self._comp_T, self._uniq
        del self._leaf, self._block, self._leaf_base, self._block_base

    def _refresh_rho_col(self, kact: int) -> None:
        upd = self._upd
        upd[:kact] += 1
        ready = np.flatnonzero(upd[:kact] >= self._refresh)
        if ready.size == 0:
            return
        upd[ready] = 0
        zero = (self._rec_n[ready] < 8) | (self._L[ready] < 4)
        zrows = ready[zero]
        if zrows.size:
            self._rho[zrows] = 0.0
            self._ess_num[zrows] = 1.0
            self._ess_den[zrows] = 1.0
        live = ready[~zero]
        if live.size == 0:
            return
        Ll = self._L[live]
        idx = np.ceil(self._q[live] * Ll).astype(np.int64) - 1
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, Ll - 1, out=idx)
        thr = self._select(live, idx)
        rec_buf, rec_n, rec_w = self._rec_buf, self._rec_n, self._rec_w
        Wa = self._Wa
        ejected_mask = self._ejected_mask
        dot = np.dot
        # Bit-identical fast path for lag1_autocorr on a 0/1 indicator
        # vector: the vector's sum is an exact small integer, so its mean
        # is exact under any summation order, and the centered values take
        # only the two exact floats (1 - m) and (0 - m).  The two BLAS
        # dots — the only rounding-sensitive reductions — are performed
        # with the same np.dot call on contiguous float64 rows laid out
        # exactly as the scalar path builds them.
        full_sel = (rec_n[live] == Wa) & ~ejected_mask[live] & self._exact_lag1
        full = live[full_sel]
        if full.size:
            # All full rings at once, no BLAS at all.  With Wa a power of
            # two, m = hits/Wa is exact, the two centered values (1 - m)
            # and (0 - m) are exact, every pairwise product is an integer
            # multiple of 1/Wa^2, and every partial sum stays well under
            # 2^53 — so ANY summation order (including BLAS ddot) returns
            # the mathematically exact value.  Computing that exact value
            # from the closed form below is therefore bit-identical to the
            # scalar path's np.dot calls, and needs only pair counts —
            # which we read straight off the ring in *buffer* order: the
            # chronological adjacencies are the circular adjacencies minus
            # the one seam pair that straddles the write cursor.
            # full is strictly increasing, so spanning 0..size-1 means it
            # is exactly the active prefix — slice instead of row-gather.
            if int(full[0]) == 0 and int(full[-1]) == full.size - 1:
                buf = rec_buf[: full.size]
            else:
                buf = rec_buf[full]
            ind = buf > thr[full_sel][:, None]
            cnt = np.count_nonzero(ind, axis=1).astype(np.float64)
            m = cnt / Wa
            a = 1.0 - m
            b = 0.0 - m
            lo, hi = ind[:, :-1], ind[:, 1:]
            rows = np.arange(full.size)
            w_ = rec_w[full]
            seam_hi = ind[rows, w_]
            seam_lo = ind[rows, (w_ - 1) % Wa]
            wrap_hi, wrap_lo = ind[:, 0], ind[:, -1]
            # Two reductions cover all three pair counts: n11 directly,
            # n01 as the number of 0/1 transitions (XOR), n00 by remainder.
            n11 = (
                np.count_nonzero(lo & hi, axis=1)
                + (wrap_lo & wrap_hi)
                - (seam_lo & seam_hi)
            ).astype(np.float64)
            n01 = (
                np.count_nonzero(lo ^ hi, axis=1)
                + (wrap_lo ^ wrap_hi)
                - (seam_lo ^ seam_hi)
            ).astype(np.float64)
            n00 = (Wa - 1) - n11 - n01
            denom = cnt * (a * a) + (Wa - cnt) * (b * b)
            num = n11 * (a * a) + n01 * (a * b) + n00 * (b * b)
            pos = denom > 0.0
            rho = np.zeros(full.size)
            np.divide(num, denom, out=rho, where=pos)
            self._rho[full] = rho
            r = np.clip(rho, 0.0, 0.99)
            self._ess_num[full] = 1.0 - r
            self._ess_den[full] = 1.0 + r
        rest = live[~full_sel]
        for t, j in zip(np.flatnonzero(~full_sel).tolist(), rest.tolist()):
            if ejected_mask[j]:
                continue
            n = int(rec_n[j])
            if n < Wa:
                view = rec_buf[j, :n]
            else:
                p = int(rec_w[j])
                if p == 0:
                    view = rec_buf[j]
                else:
                    view = np.concatenate((rec_buf[j, p:], rec_buf[j, :p]))
            ind = view > thr[t]
            m = np.count_nonzero(ind) / n
            centered = np.where(ind, 1.0 - m, 0.0 - m)
            denom = float(dot(centered, centered))
            if denom <= 0.0:
                rho = 0.0
            else:
                rho = float(dot(centered[:-1], centered[1:])) / denom
            self._rho[j] = rho
            r = min(max(rho, 0.0), 0.99)
            self._ess_num[j] = 1.0 - r
            self._ess_den[j] = 1.0 + r

    # -- change points and ejection ------------------------------------------

    def _handle_changepoint(self, j: int, i: int, down: bool) -> None:
        """Vectorised mirror of ``QBETS.update``'s change-point branch.

        Rewrites key ``j``'s history segment in place (slots + compressed
        ranks), recounts its histogram row, and resets its recent ring
        and autocorrelation state. Every float is produced by the same IEEE
        operation the scalar branch applies per value (``slot * tick``,
        ``ceil(x / tick - 1e-9)``, comparisons, a sort), so the post-change
        state is bit-identical.
        """
        self._cps[j].append(i + 1)
        self._cp_touched[j] = True
        tick = self._tick
        min_history = int(self._min_history[j])
        keep = min(int(self._keep_base[j]), int(self._L[j]))
        seg_end = i + 1
        kept = self._slots_T[seg_end - keep : seg_end, j] * tick
        u = self._uniq[j, : self._U[j]]
        if down and kept.size >= 8:
            ceiling = kept[-(kept.size // 4) :].max()
            low = kept <= ceiling
            filtered = kept[low]
            if filtered.size < min_history:
                removed = np.sort(kept[~low])
                pad = removed[: min_history - filtered.size]
                filtered = np.concatenate((pad, filtered))
            kept = filtered
            limit = int(self._slots_limit[j])
            slots_f = np.ceil(kept / tick - 1e-9)
            over = np.flatnonzero(slots_f >= limit)
            if over.size:
                raise ValueError(
                    f"value {float(kept[over[0]])} exceeds tracker domain "
                    f"(max {(limit - 1) * tick})"
                )
            new_slots = slots_f.astype(np.int64)
            pos = np.searchsorted(u, new_slots)
            safe = np.minimum(pos, u.size - 1)
            if np.any(pos >= u.size) or np.any(u[safe] != new_slots):
                # Winsorisation re-quantised to a slot outside the key's
                # compressed alphabet (needs price values beyond ~$2e5 at
                # the default tick): hand the key to the scalar reference.
                self._eject(j, seg_end)
                return
            h = seg_end - kept.size
            self._slots_T[h:seg_end, j] = new_slots
            self._comp_T[h:seg_end, j] = pos
        else:
            h = seg_end - kept.size
        self._h0[j] = h
        self._L[j] = kept.size
        counts = np.bincount(
            self._comp_T[h:seg_end, j], minlength=self._nb * self._B
        )
        self._leaf[j] = counts
        self._block[j] = counts.reshape(self._nb, self._B).sum(axis=1)
        tail = kept[-self._Wa :]
        self._rec_n[j] = tail.size
        self._rec_w[j] = tail.size % self._Wa
        self._rec_buf[j, : tail.size] = tail
        self._rho[j] = 0.0
        self._ess_num[j] = 1.0
        self._ess_den[j] = 1.0
        self._upd[j] = 0

    def _eject(self, j: int, upto: int) -> None:
        """Replay key ``j``'s first ``upto`` observations through scalar QBETS.

        The replay is bit-identical by construction (same config, same
        values), so ejection at any column is invisible in the output; from
        here on the key advances scalarly inside the column loop.
        """
        k = self._order[j]
        qb = QBETS(self._cfg_for[k])
        x = self._prices_T[:upto, j]
        if self._need_bounds:
            self._out_T[:upto, j] = qb.bound_series(x)
        else:
            qb.scan(x)
        self._ejected[j] = qb
        self._ejected_mask[j] = True

    def _run_fallback(self) -> None:
        for j, k in enumerate(self._order.tolist()):
            qb = QBETS(self._cfg_for[k])
            x = self._series[k]
            if self._need_bounds:
                if x.size:
                    self._out_T[: x.size, j] = qb.bound_series(x)
            else:
                qb.scan(x)
            self._ejected[j] = qb
            self._ejected_mask[j] = True

    # -- results -------------------------------------------------------------

    def result(self) -> "UniverseFitResult":
        return UniverseFitResult(self)


class UniverseFitResult:
    """Read-only view over a finished :class:`UniverseFitter`.

    All accessors take the *original* key index (the position in the
    ``series`` sequence the fitter was constructed with).
    """

    def __init__(self, fitter: UniverseFitter) -> None:
        self._f = fitter

    @property
    def n_keys(self) -> int:
        return self._f._K

    @property
    def ejected_keys(self) -> list[int]:
        """Original indices of keys that ran on the scalar ejection path."""
        f = self._f
        return sorted(int(f._order[j]) for j in f._ejected)

    def length(self, k: int) -> int:
        return int(self._f._lengths[k])

    def qbets_config(self, k: int) -> QBETSConfig:
        return self._f._cfg_for[k]

    def bounds(self, k: int) -> np.ndarray:
        """Per-announcement bound series (``QBETS.bound_series`` parity)."""
        f = self._f
        if f._out_T is None:
            if f._lengths[k] == 0:
                return np.empty(0, dtype=np.float64)
            raise ValueError("bounds were not materialised (scan mode)")
        j = int(f._inv[k])
        return f._out_T[: f._lengths[k], j].copy()

    def final_bound(self, k: int) -> float:
        """Bound after the last observation (the ``qb.bound`` property)."""
        f = self._f
        j = int(f._inv[k])
        if j in f._ejected:
            return float(f._ejected[j].bound)
        return float(f._bound[j])

    def changepoints(self, k: int) -> list[int]:
        f = self._f
        j = int(f._inv[k])
        if j in f._ejected:
            return f._ejected[j].changepoints
        return list(f._cps[j])

    def qbets_state(self, k: int) -> dict:
        """``QBETS.state_dict``-format state for key ``k``.

        ``load_state_dict`` of this dict onto a fresh same-config ``QBETS``
        yields a predictor bit-identical to one that replayed the key's
        history scalarly — the live-handoff mechanism the service and the
        ``UniverseTicker`` consume.
        """
        f = self._f
        j = int(f._inv[k])
        if j in f._ejected:
            return f._ejected[j].state_dict()
        cfg = f._cfg_for[k]
        T_k = int(f._lengths[k])
        state = {
            "tracker": f._slots_T[f._h0[j] : T_k, j].astype(np.int64),
            "recent": f._rec_buf[j, : f._rec_n[j]].copy(),
            "recent_pos": int(
                f._rec_w[j] if f._rec_n[j] == f._Wa else 0
            ),
            "rho": float(f._rho[j]),
            "updates_since_rho": int(f._upd[j]),
            "bound": float(
                f._bound[j] if f._need_bounds else f._scan_final[j]
            ),
            "bound_stale": bool(not f._need_bounds and T_k > 0),
            "changepoints": list(f._cps[j]),
            "n_seen": T_k,
        }
        if cfg.changepoint:
            state["detector"] = {
                "up": {
                    "events": self._events(
                        f._up_events, f._up_len, f._up_head, j
                    )
                },
                "down": {
                    "events": self._events(
                        f._dn_events, f._dn_len, f._dn_head, j
                    )
                },
            }
        return state

    def _events(self, events, elen, ehead, j) -> list[bool]:
        f = self._f
        n = int(elen[j])
        if n < f._Wd:
            window = events[j, :n]
        else:
            h = int(ehead[j])
            if h == 0:
                window = events[j]
            else:
                window = np.concatenate((events[j, h:], events[j, :h]))
        return [bool(e) for e in window]


def fit_universe(
    series: Sequence[np.ndarray],
    configs: QBETSConfig | Sequence[QBETSConfig],
    *,
    need_bounds: bool = True,
    eject_after: dict[int, int] | None = None,
) -> UniverseFitResult:
    """Batch phase-1 fit: per-key bound series + change points + final state.

    Equivalent to ``QBETS(cfg).bound_series(x)`` per key, bit-identically,
    in one SoA pass over the whole universe. See :class:`UniverseFitter`.
    """
    return UniverseFitter(
        series, configs, need_bounds=need_bounds, eject_after=eject_after
    ).result()


def scan_universe(
    series: Sequence[np.ndarray],
    configs: QBETSConfig | Sequence[QBETSConfig],
) -> UniverseFitResult:
    """Batch counterpart of ``QBETS.scan``: change points without bounds.

    The AR(1) baseline consumes only the change-point segmentation; this
    skips the per-column order-statistic selection exactly as the scalar
    scan does.
    """
    return UniverseFitter(series, configs, need_bounds=False).result()


class _LazyDurationLadder:
    """Deferred :class:`DurationLadder` with an eager ``levels`` view.

    The frozen-replay driver only reads ``levels`` off a batch-fitted
    predictor (durations come from the ticker's own buffers), so the
    expensive exceedance index is built on the first *duration* query —
    which, on the backtest path, never comes. Scalar-path queries
    materialise it transparently and bit-identically.
    """

    def __init__(self, times, prices, levels) -> None:
        self._times = times
        self._prices = prices
        self._levels = levels
        self._real: DurationLadder | None = None

    @property
    def levels(self) -> np.ndarray:
        return self._levels

    def _materialise(self) -> DurationLadder:
        if self._real is None:
            self._real = DurationLadder(
                self._times, self._prices, self._levels
            )
        return self._real

    def __getattr__(self, name: str):
        return getattr(self._materialise(), name)


class DraftsUniverseFit:
    """Phase-1 artefacts for a universe of traces, DrAFTS-shaped.

    Produced by :func:`fit_drafts_universe`; hands each key's fitted state
    to whichever consumer asks: ``predictor(k)`` for the backtest/predcache
    path (``DraftsPredictor.from_phase1`` with a lazy ladder),
    ``online_snapshot(k)`` for the serving tier
    (``OnlineDraftsPredictor.from_snapshot``), and ``bounds``/
    ``final_bound``/``levels`` for the ticker's frozen ``add_key``.
    """

    def __init__(
        self,
        traces: Sequence,
        configs: Sequence[DraftsConfig],
        results: list[tuple[UniverseFitResult, int]],
    ) -> None:
        self._traces = list(traces)
        self._configs = list(configs)
        self._results = results
        self._levels: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def trace(self, k: int):
        return self._traces[k]

    def config(self, k: int) -> DraftsConfig:
        return self._configs[k]

    def bounds(self, k: int) -> np.ndarray:
        res, pos = self._results[k]
        return res.bounds(pos)

    def final_bound(self, k: int) -> float:
        res, pos = self._results[k]
        return res.final_bound(pos)

    def changepoints(self, k: int) -> np.ndarray:
        res, pos = self._results[k]
        return np.asarray(res.changepoints(pos), dtype=np.int64)

    def qbets_state(self, k: int) -> dict:
        res, pos = self._results[k]
        return res.qbets_state(pos)

    def levels(self, k: int) -> np.ndarray:
        """Bid-ladder levels — ``DraftsPredictor._build_ladder`` parity."""
        cached = self._levels.get(k)
        if cached is not None:
            return cached
        bounds = self.bounds(k)
        valid = bounds[~np.isnan(bounds)]
        candidates = np.concatenate([valid, [self.final_bound(k)]])
        candidates = candidates[~np.isnan(candidates)]
        trace = self._traces[k]
        if candidates.size == 0:
            lo = float(trace.prices.min())
            hi = float(trace.prices.max())
        else:
            lo = float(candidates.min())
            hi = float(candidates.max())
        levels = ladder_levels(lo, hi, self._configs[k])
        self._levels[k] = levels
        return levels

    def predictor(self, k: int) -> DraftsPredictor:
        """Batch-identical :class:`DraftsPredictor` with a lazy ladder."""
        trace = self._traces[k]
        return DraftsPredictor.from_phase1(
            trace,
            self._configs[k],
            bounds=self.bounds(k),
            final_bound=self.final_bound(k),
            changepoints=self.changepoints(k),
            ladder=_LazyDurationLadder(
                trace.times, trace.prices, self.levels(k)
            ),
        )

    def online_snapshot(self, k: int) -> dict:
        """``OnlineDraftsPredictor.to_snapshot``-format state for key ``k``.

        ``OnlineDraftsPredictor.from_snapshot`` of this dict equals an
        online predictor that consumed the trace one announcement at a
        time — the service's cold-start handoff.
        """
        import dataclasses

        trace = self._traces[k]
        bounds = self.bounds(k)
        valid = bounds[~np.isnan(bounds)]
        prices = trace.prices
        return {
            "config": dataclasses.asdict(self._configs[k]),
            "n": int(len(trace)),
            "times": trace.times.copy(),
            "prices": prices.copy(),
            "bounds": bounds,
            "bounds_lo": float(valid.min()) if valid.size else math.inf,
            "bounds_hi": float(valid.max()) if valid.size else -math.inf,
            "prices_lo": float(prices.min()) if prices.size else math.inf,
            "prices_hi": float(prices.max()) if prices.size else -math.inf,
            "qbets": self.qbets_state(k),
        }

    def online_predictor(self, k: int):
        from repro.core.online import OnlineDraftsPredictor

        return OnlineDraftsPredictor.from_snapshot(self.online_snapshot(k))


def fit_drafts_universe(
    traces: Sequence,
    configs: DraftsConfig | Sequence[DraftsConfig],
    *,
    eject_after: dict[int, int] | None = None,
) -> DraftsUniverseFit:
    """Batch the DrAFTS phase-1 fit for a whole universe of traces.

    ``configs`` is one shared :class:`DraftsConfig` or one per trace. Keys
    that differ only in ladder domain or probability level (``max_value``,
    ``q``, ``c``) share one batch pass; keys whose QBETS configurations
    differ in any other field are grouped and fitted in one pass per
    group, so callers need not pre-partition.
    """
    n = len(traces)
    if isinstance(configs, DraftsConfig):
        cfg_list = [configs] * n
    else:
        cfg_list = list(configs)
    if len(cfg_list) != n:
        raise ValueError(f"{len(cfg_list)} configs for {n} traces")
    qcfgs = [c.qbets_config() for c in cfg_list]
    groups: dict[QBETSConfig, list[int]] = {}
    for idx, qc in enumerate(qcfgs):
        groups.setdefault(_lockstep_config(qc), []).append(idx)
    results: list[tuple[UniverseFitResult, int] | None] = [None] * n
    for members in groups.values():
        ejects = None
        if eject_after:
            ejects = {
                pos: eject_after[k]
                for pos, k in enumerate(members)
                if k in eject_after
            } or None
        res = fit_universe(
            [traces[k].prices for k in members],
            [qcfgs[k] for k in members],
            eject_after=ejects,
        )
        for pos, k in enumerate(members):
            results[k] = (res, pos)
    return DraftsUniverseFit(traces, cfg_list, results)
