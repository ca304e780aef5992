"""Benchmark: the universe-wide batched phase-1 fit vs the scalar loop.

Every sweep (Table 1/4/5, the serving tier's cold boot) starts by fitting
phase 1 — the QBETS bound series, change-point decisions and bid-ladder
construction over each combination's full price history. The scalar path
constructs one :class:`~repro.core.drafts.DraftsPredictor` per combination,
replaying each history through per-key Python update chains;
:func:`~repro.core.universe_fit.fit_drafts_universe` holds every key's
quantile-tracker, detector and recent-window state as structure-of-arrays
and sweeps the whole (keys x epochs) price matrix one epoch column at a
time.

Acceptance, verified here at the full study-universe width (452 keys, one
bench-scale history each):

1. the batch fit plus per-key predictor handoff is >= 5x faster than the
   scalar per-key construction loop (best-of-rounds on both sides — this
   1-vCPU box has a heavy scheduler-noise tail, so the minimum is the
   honest estimator of compute cost; the batch-plus-materialised-ladders
   time is recorded alongside in ``extra_info``);
2. the handed-off predictors are bit-identical to the scalar fits: bound
   series, final bounds, change points, ladder levels, and sampled
   ``bid_for`` queries — the speed is a pure optimisation, never a
   numerical shortcut;
3. two probability levels (the service's default 0.95 and 0.99) fit in
   one call — one column sweep carrying per-key quantiles — faster than
   the two per-level fits it replaces, and bit-identical to them.
   ``two_level_ratio`` (fused over per-level sum, best-of-rounds) is
   recorded in ``extra_info``; only ``< 1.0`` is gated, since the saving
   is the per-column overhead, whose share shrinks as the key count grows.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
import pytest

from repro.core.drafts import DraftsConfig, DraftsPredictor
from repro.core.universe_fit import fit_drafts_universe
from repro.market.synthetic import VOLATILITY_CLASSES, synthetic_trace

#: The full study universe: every (type, zone) combination the paper's
#: DrAFTS deployment tracked, at one probability level.
N_KEYS = 452
#: History length per key (the bench scale; paper scale is ~43k epochs).
N_EPOCHS = 2200
#: Timing rounds per side; the minimum over rounds gates.
BATCH_ROUNDS = 3
SCALAR_ROUNDS = 2
#: Bid queries for the post-run equivalence sweep (one unsatisfiable).
DURATIONS = (1800.0, 3600.0, 6 * 3600.0, 86400.0, 1e12)
#: The gate: batch fit at least this many times faster than scalar.
MIN_SPEEDUP = 5.0

CONFIG = DraftsConfig(probability=0.95)
#: The two-level case: the serving tier's default published levels.
LEVELS = (0.95, 0.99)


def _nan_eq(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.fixture(scope="module")
def traces():
    classes = list(VOLATILITY_CLASSES)
    return [
        synthetic_trace(
            classes[i % len(classes)], seed=900 + i, n_epochs=N_EPOCHS
        )
        for i in range(N_KEYS)
    ]


@pytest.fixture(scope="module")
def fit_results(traces):

    def batch_once():
        start = time.perf_counter()
        fit = fit_drafts_universe(traces, CONFIG)
        preds = [fit.predictor(k) for k in range(N_KEYS)]
        return time.perf_counter() - start, preds

    def scalar_once():
        start = time.perf_counter()
        preds = [DraftsPredictor(trace, CONFIG) for trace in traces]
        return time.perf_counter() - start, preds

    batch_s: list[float] = []
    scalar_s: list[float] = []
    preds = refs = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(BATCH_ROUNDS):
            elapsed, preds = batch_once()
            batch_s.append(elapsed)
        # Honesty check: the backtest driver only reads ``levels`` off a
        # batch predictor, so its ladder is lazy — time the full
        # materialisation too, so the recorded numbers cover the scalar
        # query path as well.
        start = time.perf_counter()
        for pred in preds:
            pred._ladder.n_samples
        materialise_s = time.perf_counter() - start
        for _ in range(SCALAR_ROUNDS):
            elapsed, refs = scalar_once()
            scalar_s.append(elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()

    mismatches: list[str] = []
    for k in range(N_KEYS):
        ref, pred = refs[k], preds[k]
        if not np.array_equal(ref._bounds, pred._bounds, equal_nan=True):
            mismatches.append(f"key {k}: bound series")
        if not _nan_eq(ref._final_bound, pred._final_bound):
            mismatches.append(f"key {k}: final bound")
        if list(ref.changepoints) != list(pred.changepoints):
            mismatches.append(f"key {k}: change points")
        if not np.array_equal(
            np.asarray(ref._ladder.levels), np.asarray(pred._ladder.levels)
        ):
            mismatches.append(f"key {k}: ladder levels")
    for k in range(0, N_KEYS, 37):  # sampled keys, every duration
        for t_idx in (N_EPOCHS // 2, N_EPOCHS - 1):
            for duration in DURATIONS:
                if not _nan_eq(
                    refs[k].bid_for(duration, t_idx),
                    preds[k].bid_for(duration, t_idx),
                ):
                    mismatches.append(
                        f"key {k}: bid_for({duration}, {t_idx})"
                    )

    return {
        "n_keys": N_KEYS,
        "n_epochs": N_EPOCHS,
        "batch_best_s": min(batch_s),
        "batch_materialise_s": min(batch_s) + materialise_s,
        "scalar_best_s": min(scalar_s),
        "speedup": min(scalar_s) / min(batch_s),
        "mismatches": mismatches,
    }


def test_batch_fit_beats_scalar_5x(benchmark, fit_results):
    def report():
        return fit_results

    results = benchmark.pedantic(report, rounds=1, iterations=1)
    benchmark.extra_info["n_keys"] = results["n_keys"]
    benchmark.extra_info["n_epochs"] = results["n_epochs"]
    benchmark.extra_info["batch_best_s"] = round(results["batch_best_s"], 3)
    benchmark.extra_info["batch_materialise_s"] = round(
        results["batch_materialise_s"], 3
    )
    benchmark.extra_info["scalar_best_s"] = round(results["scalar_best_s"], 3)
    benchmark.extra_info["speedup"] = round(results["speedup"], 2)
    # Acceptance (1): >= 5x over the scalar per-key construction loop.
    assert results["speedup"] >= MIN_SPEEDUP, (
        f"batched fit only {results['speedup']:.2f}x faster than the "
        f"scalar loop ({results['batch_best_s']:.2f} s vs "
        f"{results['scalar_best_s']:.2f} s best-of-rounds at "
        f"{results['n_keys']} keys x {results['n_epochs']} epochs)"
    )


def test_fit_output_is_bit_identical_to_scalar(fit_results):
    # Acceptance (2): same bounds, change points, ladders and bids,
    # to the bit.
    assert fit_results["mismatches"] == []


@pytest.fixture(scope="module")
def two_level_results(traces):
    configs = [DraftsConfig(probability=p) for p in LEVELS]
    fused_traces = list(traces) * len(configs)
    fused_configs = [c for c in configs for _ in traces]

    def fused_once():
        start = time.perf_counter()
        fit = fit_drafts_universe(fused_traces, fused_configs)
        return time.perf_counter() - start, fit

    def split_once():
        start = time.perf_counter()
        fits = [fit_drafts_universe(traces, c) for c in configs]
        return time.perf_counter() - start, fits

    fused_s: list[float] = []
    split_s: list[float] = []
    fused = split = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Interleaved rounds, so drift on a shared host hits both sides.
        for _ in range(BATCH_ROUNDS):
            elapsed, split = split_once()
            split_s.append(elapsed)
            elapsed, fused = fused_once()
            fused_s.append(elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()

    mismatches: list[str] = []
    for li, level_fit in enumerate(split):
        for k in range(N_KEYS):
            f = li * N_KEYS + k
            label = f"p={LEVELS[li]} key {k}"
            if not np.array_equal(
                level_fit.bounds(k), fused.bounds(f), equal_nan=True
            ):
                mismatches.append(f"{label}: bound series")
            if not _nan_eq(level_fit.final_bound(k), fused.final_bound(f)):
                mismatches.append(f"{label}: final bound")
            if not np.array_equal(
                level_fit.changepoints(k), fused.changepoints(f)
            ):
                mismatches.append(f"{label}: change points")
            if not np.array_equal(level_fit.levels(k), fused.levels(f)):
                mismatches.append(f"{label}: ladder levels")

    return {
        "fused_best_s": min(fused_s),
        "split_best_s": min(split_s),
        "two_level_ratio": min(fused_s) / min(split_s),
        "mismatches": mismatches,
    }


def test_two_levels_fit_in_one_sweep(benchmark, two_level_results):
    def report():
        return two_level_results

    results = benchmark.pedantic(report, rounds=1, iterations=1)
    benchmark.extra_info["levels"] = list(LEVELS)
    benchmark.extra_info["fused_best_s"] = round(results["fused_best_s"], 3)
    benchmark.extra_info["split_best_s"] = round(results["split_best_s"], 3)
    benchmark.extra_info["two_level_ratio"] = round(
        results["two_level_ratio"], 3
    )
    # Acceptance (3): same floats as the per-level fits, in less time.
    assert results["mismatches"] == []
    assert results["two_level_ratio"] < 1.0, (
        f"one two-level sweep ({results['fused_best_s']:.2f} s) is not "
        f"faster than two per-level sweeps "
        f"({results['split_best_s']:.2f} s) at {N_KEYS} keys"
    )
