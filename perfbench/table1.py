"""The ``table1-bench`` workload: the bench-preset Table 1 backtest matrix.

Each repetition runs in a fresh interpreter (this file as a script), so
the predictor cache, the AR(1) prefit cache and the binomial index
tables start cold, as they do for a user running the experiment. The
child synthesises the bench universe and its traces (set-up), then times
(wall and CPU) ``backtest_matrix(scale="bench", workers=0)`` — 18
combinations x 4 strategies x 100 requests at p = 0.99 — and prints one
JSON line with the
timings, its peak RSS, a digest of every (combination, strategy) cell
and the DrAFTS guarantee check.

The inputs are the preset's fixed universe, so the cell digests can be
compared with ``table1_reference.json``; ``--seed`` does not change them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "table1_reference.json"
SCALE = "bench"
PROBABILITY = 0.99
#: Significance of the exact binomial test behind ``guarantee_misses``
#: (the paper's section 4.1.1 standard).
ALPHA = 0.01


def cell_digest(result) -> str:
    """A digest of one cell's every outcome, floats at full precision."""
    payload = repr(
        (
            result.combo_key,
            result.strategy,
            result.volatility_class,
            [
                (o.t_idx, o.start, o.duration, o.bid, o.survived)
                for o in result.outcomes
            ],
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def guarantee_misses(results, probability: float) -> int:
    """DrAFTS cells below ``probability`` and inconsistent with it."""
    from repro.backtest.validation import assess_fraction

    return sum(
        1
        for r in results
        if r.strategy == "drafts"
        and r.success_fraction < probability
        and not assess_fraction(r.successes, r.n, probability).consistent_with_target(
            alpha=ALPHA
        )
    )


def child_main(trace: bool, spawned_at: float, setup_only: bool) -> None:
    """One repetition (runs in the fresh interpreter); with ``setup_only``
    it stops after set-up."""
    import resource

    recorder = None
    if trace:
        from tracing import SpanRecorder, install_backtest_spans

        recorder = SpanRecorder()
        install_backtest_spans(recorder)
    from repro.experiments.common import scaled_combos, scaled_universe
    from repro.experiments.parallel import backtest_matrix

    universe = scaled_universe(SCALE)
    for combo in scaled_combos(SCALE):
        universe.trace(combo)
    # Interpreter start-up (before this module ran) counts as set-up too.
    setup_wall_s = time.time() - spawned_at
    setup_s = time.process_time()
    if setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return
    start, cpu_start = time.perf_counter(), time.process_time()
    results = backtest_matrix(scale=SCALE, probability=PROBABILITY, workers=0)
    backtest_s = time.perf_counter() - start
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "backtest_s": backtest_s,
        "backtest_cpu_s": time.process_time() - cpu_start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": {f"{r.combo_key}/{r.strategy}": cell_digest(r) for r in results},
        "requests": sum(r.n for r in results),
        "guarantee_misses": guarantee_misses(results, PROBABILITY),
        "spans": recorder.summary() if recorder is not None else None,
    }
    print(json.dumps(out))


def run_once(trace: bool, setup_only: bool = False, timeout: float = 170.0) -> dict:
    """Run one repetition in a fresh interpreter and return its report
    (only ``setup_s`` with ``setup_only``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "table1.py"),
            "--child",
            "--trace",
            "1" if trace else "0",
            "--spawned-at",
            repr(time.time()),
        ]
        + (["--setup-only"] if setup_only else []),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"table1 child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mismatched_cells(cells: dict) -> int:
    """Cells whose digest differs from the recorded reference (a missing
    or extra cell counts as a mismatch)."""
    reference = json.loads(REFERENCE.read_text())["cells"]
    keys = set(reference) | set(cells)
    return sum(1 for k in keys if reference.get(k) != cells.get(k))


if __name__ == "__main__":
    if "--child" in sys.argv:
        trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
        spawned = float(sys.argv[sys.argv.index("--spawned-at") + 1])
        child_main(trace, spawned, "--setup-only" in sys.argv)
    elif "--record" in sys.argv:
        # Re-record the reference digests (only when the backtest's output
        # is meant to change).
        report = run_once(trace=False)
        REFERENCE.write_text(
            json.dumps(
                {
                    "scale": SCALE,
                    "probability": PROBABILITY,
                    "cells": report["cells"],
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        sys.exit("usage: table1.py --record (the benchmark runs it as --child)")
