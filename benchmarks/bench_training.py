"""Training bench: the learning core serial vs tuned.

PR 4 rewrote the classification stages' hot loops — CART split search,
tree prediction, feature embedding — as whole-matrix numpy passes, and
fanned forest trees, CV folds, and feature extraction out over process
pools.  The worker counts are throughput knobs bound by the determinism
contract (DESIGN.md §10): they never change an output byte.

This bench runs the same default-scale world through two legs:

* ``vectorized-serial`` — the production code, all workers 1;
* ``vectorized-tuned``  — the production code with ``train_workers`` and
  ``extract_workers`` at ``min(4, cpu_count)``.

It asserts byte-identical CV reports, flagged detections, and verified
domains across both, and reports the tuned leg's speedup on the train +
classify stages.  (The reference twins of the learning core are unit-test
oracles only; ``tests/test_ml_models.py`` and friends hold them
byte-identical to the vectorized paths.)  A ``BENCH_training.json``
summary is written for the perf trajectory; CI runs the smoke scale and
archives the JSON as an artifact.

Environment knobs (the ``__main__`` flags override them, for CI):
    TRAINING_BENCH_SCALE  "default" (400-squat world) or "smoke" (tiny
                          world).
    TRAINING_BENCH_OUT    summary path (default: BENCH_training.json).
"""

import json
import os
import time

from repro.analysis.render import table
from repro.core import PipelineConfig, SquatPhi
from repro.phishworld.world import WorldConfig, build_world
from repro.stages import digest_cv_reports, digest_detections

from exhibits import print_exhibit

SCALE = os.environ.get("TRAINING_BENCH_SCALE", "default")
OUT_PATH = os.environ.get("TRAINING_BENCH_OUT", "BENCH_training.json")

TUNED_WORKERS = min(4, os.cpu_count() or 1)

# the learning stages whose time the legs compare
LEARNING_STAGES = ("train", "classify")


def _scale_params(scale):
    if scale == "smoke":
        return (
            dict(n_organic_domains=80, n_squat_domains=80,
                 n_phish_domains=8, phishtank_reports=30),
            dict(cv_folds=3, rf_trees=8),
        )
    return (
        dict(n_organic_domains=400, n_squat_domains=400,
             n_phish_domains=33, phishtank_reports=133),
        dict(cv_folds=5, rf_trees=20),
    )


def _run_leg(label, world_params, model_params, workers):
    """One full pipeline run on a fresh world; returns the summary row."""
    world = build_world(WorldConfig(seed=1803, **world_params))
    pipeline = SquatPhi(world, PipelineConfig(
        train_workers=workers,
        extract_workers=workers,
        **model_params,
    ))
    started = time.perf_counter()
    result = pipeline.run(follow_up_snapshots=False)
    elapsed = time.perf_counter() - started
    perf = pipeline.perf
    learning = sum(perf.stage_seconds[s] for s in LEARNING_STAGES)
    return {
        "leg": label,
        "workers": workers,
        "seconds": round(elapsed, 3),
        "learning_seconds": round(learning, 3),
        "stage_seconds": {k: round(v, 3)
                          for k, v in sorted(perf.stage_seconds.items())},
        "pages_extracted": perf.pages_extracted,
        "extract_pages_per_second": round(perf.extract_pages_per_second, 2),
        "trees_fitted": perf.trees_fitted,
        "folds_fitted": perf.folds_fitted,
        "cv_digest": digest_cv_reports(result.cv_reports),
        "flagged_digest": digest_detections(result.flagged),
        "crawl_digest": result.crawl_snapshots[0].digest(),
        "verified_domains": result.verified_domains(),
        "cv_rows": {name: report.row()
                    for name, report in sorted(result.cv_reports.items())},
    }


def run_bench(scale=SCALE, out_path=OUT_PATH):
    world_params, model_params = _scale_params(scale)
    rows = [
        _run_leg("vectorized-serial", world_params, model_params, workers=1),
        _run_leg("vectorized-tuned", world_params, model_params,
                 workers=TUNED_WORKERS),
    ]

    print_exhibit(
        "Training bench - learning-core legs (identical outputs)",
        table(
            ["leg", "workers", "learn s", "total s", "extract pages/s"],
            [[r["leg"], r["workers"], f"{r['learning_seconds']:.2f}",
              f"{r['seconds']:.2f}", f"{r['extract_pages_per_second']:.1f}"]
             for r in rows],
        ),
    )

    serial, tuned = rows
    speedup = serial["learning_seconds"] / max(tuned["learning_seconds"],
                                               1e-9)
    summary = {
        "bench": "training",
        "scale": scale,
        "world": world_params,
        "model": model_params,
        "tuned_workers": TUNED_WORKERS,
        "runs": rows,
        "speedup_tuned_vs_serial": round(speedup, 3),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    print(f"\nwrote {out_path} (tuned speedup: {speedup:.2f}x)")

    # determinism contract: worker counts are throughput knobs — both
    # legs must produce identical bytes
    for digest in ("cv_digest", "flagged_digest", "crawl_digest"):
        assert serial[digest] == tuned[digest], \
            f"{digest} diverged across training-bench legs"
    assert serial["verified_domains"] == tuned["verified_domains"], \
        "verified domains diverged across training-bench legs"
    assert serial["cv_rows"] == tuned["cv_rows"]
    return summary


def test_training_bench():
    run_bench()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world")
    parser.add_argument("--out", default=None, help="summary JSON path")
    cli = parser.parse_args()
    run_bench(scale="smoke" if cli.smoke else SCALE,
              out_path=cli.out or OUT_PATH)
