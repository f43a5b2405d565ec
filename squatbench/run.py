"""SquatPhi benchmark: one command, four workloads, one JSON line.

Run from the root of a checkout::

    python3 squatbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``peak_rss_mb``, ``run_s``, ``items_per_s``, ``p50_ms``); ``--trace 1``
makes a separate traced run that prints the per-layer metrics.  The
last line of standard output is the result object; the lines above it
name every figure with its unit and sample count.  An output that
disagrees with its oracle exits 1 without a result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
STAGES = ("pack", "scan", "enrich", "crawl", "ground_truth", "train",
          "classify", "verify", "follow_ups", "evasion")
LAYERS = ("core", "squatting", "dns", "serve", "stream", "stages",
          "phishworld", "web", "features", "ocr", "ml", "enrich")


def host_calib_ms() -> float:
    """Median of five runs of a fixed pure-Python loop (diagnostic only:
    it is recorded so a slow host can be told from a slow program, and
    never scales a metric)."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile that refuses to report a percentile with
    fewer than ten samples beyond it."""
    data = sorted(values)
    rank = max(1, -(-int(round(p * len(data))) // 100))
    if len(data) - rank < 10:
        raise ValueError(f"p{p} of {len(data)} samples has fewer than ten "
                         f"samples beyond it")
    return data[rank - 1]


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: int, trace: bool,
        scratch: Path) -> Dict[str, object]:
    import_started = time.perf_counter()
    import numpy  # noqa: F401  (program dependency: part of set-up)
    from workloads import WORKLOADS, OpResult  # noqa: F401
    cls = WORKLOADS[workload_name]
    for module in cls.IMPORTS:
        importlib.import_module(module)
    import_s = time.perf_counter() - import_started

    calib_before = host_calib_ms()
    workload = cls(seed, seconds, scratch)
    workload.synthesize()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        workload.span = tracer.call

    gc.collect()
    setups = [workload.setup(rep) for rep in range(SETUP_REPS)]
    setup_s = import_s + statistics.median(setups)
    if tracer is not None:
        tracer.enabled = False
    workload.warmup()
    # the inputs and set-up state live for the whole run: move them out
    # of the collector's generations so collections in the timed region
    # scan only what the ops allocate
    gc.collect()
    gc.freeze()

    results: List[OpResult] = []
    traced_ops, plain_ops = set(), []
    kernel = None
    failed_ops = 0
    for index in range(workload.n_ops()):
        op_id = index + 1
        traced = tracer is not None and index % 2 == 1
        if traced:
            from tracer import kernel_delta
            tracer.op = op_id
            tracer.enabled = True
            before = tracer.kernel_snapshot()
            root = tracer.open(f"workload.{workload_name}")
        try:
            result = workload.op(index)
        except Exception as exc:        # counted, and the run goes on
            print(f"op {index} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed_ops += 1
            result = None
        finally:
            if traced:
                tracer.close(root)
                tracer.enabled = False
        if result is None:
            continue
        result.extra["traced"] = traced
        results.append(result)
        if traced:
            traced_ops.add(op_id)
            delta = kernel_delta(tracer, before)
            if kernel is None:
                kernel = delta
            else:
                kernel.merge(delta)
        else:
            plain_ops.append(result)
    calib_after = host_calib_ms()
    if tracer is not None:
        tracer.uninstall()

    workload.check(results)

    # an op that raised counts as one failed operation
    attempted = sum(r.items + r.failed for r in results) + failed_ops
    failed = sum(r.failed for r in results) + failed_ops
    plain = plain_ops if plain_ops else results
    counts = results[0].counts if results else {}
    out: Dict[str, object] = {
        "attempted": attempted, "failed": failed,
        "counts": {k: v for k, v in counts.items()
                   if isinstance(v, (int, str))},
        "host.calib_ms": (calib_before + calib_after) / 2.0,
        "host.calib_before_ms": calib_before,
        "host.calib_after_ms": calib_after,
    }
    busy = sum(r.seconds for r in plain)
    latencies = [lat for r in plain for lat in r.latencies]
    out["e2e"] = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "run_s": statistics.median(r.seconds for r in plain),
        "items_per_s": sum(r.items for r in plain) / busy,
        "p50_ms": statistics.median(latencies) * 1000.0,
    }
    out["samples"] = {"ops": len(plain), "latencies": len(latencies),
                      "op_s": [round(r.seconds, 4) for r in plain],
                      "setup_reps": [round(s, 4) for s in setups],
                      "import_s": round(import_s, 4)}
    out["tails"] = tail_latencies(workload_name, latencies)
    out["failed_share"] = share(failed, attempted)
    if tracer is not None:
        out["layers"] = layer_metrics(workload, tracer, results, plain,
                                      traced_ops, kernel)
        out["layers"]["host.calib_ms"] = out["host.calib_ms"]
    return out


def tail_latencies(workload_name: str, latencies: List[float]):
    """The serve/stream tail percentile, with its sample count."""
    ladder = {"serve": (99,), "stream": (90,)}.get(workload_name, ())
    return {f"p{p}_ms": (percentile(latencies, p) * 1000.0, len(latencies))
            for p in ladder}


# ----------------------------------------------------------------------
def layer_metrics(workload, tracer, results, plain, traced_ops,
                  kernel) -> Dict[str, float]:
    from tracer import span_times, unattributed
    n_traced = max(len(traced_ops), 1)
    setup_total, setup_self, _ = span_times(tracer.spans, {0})
    run_total, run_self, run_calls = span_times(tracer.spans, traced_ops)

    def seconds(name: str, own: bool = False) -> float:
        """A span's time in one set-up plus one operation."""
        if own:
            return setup_self.get(name, 0.0) / SETUP_REPS + \
                run_self.get(name, 0.0) / n_traced
        return setup_total.get(name, 0.0) / SETUP_REPS + \
            run_total.get(name, 0.0) / n_traced

    m: Dict[str, float] = {
        "squatting.detector_build_s": seconds("squatting.detector_build"),
        "squatting.matrices_build_s": seconds("squatting.matrices_build"),
        "squatting.scan_s": seconds("squatting.scan", own=True),
        "squatting.classify_batch_s": seconds("squatting.classify_batch"),
        "dns.pack_s": seconds("dns.pack"),
        "dns.load_s": seconds("dns.load"),
        "dns.registered_ids_s": seconds("dns.registered_ids"),
        "dns.compact_s": seconds("dns.compact"),
        "stages.runner_s": seconds("stages.runner", own=True),
        "stages.store_puts": run_calls.get("stages.store_put", 0) / n_traced,
        "phishworld.build_world_s": seconds("phishworld.build_world"),
        "phishworld.build_tape_s": seconds("phishworld.build_tape"),
        "web.crawl_s": seconds("web.crawl"),
        "features.extract_s": seconds("features.extract"),
        "ocr.recognize_s": seconds("ocr.recognize"),
        "ml.train_s": seconds("ml.train"),
        "enrich.s": seconds("enrich.resolve"),
    }
    for stage in STAGES:
        m[f"core.stage_s.{stage}"] = seconds(f"core.stage.{stage}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            seconds(name, own=True)
            for name in set(setup_self) | set(run_self)
            if name.split(".", 1)[0] == layer)

    rows = kernel.rows if kernel is not None else 0
    m["squatting.rows"] = rows / n_traced
    m["squatting.survivor_share"] = share(kernel.survivors, rows) \
        if kernel else 0.0
    m["squatting.fast_hit_share"] = share(kernel.fast_hits, rows) \
        if kernel else 0.0
    m["squatting.fallback_share"] = kernel.fallback_rate if kernel else 0.0

    for name in ("dns.bytes_written", "stages.store_bytes", "web.pages",
                 "features.pages", "features.render_hit_share",
                 "features.feature_hit_share", "features.spell_hit_share",
                 "ml.trees", "ml.folds", "enrich.lookups"):
        m[name] = 0.0
    m.update(workload.layer_counters(results))
    m.update(serve_stream_metrics(workload.name, plain))

    wall, loose = unattributed(tracer.spans, traced_ops)
    traced = [r.seconds for r in results if r.extra.get("traced")]
    m["trace.overhead_share"] = statistics.median(traced) / \
        statistics.median(r.seconds for r in plain) - 1.0
    m["trace.unattributed_share"] = share(loose, wall)
    return m


def serve_stream_metrics(name: str, plain) -> Dict[str, float]:
    """Queueing figures from the untraced ops' virtual-time replays."""
    out = {k: 0.0 for k in (
        "serve.batches", "serve.batch_size_mean", "serve.negcache_hit_share",
        "serve.busy_s", "serve.utilisation", "serve.queue_wait_p50_ms",
        "serve.queue_wait_p99_ms", "serve.p50_ms", "serve.p99_ms",
        "stream.segments", "stream.segment_p50_ms",
        "stream.compaction_p50_ms", "stream.compaction_max_ms",
        "stream.queue_wait_p90_ms", "stream.backlog_max_segments",
        "stream.digest_checks", "stream.publish_p50_ms", "stream.p50_ms",
        "stream.p90_ms")}
    latencies = [lat for r in plain for lat in r.latencies]
    if name == "serve":
        counts = plain[0].counts
        waits = [w for r in plain for w in r.extra["waits"]]
        busy = sum(r.extra["busy"] for r in plain)
        out.update({
            "serve.batches": counts["batches"],
            "serve.batch_size_mean": counts["queries"] / counts["batches"],
            "serve.negcache_hit_share": counts["negcache_hits"]
            / counts["queries"],
            "serve.busy_s": busy / len(plain),
            "serve.utilisation": busy / sum(r.extra["span"] for r in plain),
            "serve.queue_wait_p50_ms": statistics.median(waits) * 1000.0,
            "serve.queue_wait_p99_ms": percentile(waits, 99) * 1000.0,
            "serve.p50_ms": statistics.median(latencies) * 1000.0,
            "serve.p99_ms": percentile(latencies, 99) * 1000.0,
        })
    elif name == "stream":
        counts = plain[0].counts
        services = [s for r in plain for s in r.extra["services"]]
        comps = [c for r in plain for c in r.extra["compactions"]]
        waits = [w for r in plain for w in r.extra["waits"]]
        out.update({
            "stream.segments": counts["segments"],
            "stream.segment_p50_ms": statistics.median(services) * 1000.0,
            "stream.compaction_p50_ms": statistics.median(comps) * 1000.0,
            "stream.compaction_max_ms": max(comps) * 1000.0,
            "stream.queue_wait_p90_ms": percentile(waits, 90) * 1000.0,
            "stream.backlog_max_segments": max(r.extra["backlog"]
                                               for r in plain),
            "stream.digest_checks": counts["digest_checks"],
            "stream.publish_p50_ms": statistics.median(
                p for r in plain for p in r.extra["publishes"]) * 1000.0,
            "stream.p50_ms": statistics.median(latencies) * 1000.0,
            "stream.p90_ms": percentile(latencies, 90) * 1000.0,
            "dns.bytes_written": plain[0].extra["bytes_written"],
            "stages.store_bytes": plain[0].extra["store_bytes"],
        })
    return out


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "scan", "serve", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    scratch = ROOT / ".bench_build" / f"squatbench-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)     # program temp files stay inside
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  scratch)
    except Exception as exc:
        from workloads import CheckFailed
        if isinstance(exc, CheckFailed):
            print(f"error: output check failed: {exc}", file=sys.stderr)
            return 1
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report(args.workload, out, bool(args.trace))
    return 0


def report(workload: str, out: Dict[str, object], trace: bool) -> None:
    units = {"setup_s": "s", "peak_rss_mb": "MB", "run_s": "s",
             "items_per_s": "1/s", "p50_ms": "ms"}
    samples = out["samples"]
    print(f"workload {workload}: ops={samples['ops']} "
          f"latency_samples={samples['latencies']} "
          f"import_s={samples['import_s']} "
          f"setup_reps={samples['setup_reps']} counts="
          + json.dumps(out["counts"], sort_keys=True))
    print(f"  op_s = {samples['op_s']}")
    for name, value in out["e2e"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, (value, n) in out["tails"].items():
        print(f"  {name} = {value:.6g} ms (n={n})")
    print(f"  failed_share = {out['failed_share']:.6g} 1 "
          f"({out['failed']}/{out['attempted']})")
    print(f"  host.calib_ms = {out['host.calib_ms']:.6g} ms (before "
          f"{out['host.calib_before_ms']:.4g}, after "
          f"{out['host.calib_after_ms']:.4g}; diagnostic only)")
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in sorted(out["layers"].items())}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in out["e2e"].items()}
    print(json.dumps({"correct": True, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name == "enrich.s" or \
            name.startswith("core.stage_s."):
        return "s"
    if name.endswith("_share") or name == "serve.utilisation":
        return "1"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
