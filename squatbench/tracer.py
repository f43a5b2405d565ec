"""In-memory span tracer installed around the program's public functions.

The traced run wraps a fixed list of public functions and methods of the
``repro`` package (see :data:`TARGETS`).  Each call records a span —
name, start, end, parent span, operation id — into a list that stays in
memory until the run ends.  Spans nest as workload op -> pipeline stage
-> layer -> kernel, because every wrapper pushes onto one stack (the
benchmark runs every pool at one worker, so there is one thread).

Nothing here changes what the program computes: wrappers call straight
through and are removed by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# (module, attribute path, span name).  A dotted attribute path names a
# method on a class; a bare name is a module-level function, which is
# also replaced wherever another ``repro`` module imported it by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.pipeline", "SquatPhi.__init__", "core.init"),
    ("repro.core.pipeline", "SquatPhi.run", "core.run"),
    ("repro.stream.driver", "StreamingDriver.run", "stream.run"),
    ("repro.squatting.detector", "SquattingDetector.__init__",
     "squatting.detector_build"),
    ("repro.squatting.packedscan", "detector_matrices",
     "squatting.matrices_build"),
    ("repro.squatting.packedscan", "packed_scan", "squatting.scan"),
    ("repro.squatting.packedscan", "PackedScanContext.classify_batch",
     "squatting.classify_batch"),
    ("repro.dns.packedzone", "PackedZoneBuilder.build", "dns.pack"),
    ("repro.dns.packedzone", "pack_zone", "dns.pack"),
    ("repro.dns.packedzone", "PackedZone.save", "dns.pack"),
    ("repro.dns.packedzone", "PackedZone.load", "dns.load"),
    ("repro.dns.packedzone", "PackedZone.registered_ids",
     "dns.registered_ids"),
    ("repro.dns.deltazone", "compact", "dns.compact"),
    ("repro.serve.engine", "QueryEngine.lookup_batch", "serve.lookup_batch"),
    ("repro.serve.batcher", "plan_batches", "serve.plan_batches"),
    ("repro.stages.runner", "StageRunner.run", "stages.runner"),
    ("repro.stages.store", "ArtifactStore.put", "stages.store_put"),
    ("repro.serve.publisher", "SnapshotPublisher.publish",
     "stream.publish"),
    ("repro.serve.publisher", "SnapshotPublisher.publish_delta",
     "stream.publish_delta"),
    ("repro.phishworld.world", "build_world", "phishworld.build_world"),
    ("repro.phishworld.events", "build_tape", "phishworld.build_tape"),
    ("repro.web.crawler", "DistributedCrawler.crawl", "web.crawl"),
    ("repro.features.extraction", "FeatureExtractor.extract",
     "features.extract"),
    ("repro.ocr.engine", "OCREngine.recognize", "ocr.recognize"),
    ("repro.ml.forest", "RandomForest.fit", "ml.train"),
    ("repro.enrich.resolver", "EnrichResolver.resolve", "enrich.resolve"),
)

# spans that mark the benchmark's own structure, not a program layer
HARNESS_LAYERS = ("workload",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the parent span, -1 at the root
    op: int                # workload operation id (0 = set-up)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the monkeypatch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self.enabled = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.contexts: List[object] = []     # every PackedScanContext built

    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order at "
                               f"{self.spans[index].name}")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` puts them back."""
        for module_name, path, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    traced = classmethod(self.wrap(raw.__func__, span_name))
                else:
                    traced = self.wrap(raw, span_name)
                self._set(cls, method, traced)
                continue
            original = getattr(module, path)
            traced = self.wrap(original, span_name)
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        loaded is not None and \
                        loaded.__dict__.get(path) is original:
                    self._set(loaded, path, traced)
        self._install_stage_spans()
        self._install_context_registry()

    def _install_stage_spans(self) -> None:
        """Wrap each stage's ``compute`` as the pipeline builds its graph."""
        from repro.core.pipeline import SquatPhi
        original = SquatPhi.__dict__["build_graph"]
        tracer = self

        def build_graph(pipeline, *args, **kwargs):
            graph = original(pipeline, *args, **kwargs)
            for stage in graph.stages.values():
                stage.compute = tracer.wrap(stage.compute,
                                            f"core.stage.{stage.name}")
            return graph

        self._set(SquatPhi, "build_graph", build_graph)

    def _install_context_registry(self) -> None:
        """Keep every scan context so its public ``kernel`` counters can
        be read per operation (consuming ``take_last_scan_stats`` here
        would steal the program's own accounting)."""
        from repro.squatting.packedscan import PackedScanContext
        original = PackedScanContext.__dict__["__init__"]
        contexts = self.contexts

        def __init__(context, *args, **kwargs):
            original(context, *args, **kwargs)
            contexts.append(context)

        self._set(PackedScanContext, "__init__", __init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    def kernel_snapshot(self) -> Dict[int, object]:
        return {id(c): c.kernel.copy() for c in self.contexts}


def kernel_delta(tracer: Tracer, before: Dict[int, object]):
    """Summed KernelStats of every scan context since ``before``."""
    from repro.squatting.packedscan import KernelStats
    total = KernelStats()
    for context in tracer.contexts:
        start = before.get(id(context))
        total.merge(context.kernel.delta(start) if start is not None
                    else context.kernel.copy())
    return total


def span_times(spans: List[Span], ops: set
               ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """(inclusive seconds, self seconds, calls) per span name.

    Inclusive time skips spans nested inside a span of the same name
    (``pack_zone`` calls ``PackedZoneBuilder.build``), so nothing is
    counted twice; self time subtracts the children's inclusive time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, span in enumerate(spans):
        if span.op not in ops:
            continue
        own[span.name] = own.get(span.name, 0.0) + \
            span.seconds - child_time[index]
        calls[span.name] = calls.get(span.name, 0) + 1
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            total[span.name] = total.get(span.name, 0.0) + span.seconds
    return total, own, calls


def unattributed(spans: List[Span], ops: set) -> Tuple[float, float]:
    """(wall seconds of the traced ops, seconds no layer span covers)."""
    wall = 0.0
    covered = 0.0
    for span in spans:
        if span.op not in ops:
            continue
        if span.layer in HARNESS_LAYERS and span.parent < 0:
            wall += span.seconds
        elif span.parent >= 0 and \
                spans[span.parent].layer in HARNESS_LAYERS:
            covered += span.seconds
    return wall, wall - covered
