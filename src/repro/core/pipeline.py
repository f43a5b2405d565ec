"""The SquatPhi pipeline: search + detect squatting phishing end to end."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.evasion import EvasionMeasurement, measure_page
from repro.core.config import PipelineConfig
from repro.faults.clock import SimClock
from repro.faults.errors import FaultError
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.resilience import CrawlHealth, RetryPolicy
from repro.features.embedding import FeatureEmbedder
from repro.features.extraction import FeatureExtractor, PageFeatures
from repro.perf import CaptureCache, PerfReport
from repro.perf.engine import process_map, work_shards
from repro.ml import (
    ClassificationReport,
    KNearestNeighbors,
    MultinomialNaiveBayes,
    RandomForest,
    cross_validate,
)
from repro.dns.packedzone import PackedZone
from repro.enrich import EnrichResolver, EnrichmentTable, default_backends
from repro.ocr.engine import OCREngine
from repro.phishworld.marketplace import classify_redirect
from repro.phishworld.world import SyntheticInternet
from repro.squatting import packedscan
from repro.squatting.detector import SquattingDetector
from repro.stages import (
    ArtifactStore,
    RunManifest,
    Stage,
    StageContext,
    StageGraph,
    StageRunner,
    digest_crawl_snapshot,
    digest_crawl_snapshots,
    digest_cv_reports,
    digest_detections,
    digest_enrichment,
    digest_evasion,
    digest_ground_truth,
    digest_packed_zone,
    digest_squat_matches,
    digest_verified,
)
from repro.squatting.types import SquatMatch, SquatType
from repro.web.browser import Browser, PageCapture
from repro.web.crawler import CrawlCheckpoint, CrawlSnapshot, DistributedCrawler
from repro.web.http import MOBILE_UA, WEB_UA


# ----------------------------------------------------------------------
# process-pool plumbing for the extraction/training fan-out.  Extraction
# is a pure function of page content (OCR noise is seeded by the raster,
# fault draws are content-keyed hashes, spell correction is pure per
# word), so worker processes rebuild an extractor from a picklable spec
# (the pool's context) and return features + cache deltas that merge back
# in shard order — byte-identical to a serial pass for any worker count.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractorSpec:
    """Everything a worker needs to rebuild the run's feature extractor."""

    ocr_error_rate: float
    use_ocr: bool
    use_spellcheck: bool
    lexicon: Tuple[str, ...]
    fault_plan: Optional[FaultPlan]
    cache_enabled: bool

    def build(self) -> Tuple[FeatureExtractor, CaptureCache, Optional[FaultInjector]]:
        from repro.ocr.engine import OCREngine as _OCREngine

        injector = None
        if self.fault_plan is not None and self.fault_plan.any_faults:
            injector = FaultInjector(self.fault_plan)
        cache = CaptureCache(enabled=self.cache_enabled)
        extractor = FeatureExtractor(
            ocr_engine=_OCREngine(error_rate=self.ocr_error_rate,
                                  fault_injector=injector),
            use_ocr=self.use_ocr,
            use_spellcheck=self.use_spellcheck,
            extra_lexicon=list(self.lexicon),
            cache=cache,
        )
        return extractor, cache, injector


def _extract_shard(spec: ExtractorSpec, items):
    """Extract one shard of (html, pixels) pairs in a worker process.

    A fresh extractor per shard keeps the returned cache-stats delta a
    function of the shard alone (not of which worker happened to process
    which shards), so merged counters are run-to-run deterministic.
    """
    extractor, cache, injector = spec.build()
    features = [extractor.extract(html, pixels) for html, pixels in items]
    injected = dict(injector.injected) if injector is not None else {}
    return features, cache.stats, injected


def _measure_shard(_context, items):
    """Evasion-measure one shard of (domain, brand, html, pixels, original)."""
    return [
        measure_page(domain=domain, brand_name=brand, html=html,
                     phish_pixels=pixels, original_pixels=original)
        for domain, brand, html, pixels, original in items
    ]


@dataclass(frozen=True)
class ModelFactory:
    """Picklable classifier factory.

    The factory is ``cross_validate``'s pool context: fork-start fold
    workers inherit it, spawn-start ones unpickle it, so it must survive
    pickling — a bound lambda over the pipeline would not.
    Forests built here fit their trees serially; the fold fan-out is the
    parallel axis (nesting pools inside pools would oversubscribe).
    """

    name: str
    rf_trees: int
    rf_max_depth: int
    knn_k: int

    def __call__(self):
        if self.name == "random_forest":
            return RandomForest(n_trees=self.rf_trees,
                                max_depth=self.rf_max_depth)
        if self.name == "knn":
            return KNearestNeighbors(k=self.knn_k)
        if self.name == "naive_bayes":
            return MultinomialNaiveBayes()
        raise ValueError(f"unknown classifier {self.name!r}")


@dataclass
class GroundTruthPage:
    """One labelled training page."""

    domain: str
    brand: str
    label: int                      # 1 = phishing, 0 = benign
    features: PageFeatures
    html: str
    screenshot_pixels: Optional["np.ndarray"] = None
    source: str = "phishtank"       # phishtank | squat-benign


@dataclass
class WildDetection:
    """One page the classifier flagged in the wild."""

    domain: str
    brand: str
    squat_type: SquatType
    profile: str                    # web | mobile
    score: float
    capture: PageCapture
    # extracted once at classification time and carried along, so
    # feedback retraining never pays for (or depends on) re-extraction
    features: Optional[PageFeatures] = None


@dataclass
class VerifiedPhish:
    """A flagged page that survived verification."""

    domain: str
    brand: str
    squat_type: SquatType
    profiles: Tuple[str, ...]       # which device profiles serve the phish


@dataclass
class PipelineResult:
    """Everything a SquatPhi run produces (feeds all exhibits)."""

    squat_matches: List[SquatMatch]
    crawl_snapshots: List[CrawlSnapshot]
    ground_truth: List[GroundTruthPage]
    cv_reports: Dict[str, ClassificationReport]
    flagged: List[WildDetection]
    verified: List[VerifiedPhish]
    evasion_squatting: List[EvasionMeasurement]
    evasion_reported: List[EvasionMeasurement]
    enrichment: Optional[EnrichmentTable] = None
    health: CrawlHealth = field(default_factory=CrawlHealth)
    injected_faults: Dict[str, int] = field(default_factory=dict)
    # execution metadata (never part of determinism comparisons)
    run_id: str = field(default="", compare=False)
    perf: Optional[PerfReport] = field(default=None, compare=False)

    def verified_domains(self) -> List[str]:
        return sorted({v.domain for v in self.verified})

    def flagged_by_profile(self, profile: str) -> List[WildDetection]:
        return [f for f in self.flagged if f.profile == profile]

    def verified_by_profile(self, profile: str) -> List[VerifiedPhish]:
        return [v for v in self.verified if profile in v.profiles]

    def summary(self) -> Dict[str, Any]:
        """Machine-readable run summary (the CLI's ``--json`` payload).

        Everything except the ``perf`` block is deterministic for a given
        world + config, so two runs' summaries can be diffed directly.
        """
        data: Dict[str, Any] = {
            "run_id": self.run_id,
            "counts": {
                "squat_matches": len(self.squat_matches),
                "crawl_snapshots": len(self.crawl_snapshots),
                "ground_truth": len(self.ground_truth),
                "flagged": len(self.flagged),
                "verified": len(self.verified),
                "evasion_squatting": len(self.evasion_squatting),
                "evasion_reported": len(self.evasion_reported),
                "enriched_domains": (len(self.enrichment.domains)
                                     if self.enrichment is not None else 0),
            },
            "verified_domains": self.verified_domains(),
            "snapshot_digests": [s.digest() for s in self.crawl_snapshots],
            "cv_reports": {
                name: {
                    "false_positive_rate": round(r.false_positive_rate, 6),
                    "false_negative_rate": round(r.false_negative_rate, 6),
                    "auc": round(r.auc, 6),
                    "accuracy": round(r.accuracy, 6),
                }
                for name, r in sorted(self.cv_reports.items())
            },
            "health": self.health.to_dict(),
            "injected_faults": dict(sorted(self.injected_faults.items())),
        }
        if self.enrichment is not None:
            data["enrichment_digest"] = self.enrichment.digest()
        if self.perf is not None:
            data["perf"] = self.perf.to_dict()
        return data


class SquatPhi:
    """End-to-end runner against a (synthetic) internet."""

    def __init__(
        self,
        world: SyntheticInternet,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.world = world
        self.config = config or PipelineConfig()
        self.detector = SquattingDetector(world.catalog)
        # failure model: one simulated clock + injector shared by every
        # stage, so fault weather is consistent (and reproducible) across
        # crawling, ground-truth collection, OCR, and monitoring
        self.clock = SimClock()
        self.fault_injector: Optional[FaultInjector] = None
        if self.config.fault_plan is not None and self.config.fault_plan.any_faults:
            self.fault_injector = FaultInjector(self.config.fault_plan, self.clock)
            world.zone.fault_injector = self.fault_injector
        self.health = CrawlHealth()
        # execution engine: one content-addressed cache and one perf report
        # per run, sharing a CacheStats so the report is always current
        self.capture_cache = CaptureCache(enabled=self.config.capture_cache)
        self.perf = PerfReport(
            scan_workers=self.config.scan_workers,
            crawl_workers=self.config.crawl_workers,
            train_workers=self.config.train_workers,
            extract_workers=self.config.extract_workers,
            cache_enabled=self.config.capture_cache,
            cache=self.capture_cache.stats,
        )
        self.extractor = FeatureExtractor(
            ocr_engine=OCREngine(error_rate=self.config.ocr_error_rate,
                                 fault_injector=self.fault_injector),
            use_ocr=self.config.use_ocr,
            use_spellcheck=self.config.use_spellcheck,
            extra_lexicon=world.catalog.names(),
            cache=self.capture_cache,
        )
        self.embedder: Optional[FeatureEmbedder] = None
        self.model = None
        self._original_shots: Dict[str, "np.ndarray"] = {}
        # filled in by run(): id + manifest of the latest stage-graph walk
        self.run_id: Optional[str] = None
        self.last_manifest: Optional[RunManifest] = None

    # ------------------------------------------------------------------
    # resilience helpers
    # ------------------------------------------------------------------
    def _make_browser(self, user_agent) -> Browser:
        return Browser(self.world.host, user_agent,
                       fault_injector=self.fault_injector,
                       capture_cache=self.capture_cache)

    def _visit_degraded(self, browser: Browser, url: str,
                        stage: str) -> Optional[PageCapture]:
        """Visit a URL outside the crawler's retry loop.

        A fault here degrades the stage (the page is skipped and
        accounted) instead of crashing the run.
        """
        try:
            return browser.visit(url)
        except FaultError as fault:
            self.health.record_failure(fault.kind)
            self.health.record_degraded(stage)
            return None

    def assess_page(
        self,
        domain: str,
        user_agent,
        stage: str = "monitor_assess",
    ) -> Tuple[Optional[PageCapture], bool]:
        """Resolve and visit one page on behalf of a monitoring consumer.

        Returns ``(capture, faulted)``.  A fault degrades ``stage`` in the
        health report (the visit sits outside the crawler's retry loop, so
        it is a degraded assessment, not a crawl failure) and yields
        ``(None, True)``; a dead-but-healthy domain yields ``(None,
        False)``.  :class:`~repro.core.monitor.BrandMonitor` consumes this
        instead of wiring browsers to the pipeline's internals itself.
        """
        browser = self._make_browser(user_agent)
        try:
            self.world.zone.resolve(domain)
            capture = browser.visit(f"http://{domain}/")
        except FaultError:
            self.health.record_degraded(stage)
            return None, True
        return capture, False

    # ------------------------------------------------------------------
    # stage 1: squatting detection
    # ------------------------------------------------------------------
    def detect_squatting(self, zone=None) -> List[SquatMatch]:
        """Scan the DNS snapshot for squatting domains (§3.1).

        Packed zones (``zone`` or ``world.zone`` a
        :class:`~repro.dns.packedzone.PackedZone`) run the vectorized mmap
        kernel at any worker count; ``config.scan_workers > 1`` runs it
        over a process pool, packing a dict-backed zone first.  The
        ordered merge makes the result identical to a serial scan.
        """
        if zone is None:
            zone = self.world.zone
        start = time.perf_counter()
        matches = self.detector.scan_sharded(
            zone, workers=self.config.scan_workers)
        self.perf.record_scan(zone.stats()["registered_domains"],
                              time.perf_counter() - start,
                              kernel=packedscan.take_last_scan_stats())
        return matches

    # ------------------------------------------------------------------
    # stage 2: crawling
    # ------------------------------------------------------------------
    def make_crawler(self) -> DistributedCrawler:
        """A crawler wired to this run's fault model and resilience knobs."""
        config = self.config
        return DistributedCrawler(
            self.world.host,
            workers=config.crawl_workers,
            max_retries=config.crawl_max_retries,
            fault_injector=self.fault_injector,
            retry_policy=RetryPolicy(
                max_retries=config.crawl_max_retries,
                base_delay=config.backoff_base_delay,
                max_delay=config.backoff_max_delay,
                jitter=config.backoff_jitter,
            ),
            breaker_failure_threshold=config.breaker_failure_threshold,
            breaker_reset_timeout=config.breaker_reset_timeout,
            clock=self.clock,
            capture_cache=self.capture_cache,
        )

    def crawl_domains(
        self,
        domains: Sequence[str],
        snapshot: int = 0,
        resume: Optional[CrawlCheckpoint] = None,
        max_jobs: Optional[int] = None,
    ) -> CrawlSnapshot:
        """One crawl pass over ``domains`` with both device profiles.

        ``resume``/``max_jobs`` expose the crawler's checkpoint/resume
        machinery; a partial pass (``max_jobs``) returns a snapshot whose
        ``checkpoint`` continues it.  Crawl health is folded into the
        run-level :attr:`health` report only when the pass completes, so
        an interrupted-then-resumed crawl is accounted exactly once.
        """
        crawler = self.make_crawler()
        result = crawler.crawl(domains, snapshot=snapshot,
                               resume=resume, max_jobs=max_jobs)
        if result.complete:
            self.health.merge(result.health)
        return result

    # ------------------------------------------------------------------
    # parallel feature extraction
    # ------------------------------------------------------------------
    def _extractor_spec(self) -> ExtractorSpec:
        return ExtractorSpec(
            ocr_error_rate=self.config.ocr_error_rate,
            use_ocr=self.config.use_ocr,
            use_spellcheck=self.config.use_spellcheck,
            lexicon=tuple(self.world.catalog.names()),
            fault_plan=self.config.fault_plan,
            cache_enabled=self.config.capture_cache,
        )

    def _extract_many(
        self,
        pairs: Sequence[Tuple[str, Optional["np.ndarray"]]],
    ) -> List[PageFeatures]:
        """Extract features for (html, pixels) pairs, in input order.

        With ``extract_workers > 1`` the main process consults the shared
        capture cache first, fans the misses out over ordered process-pool
        shards, and merges worker-computed features back into the cache in
        shard order.  Extraction is pure, so the returned features are
        byte-identical to a serial pass for any worker count.
        """
        start = time.perf_counter()
        workers = self.config.extract_workers
        if workers <= 1 or len(pairs) <= 1:
            features = [self.extractor.extract(html, pixels)
                        for html, pixels in pairs]
            self.perf.record_extraction(len(pairs), time.perf_counter() - start)
            return features

        results: List[Optional[PageFeatures]] = [None] * len(pairs)
        use_ocr = self.extractor.use_ocr
        flags = (use_ocr, self.extractor.use_spellcheck)
        jobs: List[Tuple[Any, str, Optional["np.ndarray"]]] = []
        slots: List[List[int]] = []
        if self.capture_cache.enabled:
            index_of: Dict[Any, int] = {}
            for i, (html, pixels) in enumerate(pairs):
                key = CaptureCache.feature_key(
                    html, pixels if use_ocr else None, flags)
                cached = self.capture_cache.lookup_features(key)
                if cached is not None:
                    results[i] = cached.copy()
                    continue
                at = index_of.get(key)
                if at is not None:
                    slots[at].append(i)
                    continue
                index_of[key] = len(jobs)
                jobs.append((key, html, pixels))
                slots.append([i])
        else:
            # --no-capture-cache measures the uncached baseline: every
            # page pays full extraction, so no dedupe either
            jobs = [(None, html, pixels) for html, pixels in pairs]
            slots = [[i] for i in range(len(pairs))]

        if jobs:
            shard_results = process_map(
                _extract_shard,
                [[(html, pixels) for _, html, pixels in part]
                 for part in work_shards(jobs, workers)],
                workers, context=self._extractor_spec())
            position = 0
            for features_list, stats, injected in shard_results:
                self.capture_cache.stats.merge(stats)
                if self.fault_injector is not None:
                    for kind, count in injected.items():
                        self.fault_injector.injected[kind] += count
                for features in features_list:
                    key = jobs[position][0]
                    if key is not None:
                        self.capture_cache.store_features(key, features.copy())
                    targets = slots[position]
                    results[targets[0]] = features
                    for extra in targets[1:]:
                        results[extra] = features.copy()
                    position += 1
        self.perf.record_extraction(len(pairs), time.perf_counter() - start)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # stage 3: ground truth
    # ------------------------------------------------------------------
    def collect_ground_truth(
        self,
        squat_matches: Optional[Sequence[SquatMatch]] = None,
        benign_squat_sample: int = 400,
    ) -> List[GroundTruthPage]:
        """Crawl PhishTank reports and label pages (§4.1).

        Positive pages: reported URLs still serving phishing at crawl time.
        Negative pages: reported URLs replaced with benign content, plus a
        sample of easy-to-confuse live squat-domain pages.

        Page visits run serially (their order drives the fault weather and
        health accounting); extraction is pure, so it batches over the
        collected captures afterwards — the ``extract_workers`` fan-out.
        """
        browser = self._make_browser(WEB_UA)
        metas: List[Tuple[str, str, int, str, PageCapture]] = []
        for report in self.world.phishtank.verified_active():
            capture = self._visit_degraded(
                browser, f"http://{report.domain}/", "ground_truth")
            if capture is None:
                continue
            metas.append((report.domain, report.brand,
                          1 if report.still_phishing else 0,
                          "phishtank", capture))
        metas.extend(self._sample_benign_squat_metas(squat_matches, benign_squat_sample))
        features = self._extract_many([
            (capture.html, capture.screenshot.pixels)
            for *_, capture in metas
        ])
        pages = [
            GroundTruthPage(
                domain=domain,
                brand=brand,
                label=label,
                features=page_features,
                html=capture.html,
                screenshot_pixels=capture.screenshot.pixels,
                source=source,
            )
            for (domain, brand, label, source, capture), page_features
            in zip(metas, features)
        ]
        self._apply_annotation_noise(pages)
        return pages

    def _apply_annotation_noise(self, pages: List[GroundTruthPage]) -> None:
        """Model residual labeling error in the manually-annotated corpus."""
        rng = np.random.default_rng(self.config.annotation_seed)
        for page in pages:
            if page.label == 1:
                if rng.random() < self.config.phish_mislabel_rate:
                    page.label = 0
            elif rng.random() < self.config.benign_mislabel_rate:
                page.label = 1

    def _sample_benign_squat_metas(
        self,
        squat_matches: Optional[Sequence[SquatMatch]],
        sample_size: int,
    ) -> List[Tuple[str, str, int, str, PageCapture]]:
        """The paper's second negative source: manually-verified benign
        pages under squatting domains (§5.3).

        The paper states it "only introduce[s] the most easy-to-confuse
        benign pages ... [not] the obviously benign pages", so the sample
        is deliberately biased: confusable pages (forms, brand plugins, fan
        logins) are exhausted first, then the remainder fills uniformly.
        The oracle labels stand in for their manual verification.  Returns
        page metadata tuples; the caller batches feature extraction.
        """
        if not squat_matches:
            return []
        rng = np.random.default_rng(self.config.verification_seed)
        browser = self._make_browser(WEB_UA)
        confusable: List[SquatMatch] = []
        ordinary: List[SquatMatch] = []
        for match in squat_matches:
            label = self.world.label_of(match.domain) or ""
            if label == "squat-confusable":
                confusable.append(match)
            elif label.startswith("squat-"):
                ordinary.append(match)
        ordered: List[SquatMatch] = [
            confusable[int(i)] for i in rng.permutation(len(confusable))
        ] + [
            ordinary[int(i)] for i in rng.permutation(len(ordinary))
        ]
        metas: List[Tuple[str, str, int, str, PageCapture]] = []
        for match in ordered:
            if len(metas) >= sample_size:
                break
            capture = self._visit_degraded(
                browser, f"http://{match.domain}/", "ground_truth_benign")
            if capture is None:
                continue
            metas.append((match.domain, match.brand, 0,
                          "squat-benign", capture))
        return metas

    # ------------------------------------------------------------------
    # stage 4: classification
    # ------------------------------------------------------------------
    def _model_factory(self, name: str) -> ModelFactory:
        return ModelFactory(
            name=name,
            rf_trees=self.config.rf_trees,
            rf_max_depth=self.config.rf_max_depth,
            knn_k=self.config.knn_k,
        )

    def _make_model(self, name: str):
        return self._model_factory(name)()

    def train(
        self,
        ground_truth: Sequence[GroundTruthPage],
        evaluate_all: bool = True,
    ) -> Dict[str, ClassificationReport]:
        """Fit the embedding and classifiers; cross-validate (Table 7).

        ``config.train_workers`` fans CV folds and forest trees out over a
        process pool; per-tree seeds derive from (forest seed, tree index)
        and folds merge by test-index, so the reports and the final model
        byte-match a serial run for any worker count.
        """
        start = time.perf_counter()
        features = [page.features for page in ground_truth]
        labels = np.array([page.label for page in ground_truth])
        self.embedder = FeatureEmbedder(
            brand_names=self.world.catalog.names(),
            config=self.config.embedding,
        )
        x = self.embedder.fit_transform(features)
        reports: Dict[str, ClassificationReport] = {}
        names = ("naive_bayes", "knn", "random_forest") if evaluate_all else (self.config.classifier,)
        folds = 0
        for name in names:
            reports[name] = cross_validate(
                self._model_factory(name), x, labels,
                k=self.config.cv_folds,
                threshold=self.config.decision_threshold,
                workers=self.config.train_workers,
            )
            folds += self.config.cv_folds
        model = self._make_model(self.config.classifier)
        if isinstance(model, RandomForest):
            model.fit(x, labels, workers=self.config.train_workers)
        else:
            model.fit(x, labels)
        self.model = model
        self.perf.record_training(
            trees=model.n_trees if isinstance(model, RandomForest) else 0,
            folds=folds,
            seconds=time.perf_counter() - start,
        )
        return reports

    def score_features(self, features: PageFeatures) -> float:
        """Phishing score of already-extracted page features."""
        if self.model is None or self.embedder is None:
            raise RuntimeError("pipeline is not trained; call train() first")
        vector = self.embedder.transform([features])
        return float(self.model.predict_proba(vector)[0])

    def classify_capture(self, capture: PageCapture) -> float:
        """Phishing score of one crawled page."""
        return self.score_features(self.extractor.extract_capture(capture))

    # ------------------------------------------------------------------
    # stage 5: wild detection + verification
    # ------------------------------------------------------------------
    def detect_in_wild(
        self,
        squat_matches: Sequence[SquatMatch],
        crawl: CrawlSnapshot,
    ) -> List[WildDetection]:
        """Classify every live squat-domain page from a crawl snapshot.

        Extraction fans out over ``extract_workers``; scoring embeds the
        whole batch into one matrix and takes one ``predict_proba`` call
        (per-page scores are computed independently inside the model, so
        batching cannot change a byte).
        """
        match_of = {m.domain: m for m in squat_matches}
        items: List[Tuple[str, str, SquatMatch, PageCapture]] = []
        for profile in ("web", "mobile"):
            for result in crawl.captures(profile):
                match = match_of.get(result.domain)
                if match is None or result.capture is None:
                    continue
                if result.redirected:
                    continue  # redirects land on someone else's content
                items.append((profile, result.domain, match, result.capture))
        if not items:
            return []
        features_list = self._extract_many([
            (capture.html,
             capture.screenshot.pixels if capture.screenshot is not None else None)
            for _, _, _, capture in items
        ])
        vectors = self.embedder.transform(features_list)
        scores = [float(s) for s in self.model.predict_proba(vectors)]
        flagged: List[WildDetection] = []
        for (profile, domain, match, capture), features, score in zip(
                items, features_list, scores):
            if score >= self.config.decision_threshold:
                flagged.append(WildDetection(
                    domain=domain,
                    brand=match.brand,
                    squat_type=match.squat_type,
                    profile=profile,
                    score=score,
                    capture=capture,
                    features=features,
                ))
        return flagged

    def verify(self, flagged: Sequence[WildDetection]) -> List[VerifiedPhish]:
        """Manual-examination step (§6.1).

        A page passes when it impersonates the brand and carries a data
        collection form — known exactly to the world's ground truth.  In
        ``expert`` mode a single reviewer judges each domain with a small
        error rate; in ``crowd`` mode a review queue takes majority votes
        from a mixed-skill crowd (§7's scaling suggestion).
        """
        by_domain: Dict[str, List[WildDetection]] = {}
        for detection in flagged:
            by_domain.setdefault(detection.domain, []).append(detection)

        if self.config.verification_mode == "crowd":
            accepted = self._crowd_verdicts(sorted(by_domain))
        elif self.config.verification_mode == "expert":
            accepted = self._expert_verdicts(sorted(by_domain))
        else:
            raise ValueError(
                f"unknown verification_mode {self.config.verification_mode!r}")

        verified: List[VerifiedPhish] = []
        for domain in sorted(accepted):
            detections = by_domain[domain]
            first = detections[0]
            verified.append(VerifiedPhish(
                domain=domain,
                brand=first.brand,
                squat_type=first.squat_type,
                profiles=tuple(sorted({d.profile for d in detections})),
            ))
        return verified

    def _expert_verdicts(self, domains: Sequence[str]) -> Set[str]:
        rng = np.random.default_rng(self.config.verification_seed)
        accepted: Set[str] = set()
        for domain in domains:
            truly_phishing = self.world.label_of(domain) == "phishing"
            if rng.random() < self.config.reviewer_error_rate:
                truly_phishing = not truly_phishing
            if truly_phishing:
                accepted.add(domain)
        return accepted

    def _crowd_verdicts(self, domains: Sequence[str]) -> Set[str]:
        from repro.core.review import ReviewQueue, default_crowd

        queue = ReviewQueue(
            default_crowd(self.config.crowd_size,
                          seed=self.config.verification_seed),
            votes_per_item=self.config.crowd_votes_per_item,
            seed=self.config.verification_seed + 1,
        )
        for domain in domains:
            queue.submit(domain, brand="",
                         truth=self.world.label_of(domain) == "phishing")
        queue.process()
        return set(queue.confirmed_domains())

    # ------------------------------------------------------------------
    # stage 6: evasion characterization
    # ------------------------------------------------------------------
    def original_screenshot(self, brand_name: str) -> Optional["np.ndarray"]:
        """Cached screenshot of a brand's legitimate page."""
        if brand_name not in self._original_shots:
            brand = self.world.catalog.get(brand_name)
            if brand is None:
                return None
            capture = self._visit_degraded(
                self._make_browser(WEB_UA), f"http://{brand.domain}/",
                "evasion_original")
            if capture is None:
                return None
            self._original_shots[brand_name] = capture.screenshot.pixels
        return self._original_shots[brand_name]

    def measure_evasion_for(
        self,
        items: Sequence[Tuple[str, str, PageCapture]],
    ) -> List[EvasionMeasurement]:
        """Evasion tests for (domain, brand, capture) triples.

        Brand originals are fetched serially first (their first-occurrence
        visit order drives fault weather); the per-page measurements are
        pure, so they fan out over ``extract_workers`` shards whose
        ordered merge matches the serial loop byte for byte.
        """
        originals = [self.original_screenshot(brand) for _, brand, _ in items]
        workers = self.config.extract_workers
        work = [
            (domain, brand, capture.html, capture.screenshot.pixels, original)
            for (domain, brand, capture), original in zip(items, originals)
        ]
        parts = process_map(_measure_shard, work_shards(work, workers),
                            workers)
        return [measurement for part in parts for measurement in part]

    # ------------------------------------------------------------------
    # feedback retraining (§6.1's proposed improvement / future work)
    # ------------------------------------------------------------------
    def retrain_with_feedback(
        self,
        ground_truth: Sequence[GroundTruthPage],
        flagged: Sequence[WildDetection],
        verified: Sequence[VerifiedPhish],
    ) -> Dict[str, ClassificationReport]:
        """Fold verification outcomes back into the training set.

        Every flagged-and-verified page becomes a new positive; every
        flagged-but-rejected page becomes a new hard negative.  The paper
        proposes exactly this loop to absorb the variance the small-scale
        training set missed.  Returns fresh CV reports on the augmented set.
        """
        verified_domains = {v.domain for v in verified}
        augmented: List[GroundTruthPage] = list(ground_truth)
        seen: Set[Tuple[str, str]] = set()
        for detection in flagged:
            key = (detection.domain, detection.profile)
            if key in seen:
                continue
            seen.add(key)
            # detection already carries the features it was scored on;
            # falling back to the extractor (which itself consults the
            # capture cache) only for detections built by older callers
            features = detection.features
            if features is None:
                features = self.extractor.extract_capture(detection.capture)
            augmented.append(GroundTruthPage(
                domain=detection.domain,
                brand=detection.brand,
                label=1 if detection.domain in verified_domains else 0,
                features=features,
                html=detection.capture.html,
                screenshot_pixels=detection.capture.screenshot.pixels,
                source="feedback",
            ))
        return self.train(augmented)

    # ------------------------------------------------------------------
    # the stage graph (what `run` executes)
    # ------------------------------------------------------------------
    # Config-field slices per stage: only the fields that can change a
    # stage's *results* participate in its fingerprint.  Throughput knobs
    # (scan_workers, crawl_workers, train_workers, extract_workers,
    # capture_cache, checkpoint_interval) are deliberately
    # absent — the determinism contract guarantees they cannot change
    # artifacts, so they must not invalidate them; the stage runner
    # rejects slices that name one (see THROUGHPUT_FIELDS).
    _RESILIENCE_FIELDS = (
        "fault_plan", "crawl_max_retries", "backoff_base_delay",
        "backoff_max_delay", "backoff_jitter",
        "breaker_failure_threshold", "breaker_reset_timeout",
    )
    _EXTRACTION_FIELDS = ("use_ocr", "use_spellcheck", "ocr_error_rate")

    def _crawl_checkpointed(
        self,
        domains: Sequence[str],
        snapshot: int,
        ctx: StageContext,
        resume: Optional[CrawlCheckpoint],
        on_checkpoint,
    ) -> CrawlSnapshot:
        """One complete crawl pass whose checkpoints flow into the store."""
        crawler = self.make_crawler()
        result = crawler.crawl_incremental(
            domains,
            snapshot=snapshot,
            resume=resume,
            interval=self.config.checkpoint_interval,
            on_checkpoint=on_checkpoint,
        )
        self.health.merge(result.health)
        return result

    def _injected_snapshot(self) -> Optional[Dict[str, int]]:
        """Run-level injected-fault tally, for crawl partial payloads.

        The crawl checkpoint carries its own health, but fault injections
        are tallied on the run-level injector — a process killed mid-crawl
        would lose them, so partials save the tally and resume restores it.
        """
        if self.fault_injector is None:
            return None
        return dict(self.fault_injector.injected)

    def _restore_injected(self, saved: Optional[Dict[str, int]]) -> None:
        if saved is None or self.fault_injector is None:
            return
        for kind, count in saved.items():
            if count > self.fault_injector.injected.get(kind, 0):
                self.fault_injector.injected[kind] = count

    def _stage_pack(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        """Expose the packed snapshot as a content-addressed artifact.

        Persisting the packed file (its pickle is the raw file bytes)
        lets resumed runs serve the snapshot from the store and lets the
        scan stage hit the early cut-off on its input digest without ever
        rehydrating a dict-backed zone.
        """
        return {"packed_zone": self.world.zone}

    def _stage_scan(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        return {"squat_matches": self.detect_squatting(inputs.get("packed_zone"))}

    def _stage_enrich(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        """Bulk-enrich the scan's candidate set (MX/A/WHOIS/GeoIP).

        Runs the event-loop resolver on its own private simulated clock —
        fault weather, hedging, and concurrency change only the resolver's
        internal accounting, never the table, so the artifact digest is
        identical to a serial no-fault pass.
        """
        domains = [m.domain for m in inputs["squat_matches"]]
        resolver = EnrichResolver(
            default_backends(self.world.zone, self.world.whois,
                             self.world.geoip),
            self.config.fault_plan,
            concurrency=self.config.enrich_workers,
            hedging=self.config.enrich_hedging,
        )
        started = time.perf_counter()
        table = resolver.resolve(domains)
        stats = resolver.stats
        self.perf.record_enrichment(
            stats.tasks, time.perf_counter() - started,
            hedges_fired=stats.hedges_fired,
            negcache_hits=stats.negcache_hits,
            negcache_misses=max(stats.tasks - stats.negcache_hits, 0))
        return {"enrichment": table}

    def _stage_crawl(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        domains = [m.domain for m in inputs["squat_matches"]]
        checkpoint: Optional[CrawlCheckpoint] = None
        partial = ctx.partial()
        if partial is not None:
            checkpoint = partial["checkpoint"]
            self.clock.advance_to(partial["clock"])
            self._restore_injected(partial.get("injected"))

        def on_checkpoint(ckpt: CrawlCheckpoint) -> None:
            ctx.save_partial({"checkpoint": ckpt, "clock": self.clock.now(),
                              "injected": self._injected_snapshot()})

        result = self._crawl_checkpointed(
            domains, snapshot=0, ctx=ctx, resume=checkpoint,
            on_checkpoint=on_checkpoint)
        return {"crawl0": result}

    def _stage_ground_truth(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        return {"ground_truth": self.collect_ground_truth(inputs["squat_matches"])}

    def _stage_train(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        reports = self.train(inputs["ground_truth"])
        return {"cv_reports": reports, "model": (self.embedder, self.model)}

    def _stage_classify(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        # install the model artifact: when `train` was served from the
        # store this is the only place the trained pair reaches the run
        self.embedder, self.model = inputs["model"]
        flagged = self.detect_in_wild(inputs["squat_matches"], inputs["crawl0"])
        return {"flagged": flagged}

    def _stage_verify(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        return {"verified": self.verify(inputs["flagged"])}

    def _stage_follow_ups(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        domains = [v.domain for v in inputs["verified"]]
        done: List[CrawlSnapshot] = []
        next_snapshot = 1
        checkpoint: Optional[CrawlCheckpoint] = None
        partial = ctx.partial()
        if partial is not None:
            done = list(partial["done"])
            next_snapshot = partial["snapshot"]
            checkpoint = partial["checkpoint"]
            self.clock.advance_to(partial["clock"])
            self._restore_injected(partial.get("injected"))
        for snapshot in range(next_snapshot, self.config.snapshots):

            def on_checkpoint(ckpt: CrawlCheckpoint, _snapshot: int = snapshot) -> None:
                ctx.save_partial({"done": done, "snapshot": _snapshot,
                                  "checkpoint": ckpt,
                                  "clock": self.clock.now(),
                                  "injected": self._injected_snapshot()})

            done.append(self._crawl_checkpointed(
                domains, snapshot=snapshot, ctx=ctx, resume=checkpoint,
                on_checkpoint=on_checkpoint))
            checkpoint = None
            if snapshot + 1 < self.config.snapshots:
                ctx.save_partial({"done": done, "snapshot": snapshot + 1,
                                  "checkpoint": None,
                                  "clock": self.clock.now(),
                                  "injected": self._injected_snapshot()})
        return {"follow_ups": done}

    def _stage_evasion(self, inputs: Dict[str, Any], ctx: StageContext) -> Dict[str, Any]:
        flagged = inputs["flagged"]
        verified_set = {v.domain for v in inputs["verified"]}
        evasion_squatting = self.measure_evasion_for([
            (d.domain, d.brand, d.capture)
            for d in flagged
            if d.profile == "web" and d.domain in verified_set
        ])
        browser = self._make_browser(WEB_UA)
        reported_items: List[Tuple[str, str, PageCapture]] = []
        for report in self.world.phishtank.generate():
            if report.squat_type is not None or not report.still_phishing:
                continue
            capture = self._visit_degraded(
                browser, f"http://{report.domain}/", "evasion_reported")
            if capture is not None:
                reported_items.append((report.domain, report.brand, capture))
        evasion_reported = self.measure_evasion_for(reported_items)
        return {"evasion_squatting": evasion_squatting,
                "evasion_reported": evasion_reported}

    def build_graph(self, follow_up_snapshots: bool = True) -> StageGraph:
        """The pipeline as an explicit stage DAG (declared in run order).

        Worlds built with ``packed_zone=True`` get a leading ``pack``
        stage whose artifact is the snapshot file itself; dict-backed
        worlds keep the historical graph shape exactly.
        """
        packed = isinstance(self.world.zone, PackedZone)
        stages = []
        if packed:
            stages.append(Stage(
                name="pack", compute=self._stage_pack,
                outputs=("packed_zone",),
                digesters={"packed_zone": digest_packed_zone}))
        stages += [
            Stage(name="scan", compute=self._stage_scan,
                  inputs=("packed_zone",) if packed else (),
                  outputs=("squat_matches",),
                  digesters={"squat_matches": digest_squat_matches}),
            Stage(name="enrich", compute=self._stage_enrich,
                  inputs=("squat_matches",),
                  outputs=("enrichment",),
                  # no config slice: faults, concurrency, and hedging are
                  # all invisible in the table (determinism contract), so
                  # only the squat-match digest can invalidate this stage
                  digesters={"enrichment": digest_enrichment}),
            Stage(name="crawl", compute=self._stage_crawl,
                  inputs=("squat_matches",), outputs=("crawl0",),
                  config_fields=self._RESILIENCE_FIELDS,
                  digesters={"crawl0": digest_crawl_snapshot}),
            Stage(name="ground_truth", compute=self._stage_ground_truth,
                  inputs=("squat_matches",), outputs=("ground_truth",),
                  config_fields=("fault_plan", "annotation_seed",
                                 "phish_mislabel_rate", "benign_mislabel_rate",
                                 "verification_seed") + self._EXTRACTION_FIELDS,
                  digesters={"ground_truth": digest_ground_truth}),
            Stage(name="train", compute=self._stage_train,
                  inputs=("ground_truth",), outputs=("cv_reports", "model"),
                  config_fields=("classifier", "decision_threshold",
                                 "cv_folds", "rf_trees", "rf_max_depth",
                                 "knn_k", "embedding"),
                  digesters={"cv_reports": digest_cv_reports}),
            Stage(name="classify", compute=self._stage_classify,
                  inputs=("squat_matches", "crawl0", "model"),
                  outputs=("flagged",),
                  config_fields=("decision_threshold",
                                 "fault_plan") + self._EXTRACTION_FIELDS,
                  digesters={"flagged": digest_detections}),
            Stage(name="verify", compute=self._stage_verify,
                  inputs=("flagged",), outputs=("verified",),
                  config_fields=("verification_mode", "reviewer_error_rate",
                                 "crowd_size", "crowd_votes_per_item",
                                 "verification_seed"),
                  digesters={"verified": digest_verified}),
        ]
        if follow_up_snapshots:
            stages.append(Stage(
                name="follow_ups", compute=self._stage_follow_ups,
                inputs=("verified",), outputs=("follow_ups",),
                config_fields=("snapshots",) + self._RESILIENCE_FIELDS,
                digesters={"follow_ups": digest_crawl_snapshots}))
        stages.append(Stage(
            name="evasion", compute=self._stage_evasion,
            inputs=("flagged", "verified"),
            outputs=("evasion_squatting", "evasion_reported"),
            config_fields=("fault_plan",),
            digesters={"evasion_squatting": digest_evasion,
                       "evasion_reported": digest_evasion}))
        return StageGraph(stages)

    def context_digest(self) -> str:
        """Digest of the world universe this pipeline measures.

        Stored in every run manifest; the runner refuses to resume a
        manifest recorded against a different world.
        """
        return hashlib.sha256(repr(self.world.config).encode()).hexdigest()

    # ------------------------------------------------------------------
    # the whole thing
    # ------------------------------------------------------------------
    def run(
        self,
        follow_up_snapshots: bool = True,
        store: Optional[ArtifactStore] = None,
        run_id: Optional[str] = None,
        resume: Optional[str] = None,
        from_stage: Optional[str] = None,
        stop_after: Optional[str] = None,
    ) -> Optional[PipelineResult]:
        """Execute the stage graph; returns the material behind every exhibit.

        Args:
            store: persistent :class:`ArtifactStore` (defaults to a
                private in-memory store, i.e. classic single-shot runs).
            run_id: manifest id for this run (auto-allocated when omitted).
            resume: run id of a previous manifest in ``store``; stages
                whose fingerprints still match are served from the store.
            from_stage: force this stage and everything downstream of it
                to re-execute even when fingerprints match.
            stop_after: end the walk after the named stage completes and
                return ``None`` (the manifest is saved — used to model a
                killed process at stage granularity).
        """
        graph = self.build_graph(follow_up_snapshots)
        if store is None:
            store = ArtifactStore()
        previous: Optional[RunManifest] = None
        if resume is not None:
            previous = store.load_manifest(resume)
        runner = StageRunner(
            graph,
            store=store,
            config=self.config,
            run_id=run_id,
            previous=previous,
            from_stage=from_stage,
            perf=self.perf,
            health=self.health,
            injected=(self.fault_injector.injected
                      if self.fault_injector else None),
            clock=self.clock,
            context_digest=self.context_digest(),
        )
        self.run_id = runner.run_id
        outcome = runner.run(stop_after=stop_after)
        self.last_manifest = outcome.manifest
        self.perf.record_peak_rss()
        if outcome.interrupted:
            return None
        payloads = outcome.payloads()
        snapshots = [payloads["crawl0"]] + list(payloads.get("follow_ups", []))
        return PipelineResult(
            squat_matches=payloads["squat_matches"],
            crawl_snapshots=snapshots,
            ground_truth=payloads["ground_truth"],
            cv_reports=payloads["cv_reports"],
            flagged=payloads["flagged"],
            verified=payloads["verified"],
            evasion_squatting=payloads["evasion_squatting"],
            evasion_reported=payloads["evasion_reported"],
            enrichment=payloads.get("enrichment"),
            health=self.health,
            injected_faults=(self.fault_injector.counts()
                             if self.fault_injector else {}),
            run_id=runner.run_id,
            perf=self.perf,
        )
