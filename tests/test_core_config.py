"""Pipeline configuration knobs actually change behaviour."""

import pytest

from repro.core import PipelineConfig, SquatPhi
from repro.features.embedding import EmbeddingConfig


class TestDefaults:
    def test_default_classifier_is_random_forest(self):
        assert PipelineConfig().classifier == "random_forest"

    def test_default_verification_is_expert(self):
        assert PipelineConfig().verification_mode == "expert"

    def test_embedding_default_uses_all_channels(self):
        embedding = PipelineConfig().embedding
        assert embedding.use_ocr and embedding.use_lexical and embedding.use_forms


@pytest.mark.parametrize("field", ["scan_workers", "crawl_workers",
                                   "train_workers", "extract_workers",
                                   "enrich_workers"])
def test_worker_counts_below_one_are_rejected(field):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: 0})
    assert getattr(PipelineConfig(**{field: 1}), field) == 1


class TestModelSelection:
    @pytest.mark.parametrize("name,type_name", [
        ("random_forest", "RandomForest"),
        ("knn", "KNearestNeighbors"),
        ("naive_bayes", "MultinomialNaiveBayes"),
    ])
    def test_make_model(self, micro_world, name, type_name):
        pipeline = SquatPhi(micro_world, PipelineConfig(classifier=name))
        assert type(pipeline._make_model(name)).__name__ == type_name

    def test_unknown_classifier_raises(self, micro_world):
        pipeline = SquatPhi(micro_world, PipelineConfig())
        with pytest.raises(ValueError):
            pipeline._make_model("svm")

    def test_unknown_verification_mode_raises(self, micro_world):
        pipeline = SquatPhi(micro_world,
                            PipelineConfig(verification_mode="oracle"))
        with pytest.raises(ValueError):
            pipeline.verify([])


class TestCrowdMode:
    def test_crowd_verification_runs(self, micro_world, pipeline_result):
        crowd = SquatPhi(micro_world, PipelineConfig(
            verification_mode="crowd", crowd_size=7, crowd_votes_per_item=3,
        ))
        verified = crowd.verify(pipeline_result.flagged)
        assert verified
        flagged_domains = {f.domain for f in pipeline_result.flagged}
        assert {v.domain for v in verified} <= flagged_domains

    def test_crowd_and_expert_agree_mostly(self, micro_world, pipeline_result):
        expert = SquatPhi(micro_world, PipelineConfig())
        crowd = SquatPhi(micro_world, PipelineConfig(verification_mode="crowd"))
        expert_domains = {v.domain for v in expert.verify(pipeline_result.flagged)}
        crowd_domains = {v.domain for v in crowd.verify(pipeline_result.flagged)}
        union = expert_domains | crowd_domains
        overlap = len(expert_domains & crowd_domains) / len(union)
        assert overlap > 0.8


class TestClassifierChoiceAffectsPipeline:
    def test_deployed_model_follows_config(self, micro_world, pipeline_result):
        pipeline = SquatPhi(micro_world, PipelineConfig(classifier="knn",
                                                        cv_folds=3))
        pipeline.train(pipeline_result.ground_truth, evaluate_all=False)
        assert type(pipeline.model).__name__ == "KNearestNeighbors"

    def test_ocr_disabled_pipeline_trains(self, micro_world, pipeline_result):
        config = PipelineConfig(
            use_ocr=False, cv_folds=3, rf_trees=8,
            embedding=EmbeddingConfig(use_ocr=False),
        )
        pipeline = SquatPhi(micro_world, config)
        reports = pipeline.train(pipeline_result.ground_truth,
                                 evaluate_all=False)
        assert "random_forest" in reports
