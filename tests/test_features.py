"""Feature extraction and embedding."""

import numpy as np
import pytest

from repro.features.embedding import EmbeddingConfig, FeatureEmbedder
from repro.features.extraction import FeatureExtractor, PageFeatures
from repro.web.html import document, el, parse_html
from repro.web.screenshot import render_page
from tests.oracles import transform_one_reference


def login_page(brand="paypal", hide_brand_in_image=False):
    header = (
        el("img", data_embedded_text=brand, height="48")
        if hide_brand_in_image else el("h1", brand.capitalize())
    )
    return document(
        "Sign In",
        header,
        el("p", "Please verify your identity."),
        el("form",
           el("input", type="text", placeholder="email or username"),
           el("input", type="password", placeholder="password"),
           el("button", "Sign In")),
        el("script", "var a = 1;"),
    )


@pytest.fixture(scope="module")
def extractor():
    # the pipeline always seeds the spell checker with brand names (§5.2)
    return FeatureExtractor(extra_lexicon=["paypal", "google", "identity"])


class TestExtraction:
    def test_form_family(self, extractor):
        html = login_page().to_html()
        features = extractor.extract(html)
        assert features.form_count == 1
        assert features.password_input_count == 1
        assert "password" in features.form_tokens
        assert "username" in features.form_tokens

    def test_lexical_family(self, extractor):
        features = extractor.extract(login_page().to_html())
        assert "paypal" in features.lexical_tokens
        assert "verify" in features.lexical_tokens

    def test_ocr_family_recovers_image_text(self, extractor):
        """The paper's central mechanism: OCR sees what HTML hides."""
        page = login_page(hide_brand_in_image=True)
        shot = render_page(parse_html(page.to_html()))
        features = extractor.extract(page.to_html(), shot.pixels)
        assert "paypal" not in features.lexical_tokens
        assert "paypal" in features.ocr_tokens

    def test_ocr_disabled(self):
        extractor = FeatureExtractor(use_ocr=False)
        page = login_page(hide_brand_in_image=True)
        shot = render_page(parse_html(page.to_html()))
        features = extractor.extract(page.to_html(), shot.pixels)
        assert features.ocr_tokens == []

    def test_script_indicators_attached(self, extractor):
        features = extractor.extract(login_page().to_html())
        assert features.script_count == 1
        assert features.js_indicators is not None

    def test_stopwords_removed(self, extractor):
        features = extractor.extract(login_page().to_html())
        assert "your" not in features.lexical_tokens


class TestEmbedding:
    def make_pages(self):
        positive = PageFeatures(
            ocr_tokens=["paypal", "password", "login"],
            lexical_tokens=["verify", "account"],
            form_tokens=["password", "username"],
            form_count=1, password_input_count=1,
        )
        negative = PageFeatures(
            ocr_tokens=["weather", "report"],
            lexical_tokens=["news", "daily"],
            form_tokens=[],
            form_count=0,
        )
        return [positive, negative] * 3

    def test_fit_grows_vocabulary(self):
        embedder = FeatureEmbedder(brand_names=["paypal", "google"])
        base = len(embedder.vocabulary)
        embedder.fit(self.make_pages())
        assert len(embedder.vocabulary) > base

    def test_dimension_formula(self):
        embedder = FeatureEmbedder(brand_names=["paypal"]).fit(self.make_pages())
        vector = embedder.transform_one(self.make_pages()[0])
        assert vector.shape == (embedder.dimension,)

    def test_channel_counts_are_separate(self):
        embedder = FeatureEmbedder(brand_names=["paypal"]).fit(self.make_pages())
        vector = embedder.transform_one(PageFeatures(
            ocr_tokens=["paypal"], lexical_tokens=[], form_tokens=["paypal"],
        ))
        vocab_size = len(embedder.vocabulary)
        index = embedder.vocabulary.index("paypal")
        assert vector[index] == 1.0                      # OCR channel
        assert vector[vocab_size + index] == 0.0          # lexical channel
        assert vector[2 * vocab_size + index] == 1.0      # form channel

    def test_ablation_channels_shrink_dimension(self):
        pages = self.make_pages()
        full = FeatureEmbedder(["paypal"], EmbeddingConfig()).fit(pages)
        no_ocr = FeatureEmbedder(
            ["paypal"], EmbeddingConfig(use_ocr=False)).fit(pages)
        assert no_ocr.dimension < full.dimension

    def test_numeric_features_appended(self):
        pages = self.make_pages()
        embedder = FeatureEmbedder(["paypal"]).fit(pages)
        vector = embedder.transform_one(PageFeatures(form_count=2,
                                                     password_input_count=1,
                                                     script_count=4))
        assert list(vector[-3:]) == [2.0, 1.0, 4.0]

    def test_transform_before_fit_raises(self):
        embedder = FeatureEmbedder(["paypal"])
        with pytest.raises(RuntimeError):
            embedder.transform_one(PageFeatures())

    def test_batch_transform_shape(self):
        pages = self.make_pages()
        embedder = FeatureEmbedder(["paypal"]).fit(pages)
        matrix = embedder.transform(pages)
        assert matrix.shape == (len(pages), embedder.dimension)

    def test_empty_batch(self):
        embedder = FeatureEmbedder(["paypal"]).fit(self.make_pages())
        assert embedder.transform([]).shape == (0, embedder.dimension)

    def test_batch_transform_matches_reference(self):
        # the scatter-add matrix build must byte-match the per-page,
        # per-token oracle
        pages = self.make_pages() + [PageFeatures()]
        fast = FeatureEmbedder(["paypal"]).fit(pages)
        slow = np.stack([transform_one_reference(fast, page)
                         for page in pages])
        assert np.array_equal(fast.transform(pages), slow)
        for page, reference in zip(pages, slow):
            assert np.array_equal(fast.transform_one(page), reference)

    def test_batch_transform_matches_reference_on_repeated_tokens(self):
        # a token repeated within one page's channel counts once per
        # occurrence; the make_pages() pages never repeat one
        pages = self.make_pages() + [PageFeatures(
            ocr_tokens=["paypal", "password", "paypal"],
            lexical_tokens=["verify", "verify", "verify"],
            form_tokens=["password", "password"],
        )]
        embedder = FeatureEmbedder(["paypal"]).fit(pages)
        reference = np.stack([transform_one_reference(embedder, page)
                              for page in pages])
        assert reference[-1].max() == 3.0
        assert np.array_equal(embedder.transform(pages), reference)

    def test_feature_names_match_dimension(self):
        embedder = FeatureEmbedder(["paypal"]).fit(self.make_pages())
        names = embedder.feature_names()
        assert len(names) == embedder.dimension
        assert names[0].startswith("ocr:")
        assert names[-1] == "numeric:script_count"

    def test_feature_names_respect_channel_ablation(self):
        config = EmbeddingConfig(use_ocr=False, use_numeric=False)
        embedder = FeatureEmbedder(["paypal"], config).fit(self.make_pages())
        names = embedder.feature_names()
        assert len(names) == embedder.dimension
        assert all(not n.startswith("ocr:") for n in names)
        assert all(not n.startswith("numeric:") for n in names)
