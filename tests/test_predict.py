import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    canonicalize,
    decode,
    sample_architecture,
    search_space_size,
)
from eenas.evaluate import synthetic_oracle
from eenas.predict import (
    LabeledRecord,
    Predictor,
    feature_row,
    featurize,
    fit,
    predict,
)
from helpers import enumerate_space, reference_featurize, spearman

predict_module = importlib.import_module("eenas.predict")


def reference_predict(pred, genes, space):
    """``predict`` as it was before feature rows and predictor arrays were
    cached."""
    feats = reference_featurize(genes, space)
    if len(feats) != len(pred.feature_mean):
        raise ValueError("feature length does not match the fitted predictor")
    z = (feats - np.array(pred.feature_mean)) / np.array(pred.feature_std)
    value = pred.intercept + float(z @ np.array(pred.coefficients))
    if pred.target == "accuracy":
        return min(max(value, 0.0), 100.0)
    return math.exp(value)


def bits_of(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def distinct_samples(space, n, seed=0):
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < n:
        genes = sample_architecture(space, rng)
        if genes in seen:
            continue
        seen.add(genes)
        out.append(genes)
    return out


class TestFeaturize:
    def test_single_exit_architecture(self, small_space):
        chrom = (0, 0, 0) * 4 + (1, 1)
        feats = featurize(chrom, small_space)
        h = small_space.n_optional
        assert feats[0] == 1.0  # exit count
        assert np.all(feats[1 : 1 + h] == 0.0)  # occupancy
        assert np.all(feats[1 + h : 1 + 2 * h] == 0.0)  # fractions
        assert feats[-1] == small_space.backbone_bits

    def test_fixed_length_across_space(self, small_space):
        lengths = {
            featurize(c, small_space).shape for c in distinct_samples(small_space, 50)
        }
        assert len(lengths) == 1

    def test_injective_over_whole_space(self, small_space):
        seen = set()
        for chrom in enumerate_space(small_space):
            key = tuple(featurize(chrom, small_space))
            assert key not in seen
            seen.add(key)
        assert len(seen) == search_space_size(4, 2, 2) == 2500

    def test_length_mismatch_rejected(self, small_space):
        with pytest.raises(ValueError):
            featurize((0, 0), small_space)


class TestFit:
    def test_exact_linear_target_interpolates(self, small_space):
        chroms = distinct_samples(small_space, 30)
        records = [
            LabeledRecord(c, float(featurize(c, small_space)[0] * 7 + 3), 1.0)
            for c in chroms
        ]
        pred = fit(records, small_space, target="accuracy", ridge=0.0)
        assert pred.train_mse <= 1e-9

    def test_constant_targets_yield_constant_predictor(self, small_space):
        chroms = distinct_samples(small_space, 10)
        records = [LabeledRecord(c, 42.0, 5.0) for c in chroms]
        pred = fit(records, small_space, target="accuracy")
        for chrom in distinct_samples(small_space, 10, seed=99):
            assert predict(pred, chrom, small_space) == pytest.approx(42.0)

    def test_matches_hand_normal_equations(self, small_space):
        chroms = distinct_samples(small_space, 12)
        rng = np.random.default_rng(1)
        records = [
            LabeledRecord(c, float(rng.uniform(40, 90)), 1.0) for c in chroms
        ]
        ridge = 0.5
        pred = fit(records, small_space, target="accuracy", ridge=ridge)
        # Independent solve in plain numpy, mirroring the documented math.
        ordered = sorted(records, key=lambda r: r.key)
        X = np.stack([featurize(r.genes, small_space) for r in ordered])
        y = np.array([r.acc_avg for r in ordered])
        mean, std = X.mean(axis=0), X.std(axis=0)
        std[std == 0] = 1.0
        Z = (X - mean) / std
        coef = np.linalg.solve(
            Z.T @ Z + ridge * np.eye(Z.shape[1]), Z.T @ (y - y.mean())
        )
        assert np.allclose(np.array(pred.coefficients), coef)
        assert pred.intercept == pytest.approx(y.mean())

    def test_training_mse_never_exceeds_target_variance(self, small_space):
        rng = np.random.default_rng(2)
        chroms = distinct_samples(small_space, 40)
        records = [
            LabeledRecord(c, float(rng.uniform(0, 100)), float(rng.uniform(1, 9)))
            for c in chroms
        ]
        for target in ("accuracy", "et"):
            pred = fit(records, small_space, target=target)
            if target == "accuracy":
                y = np.array([r.acc_avg for r in records])
            else:
                y = np.log([r.et_avg for r in records])
            assert pred.train_mse <= y.var() + 1e-12

    @pytest.mark.parametrize("target", ["accuracy", "et"])
    def test_fit_does_not_depend_on_record_order(self, small_space, target):
        rng = np.random.default_rng(5)
        records = [
            LabeledRecord(c, float(rng.uniform(40, 90)), float(rng.uniform(1, 500)))
            for c in distinct_samples(small_space, 20)
        ]
        shuffled = [records[i] for i in rng.permutation(len(records))]
        want = fit(records, small_space, target=target)
        assert fit(records[::-1], small_space, target=target) == want
        assert fit(shuffled, small_space, target=target) == want

    def test_too_few_records_rejected(self, small_space):
        archive = [LabeledRecord((0, 0, 0) * 4 + (0, 0), 1.0, 1.0)]
        with pytest.raises(ValueError):
            fit(archive, small_space)

    def test_bad_target_rejected(self, small_space):
        chroms = distinct_samples(small_space, 3)
        archive = [LabeledRecord(c, 1.0, 1.0) for c in chroms]
        with pytest.raises(ValueError):
            fit(archive, small_space, target="latency")
        with pytest.raises(ValueError):
            fit(archive, small_space, ridge=-1.0)


class TestPredict:
    def fitted(self, space, seed=3):
        rng = np.random.default_rng(seed)
        chroms = distinct_samples(space, 30, seed=seed)
        records = [
            LabeledRecord(c, float(rng.uniform(0, 100)), float(rng.uniform(1, 500)))
            for c in chroms
        ]
        return (
            fit(records, space, target="accuracy"),
            fit(records, space, target="et"),
        )

    def test_deterministic(self, small_space):
        acc_pred, _ = self.fitted(small_space)
        chrom = distinct_samples(small_space, 1, seed=50)[0]
        assert predict(acc_pred, chrom, small_space) == predict(
            acc_pred, chrom, small_space
        )

    def test_accuracy_clamped(self, small_space):
        chrom = (1, 1, 1) * 4 + (1, 1)
        n_feats = featurize(chrom, small_space).size
        pred = Predictor(
            target="accuracy",
            feature_mean=tuple(0.0 for _ in range(n_feats)),
            feature_std=tuple(1.0 for _ in range(n_feats)),
            coefficients=tuple(100.0 for _ in range(n_feats)),
            intercept=50.0,
            train_mse=0.0,
        )
        assert 0.0 <= predict(pred, chrom, small_space) <= 100.0

    def test_et_predictions_positive(self, small_space):
        _, et_pred = self.fitted(small_space)
        for chrom in distinct_samples(small_space, 30, seed=77):
            assert predict(et_pred, chrom, small_space) > 0

    def test_near_interpolation_recovers_labels(self, small_space):
        chroms = distinct_samples(small_space, 40, seed=4)
        records = [
            LabeledRecord(c, float(featurize(c, small_space)[0] * 5 + 10), 1.0)
            for c in chroms
        ]
        pred = fit(records, small_space, target="accuracy", ridge=0.0)
        for rec in records[:10]:
            got = predict(pred, rec.genes, small_space)
            assert got == pytest.approx(rec.acc_avg, abs=1e-6)

    def test_rank_usefulness_on_synthetic_labels(self, mobile_space):
        chroms = distinct_samples(mobile_space, 400, seed=0)
        labels = [
            synthetic_oracle(decode(c, mobile_space), seed=0).acc_avg
            for c in chroms
        ]
        train = [
            LabeledRecord(c, l, 1.0)
            for c, l in zip(chroms[:200], labels[:200])
        ]
        pred = fit(train, mobile_space, target="accuracy")
        estimates = [predict(pred, c, mobile_space) for c in chroms[200:]]
        assert spearman(estimates, labels[200:]) >= 0.5


def random_archive(space, n, seed):
    rng = np.random.default_rng(seed)
    return [
        LabeledRecord(c, float(rng.uniform(20, 80)), float(rng.uniform(1, 1e4)))
        for c in distinct_samples(space, n, seed=seed)
    ]


@pytest.fixture(scope="session")
def fitted_predictors(small_space, mobile_space):
    """Accuracy and energy-delay predictors per builtin space, fit on
    seeded random labels."""
    out = {}
    for space in (small_space, mobile_space):
        archive = random_archive(space, 60, seed=8)
        out[space] = (fit(archive, space, "accuracy"), fit(archive, space, "et"))
    return out


@st.composite
def canonical_genes(draw, space):
    genes = []
    for _ in range(space.n_optional):
        genes += [
            draw(st.integers(0, 1)),
            draw(st.integers(0, space.n_head_options - 1)),
            draw(st.integers(0, space.n_quant_options - 1)),
        ]
    genes += [
        draw(st.integers(0, space.n_head_options - 1)),
        draw(st.integers(0, space.n_quant_options - 1)),
    ]
    return canonicalize(tuple(genes), space)


class TestCachedRowsMatchReference:
    """Cached feature rows and per-predictor arrays change no bit of a
    row, a fit or a prediction."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), which=st.sampled_from(["small", "mobile"]))
    def test_rows_and_predictions_bit_equal(
        self, small_space, mobile_space, fitted_predictors, data, which
    ):
        space = small_space if which == "small" else mobile_space
        genes = data.draw(canonical_genes(space))
        want = reference_featurize(genes, space)
        for row in (feature_row(genes, space), featurize(genes, space)):
            assert row.dtype == want.dtype and row.shape == want.shape
            assert np.array_equal(row, want)
            assert row.tobytes() == want.tobytes()
        for pred in fitted_predictors[space]:
            want = bits_of(reference_predict(pred, genes, space))
            assert bits_of(predict(pred, genes, space)) == want
            assert bits_of(predict(pred, list(genes), space)) == want

    def test_row_is_cached_and_read_only(self, small_space):
        genes = (1, 1, 0) * 4 + (0, 1)
        row = feature_row(genes, small_space)
        assert feature_row(tuple(genes), small_space) is row
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 5.0
        with pytest.raises(ValueError):
            row += 1.0
        assert np.array_equal(row, reference_featurize(genes, small_space))

    def test_row_length_checked(self, small_space):
        with pytest.raises(ValueError, match="expected 14 genes"):
            feature_row((0, 0), small_space)

    @pytest.mark.parametrize("target", ["accuracy", "et"])
    def test_fit_equals_fit_on_reference_rows(
        self, mobile_space, monkeypatch, target
    ):
        archive = random_archive(mobile_space, 80, seed=12)
        got = fit(archive, mobile_space, target, ridge=0.01)
        monkeypatch.setattr(
            predict_module,
            "feature_row",
            reference_featurize,
        )
        want = fit(archive, mobile_space, target, ridge=0.01)
        assert got.target == want.target
        for field in ("feature_mean", "feature_std", "coefficients",
                      "intercept", "train_mse"):
            assert bits_of(getattr(got, field)) == bits_of(getattr(want, field))

    def test_predictor_arrays_built_once(self, small_space, fitted_predictors):
        pred = fitted_predictors[small_space][0]
        chrom = distinct_samples(small_space, 1, seed=5)[0]
        predict(pred, chrom, small_space)
        arrays = pred._arrays
        predict(pred, chrom, small_space)
        assert pred._arrays is arrays
        assert [tuple(a) for a in arrays] == [
            pred.feature_mean, pred.feature_std, pred.coefficients
        ]

    def test_record_key_computed_once(self, small_space, monkeypatch):
        records = [
            LabeledRecord((0, 0, 0) * 4 + (1, 0), 50.0, 1.0),
            LabeledRecord((0, 0, 0) * 4 + (0, 0), 40.0, 2.0),
        ]
        keys = [r.key for r in records]
        monkeypatch.setattr(predict_module, "chromosome_hash", None)
        fit(records + records, small_space)  # sorts by key
        assert [r.key for r in records] == keys
