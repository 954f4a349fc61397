import numpy as np
import pytest

from eenas.arch import Chromosome, decode, enumerate_space, sample_architecture
from eenas.evaluate import synthetic_oracle
from eenas.predict import (
    LabeledRecord,
    LabeledSet,
    Predictor,
    featurize,
    fit,
    predict,
)
from helpers import spearman


def distinct_samples(space, n, seed=0):
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    while len(out) < n:
        chrom = sample_architecture(space, rng)
        if chrom.genes in seen:
            continue
        seen.add(chrom.genes)
        out.append(chrom)
    return out


class TestFeaturize:
    def test_single_exit_architecture(self, small_space):
        chrom = Chromosome((0, 0, 0) * 4 + (1, 1))
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
        assert len(seen) == small_space.size() == 2500

    def test_length_mismatch_rejected(self, small_space):
        with pytest.raises(ValueError):
            featurize(Chromosome((0, 0)), small_space)


class TestLabeledSet:
    def test_latest_record_wins(self):
        genes = (0, 0, 0) * 4 + (0, 0)
        archive = LabeledSet()
        archive.add(LabeledRecord(genes, 10.0, 1.0))
        archive.add(LabeledRecord(genes, 20.0, 2.0))
        assert len(archive) == 1
        assert next(iter(archive)).acc_avg == 20.0

    def test_iteration_in_hash_order(self, small_space):
        records = [
            LabeledRecord(c.genes, float(i), float(i + 1))
            for i, c in enumerate(distinct_samples(small_space, 20))
        ]
        archive = LabeledSet(records)
        keys = [r.key for r in archive]
        assert keys == sorted(keys)

    def test_superset_growth(self, small_space):
        chroms = distinct_samples(small_space, 10)
        archive = LabeledSet()
        previous = set()
        for i, chrom in enumerate(chroms):
            archive.add(LabeledRecord(chrom.genes, float(i), 1.0))
            assert previous <= archive.keys()
            previous = archive.keys()


class TestFit:
    def test_exact_linear_target_interpolates(self, small_space):
        chroms = distinct_samples(small_space, 30)
        records = [
            LabeledRecord(c.genes, float(featurize(c, small_space)[0] * 7 + 3), 1.0)
            for c in chroms
        ]
        pred = fit(LabeledSet(records), small_space, target="accuracy", ridge=0.0)
        assert pred.train_mse <= 1e-9

    def test_constant_targets_yield_constant_predictor(self, small_space):
        chroms = distinct_samples(small_space, 10)
        records = [LabeledRecord(c.genes, 42.0, 5.0) for c in chroms]
        pred = fit(LabeledSet(records), small_space, target="accuracy")
        for chrom in distinct_samples(small_space, 10, seed=99):
            assert predict(pred, chrom, small_space) == pytest.approx(42.0)

    def test_matches_hand_normal_equations(self, small_space):
        chroms = distinct_samples(small_space, 12)
        rng = np.random.default_rng(1)
        records = [
            LabeledRecord(c.genes, float(rng.uniform(40, 90)), 1.0) for c in chroms
        ]
        ridge = 0.5
        pred = fit(LabeledSet(records), small_space, target="accuracy", ridge=ridge)
        # Independent solve in plain numpy, mirroring the documented math.
        ordered = sorted(records, key=lambda r: r.key)
        X = np.stack([featurize(Chromosome(r.genes), small_space) for r in ordered])
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
            LabeledRecord(c.genes, float(rng.uniform(0, 100)), float(rng.uniform(1, 9)))
            for c in chroms
        ]
        for target in ("accuracy", "et"):
            pred = fit(LabeledSet(records), small_space, target=target)
            if target == "accuracy":
                y = np.array([r.acc_avg for r in records])
            else:
                y = np.log([r.et_avg for r in records])
            assert pred.train_mse <= y.var() + 1e-12

    def test_too_few_records_rejected(self, small_space):
        archive = LabeledSet([LabeledRecord((0, 0, 0) * 4 + (0, 0), 1.0, 1.0)])
        with pytest.raises(ValueError):
            fit(archive, small_space)

    def test_bad_target_rejected(self, small_space):
        chroms = distinct_samples(small_space, 3)
        archive = LabeledSet(LabeledRecord(c.genes, 1.0, 1.0) for c in chroms)
        with pytest.raises(ValueError):
            fit(archive, small_space, target="latency")
        with pytest.raises(ValueError):
            fit(archive, small_space, ridge=-1.0)


class TestPredict:
    def fitted(self, space, seed=3):
        rng = np.random.default_rng(seed)
        chroms = distinct_samples(space, 30, seed=seed)
        records = [
            LabeledRecord(c.genes, float(rng.uniform(0, 100)), float(rng.uniform(1, 500)))
            for c in chroms
        ]
        archive = LabeledSet(records)
        return (
            fit(archive, space, target="accuracy"),
            fit(archive, space, target="et"),
        )

    def test_deterministic(self, small_space):
        acc_pred, _ = self.fitted(small_space)
        chrom = distinct_samples(small_space, 1, seed=50)[0]
        assert predict(acc_pred, chrom, small_space) == predict(
            acc_pred, chrom, small_space
        )

    def test_accuracy_clamped(self, small_space):
        chrom = Chromosome((1, 1, 1) * 4 + (1, 1))
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
            LabeledRecord(c.genes, float(featurize(c, small_space)[0] * 5 + 10), 1.0)
            for c in chroms
        ]
        pred = fit(LabeledSet(records), small_space, target="accuracy", ridge=0.0)
        for rec in records[:10]:
            got = predict(pred, Chromosome(rec.genes), small_space)
            assert got == pytest.approx(rec.acc_avg, abs=1e-6)

    def test_rank_usefulness_on_synthetic_labels(self, mobile_space):
        chroms = distinct_samples(mobile_space, 400, seed=0)
        labels = [
            synthetic_oracle(decode(c, mobile_space), seed=0).acc_avg
            for c in chroms
        ]
        train = LabeledSet(
            LabeledRecord(c.genes, l, 1.0)
            for c, l in zip(chroms[:200], labels[:200])
        )
        pred = fit(train, mobile_space, target="accuracy")
        estimates = [predict(pred, c, mobile_space) for c in chroms[200:]]
        assert spearman(estimates, labels[200:]) >= 0.5
