import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    decode,
    sample_architecture,
)
from helpers import chain_backbone, save_external_report
from eenas.evaluate import (
    DatasetError,
    DenseEenn,
    EvaluationReport,
    OracleConfig,
    ReportError,
    TrainingConfig,
    TrainingDiverged,
    first_exit_decisions,
    load_external_report,
    make_toy_dataset,
    report_from_outcomes,
    synthetic_oracle,
    train_toy,
)


#: Scalars of every JSON type, with the edge values of the report fields.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10_000),
    st.just(10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 0.9, 1.0, 50.0, 100.0, "0.9", "1"]),
    st.text(max_size=3),
)


def two_exit_arch(smallconv, depth_final=1, bits=(8, 8), backbone_bits=8):
    head = ExitHeadSpec(depth=1)
    return EennArchitecture(
        backbone=smallconv,
        exits=(
            ExitPlacement("B", head),
            ExitPlacement("E", ExitHeadSpec(depth=depth_final)),
        ),
        quant=QuantScheme(backbone_bits=backbone_bits, exit_bits=bits),
    )


def decision_oracle(confidences, threshold):
    """Literal translation of the exit-ratio indicator: exit i wins when its
    confidence clears the threshold and no earlier one does."""
    m = len(confidences)
    for i in range(1, m + 1):
        hit = confidences[i - 1] >= threshold
        earlier_missed = all(confidences[j] < threshold for j in range(i - 1))
        if hit and earlier_missed:
            return i
    return m


def exit_decision(confidences, threshold):
    """``first_exit_decisions`` of one sample."""
    return int(first_exit_decisions(np.array([confidences]), threshold)[0])


class TestExitDecision:
    def test_first_confident_exit_wins(self):
        assert exit_decision([0.95, 0.4, 0.2], 0.9) == 1

    def test_fallback_to_last(self):
        assert exit_decision([0.5, 0.6, 0.7], 0.9) == 3

    def test_middle_exit(self):
        assert exit_decision([0.85, 0.91, 0.99], 0.9) == 2

    def test_matches_indicator_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            m = int(rng.integers(1, 7))
            conf = rng.uniform(0, 1, m).tolist()
            tau = float(rng.uniform(0.05, 0.95))
            assert exit_decision(conf, tau) == decision_oracle(conf, tau)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        conf = rng.uniform(0, 1, size=(200, 4))
        dec = first_exit_decisions(conf.copy(), 0.8)
        for row, d in zip(conf, dec):
            assert decision_oracle(row.tolist(), 0.8) == d

    def test_raising_threshold_never_lowers_last_exit_ratio(self):
        rng = np.random.default_rng(2)
        conf = rng.uniform(0, 1, size=(500, 3))
        taus = [0.2, 0.5, 0.8, 0.95]
        last = []
        for tau in taus:
            dec = first_exit_decisions(conf.copy(), tau)
            last.append(np.mean(dec == 3))
        assert all(a <= b for a, b in zip(last, last[1:]))


def exit_ratios(decisions, m):
    """The exit ratios ``report_from_outcomes`` counts, every sample
    correct."""
    correct = np.ones(len(decisions), dtype=bool)
    return report_from_outcomes(decisions, correct, m, 0.9).exit_ratios


class TestExitRatios:
    def test_all_first(self):
        assert exit_ratios([1, 1, 1, 1], 3) == (1.0, 0.0, 0.0)

    def test_hand_count(self):
        assert exit_ratios([1, 3, 3, 2], 3) == (0.25, 0.25, 0.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        dec = rng.integers(1, 4, 100)
        shuffled = dec[rng.permutation(100)]
        assert exit_ratios(dec, 3) == exit_ratios(shuffled, 3)

    def test_errors(self):
        with pytest.raises(ReportError):
            exit_ratios([0, 1], 3)
        with pytest.raises(ReportError):
            exit_ratios([4], 3)


def report_of(accuracies, counts, threshold=0.9):
    """The report whose exit ratios are ``counts`` over their total."""
    total = sum(counts)
    return EvaluationReport(
        tuple(accuracies), tuple(c / total for c in counts), tuple(counts), threshold
    )


class TestAccAvg:
    def test_published_int8_row(self):
        report = report_of((99.10, 96.86, 95.70, 66.36), (2549, 1531, 3114, 2806))
        assert report.exit_ratios == (0.2549, 0.1531, 0.3114, 0.2806)
        assert report.acc_avg == pytest.approx(88.51, abs=0.01)

    def test_published_fp32_row(self):
        report = report_of((98.48, 94.73, 93.80, 63.68), (3421, 1422, 2822, 2335))
        assert report.exit_ratios == (0.3421, 0.1422, 0.2822, 0.2335)
        assert report.acc_avg == pytest.approx(88.50, abs=0.01)

    def test_one_hot_returns_single_accuracy(self):
        assert report_of((None, 72.0, None), (0, 10, 0)).acc_avg == 72.0

    def test_zero_ratio_exits_may_be_undefined(self):
        assert report_of((None, 80.0), (0, 10)).acc_avg == 80.0

    def test_errors(self):
        with pytest.raises(ReportError):
            EvaluationReport((90.0,), (0.5, 0.5), (5, 5), 0.9)
        with pytest.raises(ReportError):
            EvaluationReport((90.0, 80.0), (0.5, 0.4), (5, 5), 0.9)
        with pytest.raises(ReportError):
            EvaluationReport((None, 80.0), (0.5, 0.5), (5, 5), 0.9)


class TestGradients:
    def fd_grads(self, net, X, y, step=1e-4):
        grads = {}
        for key, value in net.params.items():
            g = np.zeros_like(value)
            flat = value.ravel()
            gf = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = net.loss_and_grads(X, y)[0]
                flat[i] = orig - step
                down = net.loss_and_grads(X, y)[0]
                flat[i] = orig
                gf[i] = (up - down) / (2 * step)
            grads[key] = g
        return grads

    def test_analytic_matches_central_differences(self):
        backbone = chain_backbone(2)
        head = ExitHeadSpec(depth=1)
        arch = EennArchitecture(
            backbone=backbone,
            exits=(ExitPlacement("M0", head), ExitPlacement("M1", head)),
            quant=QuantScheme(backbone_bits=32, exit_bits=(32, 32)),
        )
        net = DenseEenn(arch, 3, 2, 4, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        X = rng.normal(size=(16, 3))
        y = rng.integers(0, 2, 16)
        _, _, analytic = net.loss_and_grads(X, y)
        numeric = self.fd_grads(net, X, y)
        for key in analytic:
            denom = np.maximum(np.abs(numeric[key]), 1e-6)
            rel = np.abs(analytic[key] - numeric[key]) / denom
            assert rel.max() < 1e-3, key


class TestToyTrainer:
    def test_separable_blobs_reach_high_accuracy(self, smallconv):
        arch = EennArchitecture(
            backbone=smallconv,
            exits=(ExitPlacement("E", ExitHeadSpec(depth=1)),),
            quant=QuantScheme(backbone_bits=32, exit_bits=(32,)),
        )
        X, y = make_toy_dataset(
            n=300, classes=2, easy_fraction=1.0, noise_easy=0.15, seed=0
        )
        config = TrainingConfig(epochs=50, learning_rate=0.05, seed=0)
        report = train_toy(arch, (X, y), config)
        assert report.acc_avg >= 95.0

    def test_extreme_threshold_pushes_samples_to_last_exit(self, smallconv):
        # A lightly trained model rarely clears 0.9999 confidence, so the
        # last exit absorbs nearly everything; at 0.9 it would not.
        arch = two_exit_arch(smallconv)
        X, y = make_toy_dataset(seed=1)
        config = TrainingConfig(
            epochs=5, learning_rate=0.01, threshold=0.9999, seed=0
        )
        report = train_toy(arch, (X, y), config)
        assert report.exit_ratios[-1] >= 0.9
        moderate = TrainingConfig(
            epochs=5, learning_rate=0.01, threshold=0.9, seed=0
        )
        assert (
            train_toy(arch, (X, y), moderate).exit_ratios[-1]
            <= report.exit_ratios[-1]
        )

    def test_same_seed_reproduces_report_exactly(self, smallconv):
        arch = two_exit_arch(smallconv)
        X, y = make_toy_dataset(seed=2)
        config = TrainingConfig(epochs=10, learning_rate=0.05, seed=7)
        assert train_toy(arch, (X, y), config) == train_toy(arch, (X, y), config)

    def test_report_satisfies_invariants(self, smallconv):
        arch = two_exit_arch(smallconv, bits=(8, 4))
        X, y = make_toy_dataset(seed=3)
        config = TrainingConfig(epochs=15, learning_rate=0.05, seed=1)
        report = train_toy(arch, (X, y), config)
        assert math.fsum(report.exit_ratios) == pytest.approx(1.0, abs=1e-9)
        manual = math.fsum(
            r * a
            for r, a in zip(report.exit_ratios, report.accuracy_per_exit)
            if r > 0
        )
        assert report.acc_avg == pytest.approx(manual, abs=1e-9)

    def test_divergence_reports_epoch(self, smallconv):
        arch = two_exit_arch(smallconv, bits=(32, 32), backbone_bits=32)
        X, y = make_toy_dataset(seed=4)
        config = TrainingConfig(epochs=30, learning_rate=1e9, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train_toy(arch, (X, y), config)
        assert isinstance(err.value.epoch, int)

    def test_tiny_dataset_rejected(self, smallconv):
        arch = two_exit_arch(smallconv)
        X, y = make_toy_dataset(n=6, seed=5)
        with pytest.raises(DatasetError):
            train_toy(arch, (X, y), TrainingConfig(epochs=2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("momentum", float("inf")),
            ("weight_decay", float("-inf")),
        ],
    )
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainingConfig(**{field: value})


class TestSyntheticOracle:
    @pytest.mark.parametrize(
        "field", ["mac_exponent", "bits_penalty", "depth_gain", "jitter"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OracleConfig(**{field: value})

    def test_deterministic(self, small_space):
        rng = np.random.default_rng(6)
        for _ in range(5):
            arch = decode(sample_architecture(small_space, rng), small_space)
            assert synthetic_oracle(arch, seed=3) == synthetic_oracle(arch, seed=3)

    def test_internal_consistency(self, small_space):
        rng = np.random.default_rng(7)
        for _ in range(20):
            arch = decode(sample_architecture(small_space, rng), small_space)
            report = synthetic_oracle(arch, seed=0)
            manual = math.fsum(
                r * a
                for r, a in zip(report.exit_ratios, report.accuracy_per_exit)
                if r > 0
            )
            assert report.acc_avg == manual

    def test_last_exit_accuracy_monotone_in_head_depth(self, smallconv):
        for mount_bits in ((8, 8), (4, 8), (8, 4)):
            shallow = two_exit_arch(smallconv, depth_final=1, bits=mount_bits)
            deep = two_exit_arch(smallconv, depth_final=2, bits=mount_bits)
            r1 = synthetic_oracle(shallow, seed=0)
            r2 = synthetic_oracle(deep, seed=0)
            a1 = r1.accuracy_per_exit[-1]
            a2 = r2.accuracy_per_exit[-1]
            if a1 is not None and a2 is not None:
                assert a2 >= a1

    def test_accuracy_rises_with_bit_width(self, smallconv):
        low = two_exit_arch(smallconv, bits=(4, 4))
        high = two_exit_arch(smallconv, bits=(8, 8))
        r_low = synthetic_oracle(low, seed=0)
        r_high = synthetic_oracle(high, seed=0)
        assert r_high.accuracy_per_exit[0] >= r_low.accuracy_per_exit[0]

    def test_too_early_mounts_never_capture(self, smallconv):
        head = ExitHeadSpec(depth=1)
        arch = EennArchitecture(
            backbone=smallconv,
            exits=(ExitPlacement("A", head), ExitPlacement("E", head)),
            quant=QuantScheme(backbone_bits=8, exit_bits=(8, 8)),
        )
        report = synthetic_oracle(arch, OracleConfig(capability_floor=0.2), seed=0)
        assert report.exit_ratios[0] == 0.0
        assert report.accuracy_per_exit[0] is None


class TestReportProtocol:
    def published_report(self):
        return EvaluationReport(
            accuracy_per_exit=(99.10, 96.86, 95.70, 66.36),
            exit_ratios=(0.2549, 0.1531, 0.3114, 0.2806),
            sample_counts=(2549, 1531, 3114, 2806),
            threshold=0.9,
        )

    def test_roundtrip_is_bit_exact(self, tmp_path):
        report = self.published_report()
        path = tmp_path / "report.json"
        save_external_report(report, "abcd1234abcd1234", str(path))
        got_hash, got = load_external_report(str(path))
        assert got_hash == "abcd1234abcd1234"
        assert got == report
        assert got.acc_avg == report.acc_avg

    def test_bad_ratio_sum_rejected(self, tmp_path):
        payload = {
            "architecture": "x",
            "threshold": 0.9,
            "accuracy_per_exit": [90.0, 80.0],
            "exit_ratios": [0.5, 0.4],
            "sample_counts": [500, 400],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReportError):
            load_external_report(str(path))

    def test_schema_violations_rejected(self, tmp_path):
        payload = {
            "architecture": "x",
            "threshold": 0.9,
            "accuracy_per_exit": [90.0],
            "exit_ratios": [1.0],
            "sample_counts": [100],
        }
        missing = dict(payload)
        del missing["threshold"]
        extra = dict(payload, bogus=1)
        for bad in (missing, extra):
            path = tmp_path / "schema.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ReportError):
                load_external_report(str(path))
        path = tmp_path / "notjson.json"
        path.write_text("{nope")
        with pytest.raises(ReportError):
            load_external_report(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("threshold", "0.9", "threshold must be finite and numeric"),
            ("threshold", True, "threshold must be finite and numeric"),
            ("exit_ratios", ["0.25", 0.75], "exit_ratios must be a list of finite numbers"),
            ("sample_counts", [True, 3], "sample_counts must be a list of integers"),
            ("sample_counts", [1.0, 3], "sample_counts must be a list of integers"),
            ("accuracy_per_exit", [90.0, "80"],
             "accuracy_per_exit must be a list of numbers or nulls"),
        ],
    )
    def test_values_are_not_coerced(self, tmp_path, field, value, message):
        """A report's numbers are read as written: a string, a bool or a
        float count is refused, naming its field."""
        payload = {
            "architecture": "x",
            "threshold": 0.9,
            "accuracy_per_exit": [90.0, 80.0],
            "exit_ratios": [0.25, 0.75],
            "sample_counts": [1, 3],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert load_external_report(str(path))[1].sample_counts == (1, 3)
        path.write_text(json.dumps(dict(payload, **{field: value})))
        with pytest.raises(ReportError, match=f"^{message}$"):
            load_external_report(str(path))

    def test_bad_report_fails_only_its_architecture(self, tmp_path, small_space):
        from eenas.arch import chromosome_hash
        from eenas.search import EvaluationFailure, ExternalEvaluator

        chrom = sample_architecture(small_space, np.random.default_rng(0))
        arch = decode(chrom, small_space)
        key = chromosome_hash(chrom)
        path = tmp_path / f"{key}.json"
        save_external_report(synthetic_oracle(arch), key, str(path))
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(dict(payload, threshold="0.9")))
        with pytest.raises(EvaluationFailure, match="threshold must be"):
            ExternalEvaluator(str(tmp_path))(key, arch)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fixed_dictionaries(
            {
                "architecture": st.one_of(st.text(max_size=3), JSON_VALUES),
                "threshold": JSON_VALUES,
                "accuracy_per_exit": st.one_of(JSON_VALUES, st.lists(JSON_VALUES, max_size=3)),
                "exit_ratios": st.one_of(
                    JSON_VALUES,
                    st.lists(JSON_VALUES, max_size=3),
                    st.sampled_from([[1], [0.5, 0.5], [0, 1], [0.25, 0.75]]),
                ),
                "sample_counts": st.one_of(
                    st.lists(JSON_VALUES, max_size=3),
                    st.sampled_from([[5], [1, 1], [0, 3], [1, 3]]),
                ),
            },
            optional={"extra": JSON_VALUES},
        )
    )
    def test_load_gives_a_report_or_its_error(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "property-report.json"
        path.write_text(json.dumps(payload))
        try:
            key, report = load_external_report(str(path))
        except ReportError:
            return
        assert isinstance(key, str)
        assert math.isfinite(report.acc_avg)

    def test_hash_binding(self, tmp_path):
        path = tmp_path / "r.json"
        save_external_report(self.published_report(), "aaaa", str(path))
        with pytest.raises(ReportError):
            load_external_report(str(path), expected_hash="bbbb")

    def test_count_ratio_consistency_enforced(self, tmp_path):
        payload = {
            "architecture": "x",
            "threshold": 0.9,
            "accuracy_per_exit": [90.0, 80.0],
            "exit_ratios": [0.5, 0.5],
            "sample_counts": [700, 300],
        }
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReportError):
            load_external_report(str(path))

    def test_zero_count_requires_undefined_accuracy(self):
        with pytest.raises(ReportError):
            EvaluationReport(
                accuracy_per_exit=(90.0, 80.0),
                exit_ratios=(1.0, 0.0),
                sample_counts=(100, 0),
                threshold=0.9,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("accuracy_per_exit", ("80", None), "a list of numbers or nulls"),
            ("accuracy_per_exit", (True, None), "a list of numbers or nulls"),
            ("accuracy_per_exit", 80.0, "a list of numbers or nulls"),
            ("exit_ratios", (True, 0.0), "a list of finite numbers"),
            ("exit_ratios", ("1", 0.0), "a list of finite numbers"),
            ("sample_counts", (10.5, 0), "a list of integers"),
            ("sample_counts", (np.int64(10), 0), "a list of integers"),
            ("threshold", "0.9", "finite and numeric"),
            ("threshold", math.nan, "finite and numeric"),
        ],
    )
    def test_field_types_checked_where_built(self, field, value, message):
        """Every way of building a report checks its field types, so a
        wrong type is a :class:`ReportError`, never a ``TypeError`` from
        a later comparison or a value written to the history as is."""
        fields = {
            "accuracy_per_exit": (80.0, None),
            "exit_ratios": (1.0, 0.0),
            "sample_counts": (10, 0),
            "threshold": 0.9,
        }
        assert EvaluationReport(**fields).acc_avg == 80.0
        with pytest.raises(ReportError, match=f"^{field} must be {message}$"):
            EvaluationReport(**dict(fields, **{field: value}))

    def test_non_finite_ratios_rejected(self):
        with pytest.raises(ReportError):
            EvaluationReport(
                accuracy_per_exit=(90.0, 80.0),
                exit_ratios=(math.nan, math.nan),
                sample_counts=(5, 5),
                threshold=0.9,
            )

    def test_report_from_outcomes_marks_empty_exits(self):
        decisions = np.array([1, 1, 3, 3])
        correct = np.array([True, False, True, True])
        report = report_from_outcomes(decisions, correct, 3, 0.9)
        assert report.exit_ratios == (0.5, 0.0, 0.5)
        assert report.accuracy_per_exit[0] == 50.0
        assert report.accuracy_per_exit[1] is None
        assert report.accuracy_per_exit[2] == 100.0
