"""Evaluation tests: confusion tallies against a brute-force oracle,
metric arithmetic on published reference counts, timing economics, and
comparison-report gap calculations."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minibert.errors import ConfigError
from minibert.evaluation import (
    METRIC_NAMES,
    ConfusionMatrix,
    MetricsReport,
    TimingRecord,
    accuracy_per_minute,
    compare_report,
    confusion_matrix,
    metric_gap_percent,
    metrics,
    relative_overhead,
    round_half_up,
    rounded,
)
from _oracles import _binary_metrics, _macro_metrics, brute_force_confusion

# reference binary counts with well-known derived metrics
REF = dict(tn=11858, fp=150, fn=565, tp=11427)


@st.composite
def count_matrices(draw) -> np.ndarray:
    """1-5 class confusion counts, often with all-zero rows and columns."""
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, 40), min_size=n * n, max_size=n * n))
    counts = np.array(cells, dtype=np.int64).reshape(n, n)
    counts[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0
    counts[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    assume(counts.sum() > 0)
    return counts


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix([0, 1, 0], [0, 1, 0], num_classes=2)
        assert cm.counts.tolist() == [[2, 0], [0, 1]]

    def test_all_false_positives(self):
        cm = confusion_matrix([1, 1], [0, 0], num_classes=2)
        assert (cm.tn, cm.fp, cm.fn, cm.tp) == (0, 2, 0, 0)

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(47)
        predicted = rng.integers(0, 4, size=1000)
        actual = rng.integers(0, 4, size=1000)
        cm = confusion_matrix(predicted, actual, num_classes=4)
        assert np.array_equal(cm.counts, brute_force_confusion(predicted, actual, 4))

    def test_entries_sum_to_input_length(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            classes = int(rng.integers(2, 5))
            cm = confusion_matrix(
                rng.integers(0, classes, size=n), rng.integers(0, classes, size=n), classes
            )
            assert cm.total == n

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            confusion_matrix([0, 1], [0], num_classes=2)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            confusion_matrix([0, 2], [0, 1], num_classes=2)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((-1, 2, 3, 4), "^confusion counts must be nonnegative$"),
            ((10**20, 2, 3, 4), "^confusion counts must total at most 2\\*\\*63 - 1$"),
            ((2**62, 2**62, 0, 0), "^confusion counts must total at most 2\\*\\*63 - 1$"),
        ],
        ids=["negative", "count past int64", "total past int64"],
    )
    def test_counts_must_be_nonnegative_and_fit_int64(self, counts, message):
        with pytest.raises(ConfigError, match=message):
            ConfusionMatrix.from_binary(*counts)

    def test_largest_total_is_scored(self):
        cm = ConfusionMatrix.from_binary(2**62, 2**62 - 1, 0, 0)
        assert cm.counts.dtype == np.int64 and cm.total == 2**63 - 1
        assert metrics(cm).accuracy == 0.5

    def test_binary_accessors(self):
        cm = ConfusionMatrix.from_binary(**REF)
        assert cm.counts[0, 0] == REF["tn"] and cm.counts[0, 1] == REF["fp"]
        assert cm.counts[1, 0] == REF["fn"] and cm.counts[1, 1] == REF["tp"]


class TestMetrics:
    def test_reference_counts_reproduce_published_values(self):
        report = metrics(ConfusionMatrix.from_binary(**REF))
        assert abs(report.accuracy - 0.9702) < 5e-5
        assert abs(report.precision - 0.9870) < 5e-5
        assert abs(report.recall - 0.9529) < 5e-5
        assert abs(report.f1 - 0.9697) < 5e-5
        assert report.undefined == ()

    def test_all_correct_gives_ones(self):
        report = metrics(ConfusionMatrix.from_binary(tn=5, fp=0, fn=0, tp=7))
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            1.0, 1.0, 1.0, 1.0,
        )

    def test_zero_denominator_rule(self):
        report = metrics(ConfusionMatrix.from_binary(tn=3, fp=0, fn=2, tp=0))
        assert report.precision == 0.0
        assert "precision" in report.undefined
        assert report.recall == 0.0 and "recall" not in report.undefined
        assert report.f1 == 0.0 and "f1" in report.undefined

    def test_metrics_stay_in_unit_interval_with_f1_between(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            counts = rng.integers(0, 50, size=4)
            if counts.sum() == 0:
                continue
            report = metrics(ConfusionMatrix.from_binary(*counts.tolist()))
            values = [report.accuracy, report.precision, report.recall, report.f1]
            assert all(0.0 <= v <= 1.0 for v in values)
            if not report.undefined:
                assert min(report.precision, report.recall) <= report.f1
                assert report.f1 <= max(report.precision, report.recall)

    @settings(max_examples=400, deadline=None)
    @given(count_matrices())
    @example(np.array([[3, 0], [2, 0]]))
    def test_one_scoring_path_matches_the_forked_reference(self, counts):
        cm = ConfusionMatrix(counts)
        report = metrics(cm)
        reference = _binary_metrics(cm) if cm.num_classes == 2 else _macro_metrics(cm)
        assert json.dumps(report.as_dict()) == json.dumps(reference.as_dict())
        assert {type(r.value(m)) for r in (report, reference) for m in METRIC_NAMES} == {float}

    def test_accuracy_equals_trace_over_total(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 2], num_classes=3)
        report = metrics(cm)
        assert report.accuracy == np.trace(cm.counts) / cm.total

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int)))

    def test_empty_matrix_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^cannot compute metrics for an empty"):
            metrics(ConfusionMatrix.from_binary(0, 0, 0, 0))

    def test_macro_average_extension(self):
        cm = confusion_matrix([0, 1, 2, 2, 1], [0, 1, 2, 1, 1], num_classes=3)
        report = metrics(cm)
        assert 0.0 <= report.precision <= 1.0
        assert report.accuracy == 4 / 5


class TestTimingEconomics:
    def test_accuracy_per_minute_published_rows(self):
        assert round_half_up(accuracy_per_minute(0.9702, 212), 4) == 0.0046
        assert round_half_up(accuracy_per_minute(0.9707, 190), 4) == 0.0051
        assert round_half_up(accuracy_per_minute(0.9982, 792), 4) == 0.0013

    def test_accuracy_per_minute_validation(self):
        with pytest.raises(ValueError, match="positive"):
            accuracy_per_minute(0.9, 0.0)

    @pytest.mark.parametrize("minutes", [float("nan"), float("inf")])
    def test_accuracy_per_minute_rejects_non_finite_minutes(self, minutes):
        with pytest.raises(ValueError, match=f"^minutes must be finite, got {minutes}$"):
            accuracy_per_minute(0.9, minutes)

    def test_accuracy_per_minute_rejects_an_overflowing_ratio(self):
        with pytest.raises(ConfigError, match="^accuracy per minute must be finite"):
            accuracy_per_minute(0.5, 1e-320)

    @pytest.mark.parametrize("minutes", [float("nan"), float("inf")])
    def test_timing_record_rejects_non_finite_minutes(self, minutes):
        with pytest.raises(ConfigError, match=f"^minutes must be finite, got {minutes}$"):
            TimingRecord("x", minutes, 0.9)

    def test_relative_overhead_published_value(self):
        assert abs(relative_overhead(212, 190) - 11.58) < 0.01

    def test_relative_overhead_zero_and_sign(self):
        assert relative_overhead(190, 190) == 0.0
        assert relative_overhead(95, 190) == -50.0

    def test_relative_overhead_validation(self):
        with pytest.raises(ValueError, match="baseline"):
            relative_overhead(10, 0)

    def test_timing_record_consistency(self):
        record = TimingRecord(model_name="m", training_minutes=2.5, accuracy=0.9)
        assert record.accuracy_per_minute == 0.9 / 2.5
        with pytest.raises(ValueError, match="positive"):
            TimingRecord(model_name="m", training_minutes=0, accuracy=0.9)


def _report(accuracy, precision, recall, f1):
    cm = ConfusionMatrix.from_binary(tn=1, fp=1, fn=1, tp=1)
    return MetricsReport(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1, confusion=cm
    )


class TestCompareReport:
    def test_accuracy_gap_published_value(self):
        gap = metric_gap_percent(0.9702, 0.9612)
        assert abs(gap - 0.94) < 0.01

    def test_precision_gap_published_value(self):
        gap = metric_gap_percent(0.9937, 0.9870)
        assert abs(gap - 0.68) < 0.01

    def test_identical_values_have_zero_gap(self):
        assert metric_gap_percent(0.5, 0.5) == 0.0

    def test_pairwise_structure_and_largest_gap(self):
        ensemble = _report(0.9702, 0.9870, 0.9529, 0.9697)
        base = _report(0.9612, 0.9825, 0.9510, 0.9665)
        report = compare_report([("ensemble", ensemble, None), ("base", base, None)])
        assert len(report.pairs) == 2
        forward = next(p for p in report.pairs if p.name_a == "ensemble")
        assert abs(forward.gaps_percent["accuracy"] - 0.9363) < 0.01
        assert forward.largest_gap_metric == "accuracy"

    def test_zero_baseline_gap_is_none(self):
        a = _report(0.5, 0.5, 0.5, 0.5)
        b = _report(0.0, 0.5, 0.5, 0.5)
        report = compare_report([("a", a, None), ("b", b, None)])
        pair = next(p for p in report.pairs if p.name_a == "a")
        assert pair.gaps_percent["accuracy"] is None

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError, match="at least one"):
            compare_report([])

    def test_markdown_round_trips_table_values(self):
        ensemble = _report(0.9702, 0.9870, 0.9529, 0.9697)
        timing = TimingRecord(model_name="ensemble", training_minutes=212, accuracy=0.9702)
        report = compare_report([("ensemble", ensemble, timing)])
        text = report.metrics_markdown()
        assert "| Accuracy | 0.9702 |" in text
        timing_text = report.timing_markdown()
        assert "| ensemble | 212.00 | 0.9702 | 0.0046 |" in timing_text


class TestRounding:
    def test_half_up_behavior(self):
        assert round_half_up(0.00125, 4) == 0.0013
        assert round_half_up(0.00115, 4) == 0.0012
        assert round_half_up(2.5, 0) == 3.0
        assert round_half_up(0.970208, 4) == 0.9702

    def test_every_digit_is_kept(self):
        assert round_half_up(5e299, 4) == 5e299
        assert round_half_up(1.7976931348623157e308, 4) == 1.7976931348623157e308
        assert round_half_up(9.99995, 4) == 10.0

    def test_large_values_print_their_rounded_digits(self):
        assert rounded(0.5 / 1e-25, 4) == "4999999999999999000000000.0000"
        assert rounded(-5e299, 2) == "-5" + "0" * 299 + ".00"
        assert rounded(1e20 / 3, 2, sign="+") == "+33333333333333330000.00"

    @given(
        st.floats(-1e6, 1e6), st.sampled_from([0, 2, 4]), st.sampled_from(["", "+"])
    )
    def test_ordinary_values_print_as_the_rounded_float_did(self, value, decimals, sign):
        # report.md stays byte for byte what formatting round_half_up's float wrote
        expected = format(round_half_up(value, decimals), f"{sign}.{decimals}f")
        assert rounded(value, decimals, sign) == expected
