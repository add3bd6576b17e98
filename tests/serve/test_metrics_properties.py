"""Property tests for the metrics fold (:mod:`repro.serve.metrics`).

The Prometheus exposition and the regression-gate baselines both trust
:func:`summarize` to be a plain linear fold of step reports — every
cumulative :class:`EngineMetrics` counter equal to the sum of the
per-step fields, traffic folded component-wise, empty inputs producing
an all-zero summary rather than NaNs.  These properties are checked
over hypothesis-generated report lists instead of one hand-picked
workload.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.hw.traffic import StepTraffic
from repro.serve.metrics import EngineMetrics, StepReport, percentile, summarize

#: (StepReport field, EngineMetrics field) pairs related by summation.
SUMMED_FIELDS = (
    ("new_tokens", "total_new_tokens"),
    ("elapsed_seconds", "total_seconds"),
    ("prefill_tokens", "prefill_tokens"),
    ("partial_prefills", "partial_prefills"),
    ("preemptions", "preemptions"),
    ("evicted_blocks", "evicted_blocks"),
    ("prefix_hit_tokens", "prefix_hit_tokens"),
    ("prefix_saved_bytes", "prefix_saved_bytes"),
    ("kv_copy_bytes", "kv_copy_bytes"),
    ("kv_dequant_bytes", "kv_dequant_bytes"),
    ("attention_dispatches", "attention_dispatches"),
)

counts = st.integers(min_value=0, max_value=10_000)
byte_counts = st.integers(min_value=0, max_value=10**12)
seconds = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
traffic_bytes = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)

step_traffics = st.builds(
    StepTraffic,
    weight_bytes=traffic_bytes,
    kv_read_bytes=traffic_bytes,
    kv_write_bytes=traffic_bytes,
    activation_bytes=traffic_bytes,
)

step_reports = st.builds(
    StepReport,
    step=counts,
    prefills=st.integers(min_value=0, max_value=64),
    decodes=st.integers(min_value=0, max_value=64),
    new_tokens=counts,
    batch_tokens=counts,
    elapsed_seconds=seconds,
    traffic=step_traffics,
    prefill_tokens=counts,
    partial_prefills=counts,
    preemptions=counts,
    evicted_blocks=counts,
    prefix_hit_tokens=counts,
    prefix_saved_bytes=traffic_bytes,
    kv_copy_bytes=byte_counts,
    kv_dequant_bytes=byte_counts,
    attention_dispatches=counts,
    attention_padded_reads=counts,
)


class TestPercentile:
    def test_empty_values_fold_to_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.0) == 0.0

    @given(q=st.floats(allow_nan=True))
    def test_q_outside_unit_interval_raises(self, q):
        if 0.0 <= q <= 1.0:
            percentile([1.0], q)
        else:
            with pytest.raises(ModelError, match=r"\[0, 1\]"):
                percentile([1.0], q)

    @given(
        value=st.floats(
            min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_single_sample_is_every_percentile(self, value, q):
        assert percentile([value], q) == value

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_result_bounded_by_extremes_and_monotone_at_ends(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 1.0) == max(values)


class TestSummarizeEmpty:
    def test_empty_reports_fold_to_zero_summary(self):
        metrics = summarize([], [])
        assert metrics.steps == 0
        assert metrics.total_new_tokens == 0
        assert metrics.total_seconds == 0.0
        assert metrics.tokens_per_second == 0.0
        assert metrics.mean_batch_size == 0.0
        assert metrics.traffic == StepTraffic()
        assert metrics.traffic.total_bytes == 0.0
        assert metrics.aborted == 0
        assert metrics.requests == []
        for _, aggregate in SUMMED_FIELDS:
            assert getattr(metrics, aggregate) == 0
        # Percentile views must render (as zero), not raise, before any
        # request finishes.
        assert metrics.ttft_p50_seconds == 0.0
        assert metrics.itl_p95_seconds == 0.0
        assert metrics.mean_latency_seconds == 0.0

    def test_idle_only_steps_have_zero_mean_batch_size(self):
        report = StepReport(
            step=0,
            prefills=0,
            decodes=0,
            new_tokens=0,
            batch_tokens=0,
            elapsed_seconds=0.5,
            traffic=StepTraffic(),
        )
        assert summarize([report, report], []).mean_batch_size == 0.0


class TestSummarizeFold:
    @settings(max_examples=50)
    @given(reports=st.lists(step_reports, max_size=30))
    def test_every_counter_is_the_sum_of_per_step_fields(self, reports):
        metrics = summarize(reports, [])
        assert metrics.steps == len(reports)
        for per_step, aggregate in SUMMED_FIELDS:
            expected = sum(getattr(report, per_step) for report in reports)
            assert getattr(metrics, aggregate) == pytest.approx(expected), (
                per_step,
                aggregate,
            )

    @settings(max_examples=50)
    @given(reports=st.lists(step_reports, max_size=30))
    def test_traffic_folds_component_wise(self, reports):
        traffic = summarize(reports, []).traffic
        for component in (
            "weight_bytes",
            "kv_read_bytes",
            "kv_write_bytes",
            "activation_bytes",
        ):
            expected = sum(getattr(report.traffic, component) for report in reports)
            assert getattr(traffic, component) == pytest.approx(expected)
        assert traffic.total_bytes == pytest.approx(
            traffic.weight_bytes
            + traffic.kv_read_bytes
            + traffic.kv_write_bytes
            + traffic.activation_bytes
        )

    @settings(max_examples=50)
    @given(reports=st.lists(step_reports, max_size=30))
    def test_throughput_and_batch_size_derivations(self, reports):
        metrics = summarize(reports, [])
        if metrics.total_seconds > 0:
            assert metrics.tokens_per_second == pytest.approx(
                metrics.total_new_tokens / metrics.total_seconds
            )
        else:
            assert metrics.tokens_per_second == 0.0
        active = [
            report.prefills + report.decodes
            for report in reports
            if report.prefills + report.decodes > 0
        ]
        if active:
            assert metrics.mean_batch_size == pytest.approx(sum(active) / len(active))
        else:
            assert metrics.mean_batch_size == 0.0
        assert not math.isnan(metrics.tokens_per_second)

    @settings(max_examples=25)
    @given(
        left=st.lists(step_reports, max_size=15),
        right=st.lists(step_reports, max_size=15),
        aborted=st.integers(min_value=0, max_value=100),
    )
    def test_fold_is_concatenation_linear(self, left, right, aborted):
        """summarize(a + b) sums what summarize(a) and summarize(b) sum."""
        combined = summarize(left + right, [], aborted=aborted)
        parts = (summarize(left, []), summarize(right, []))
        assert combined.steps == parts[0].steps + parts[1].steps
        assert combined.aborted == aborted
        for _, aggregate in SUMMED_FIELDS:
            assert getattr(combined, aggregate) == pytest.approx(
                getattr(parts[0], aggregate) + getattr(parts[1], aggregate)
            )
        assert combined.traffic.total_bytes == pytest.approx(
            parts[0].traffic.total_bytes + parts[1].traffic.total_bytes
        )

    def test_requests_are_copied_not_aliased(self):
        requests: list = []
        metrics = summarize([], requests)
        requests.append(object())
        assert metrics.requests == []

    def test_summary_is_an_engine_metrics(self):
        assert isinstance(summarize([], []), EngineMetrics)
