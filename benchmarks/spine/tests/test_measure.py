"""The percentile helper, segment rates, rests, the repeatability statistic."""

import pytest

from spine import measure


def test_percentile_refuses_an_unsupported_tail():
    samples = list(range(99))       # 9 samples beyond p90
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(samples, 90)
    assert measure.percentile(list(range(100)), 90) == pytest.approx(89.1)
    # The median never needs a tail.
    assert measure.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_interpolates():
    assert measure.percentile([0.0, 10.0], 50) == 5.0
    assert measure.percentile([1.0], 99, min_beyond=0) == 1.0
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([], 50)


def test_highest_supported_percentile():
    assert measure.highest_supported_percentile(2000) == 99.0
    assert measure.highest_supported_percentile(200) == 95.0
    assert measure.highest_supported_percentile(100) == 90.0
    assert measure.highest_supported_percentile(99) == 75.0
    assert measure.highest_supported_percentile(5) == 50.0


def _rounds(durations, rest=0.5, per_round=4):
    """Consecutive rounds with a rest after each, and ``per_round``
    completions evenly spaced in every round."""
    rounds, finishes, clock = [], [], 0.0
    for duration in durations:
        rounds.append((clock, clock + duration))
        finishes += [clock + duration * (k + 1) / per_round
                     for k in range(per_round)]
        clock += duration + rest
    return rounds, finishes


def test_segment_rates_use_equal_work():
    # 40 rounds of 1 s with 4 completions each: ten segments of 4 rounds,
    # each 4 1/s -- the rests count for nothing.
    rounds, finishes = _rounds([1.0] * 40)
    rates = measure.segment_rates(finishes, rounds, [1.0] * 40)
    assert rates == pytest.approx([4.0] * 10)
    # A machine at half speed for four rounds took twice as long over
    # them; at reference speed that segment reads the same.
    slow = [8 <= i < 12 for i in range(40)]
    rounds, finishes = _rounds([2.0 if s else 1.0 for s in slow])
    speeds = [0.5 if s else 1.0 for s in slow]
    assert measure.segment_rates(finishes, rounds, speeds) == \
        pytest.approx([4.0] * 10)
    assert min(measure.segment_rates(finishes, rounds, [1.0] * 40)) == \
        pytest.approx(2.0)


def test_segment_rates_keep_rounds_whole():
    rounds, finishes = _rounds([1.0] * 47, per_round=1)
    # 47 // 5 = 9 rounds per segment; the last 2 rounds are dropped.
    rates = measure.segment_rates(finishes, rounds, [1.0] * 47, n_segments=5)
    assert rates == pytest.approx([1.0] * 5)
    with pytest.raises(measure.TooFewSamples):
        measure.segment_rates(finishes[:4], rounds[:4], [1.0] * 4,
                              n_segments=5)


def test_rests_scale_each_stretch_by_the_readings_around_it(monkeypatch):
    dispatch, stream = measure.REFERENCE_MS
    readings = iter([(dispatch, stream), (dispatch, stream),
                     (2 * dispatch, stream), (2 * dispatch, 3 * stream)])
    clock = iter([0.0, 0.0,      # first rest: arrive, release
                  1.0, 1.5,      # a 1 s stretch, then a 0.5 s rest
                  3.5, 4.0,      # a 2 s stretch
                  5.0, 5.5])     # a 1 s stretch
    monkeypatch.setattr(measure.ReferenceKernel, "time_ms",
                        lambda self: next(readings))
    monkeypatch.setattr(measure.time, "perf_counter", lambda: next(clock))
    # All of the work goes with the dispatch reading.
    rests = measure.Rests(shares=(1.0, 0.0))
    for _ in range(4):
        rests.rest()
    assert rests.stretches == [(0.0, 1.0), (1.5, 3.5), (4.0, 5.0)]
    # reference over the mean of the readings on either side
    assert rests.speeds == pytest.approx([1.0, 1 / 1.5, 0.5])
    assert rests.speeds_at([0.5, 3.5]) == pytest.approx([1.0, 1 / 1.5])
    with pytest.raises(ValueError):
        rests.speeds_at([3.75])      # during a rest
    assert rests.reference_seconds() == pytest.approx(
        1.0 + 2.0 / 1.5 + 0.5)
    # Half with the dispatch reading, a quarter with the stream reading,
    # a quarter with neither.
    rests.shares = (0.5, 0.25)
    assert rests.speeds == pytest.approx(
        [1.0, 1 / 1.25, 1 / (0.25 + 0.5 * 2.0 + 0.25 * 2.0)])
    assert rests.median_slowdowns() == pytest.approx((1.5, 1.0))


def test_reference_kernel_reads_two_positive_times():
    dispatch_ms, stream_ms = measure.reference_kernel().time_ms()
    assert dispatch_ms > 0 and stream_ms > 0
    assert measure.reference_kernel() is measure.reference_kernel()


def test_spread_is_the_drivers_statistic():
    import statistics
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_calibration_drift_marks_noise():
    before = {"calib_gemm_ms": 10.0, "calib_pyloop_ms": 10.0}
    calm = measure.calibration_drift(
        before, {"calib_gemm_ms": 10.5, "calib_pyloop_ms": 9.6})
    assert not calm["noisy"]
    noisy = measure.calibration_drift(
        before, {"calib_gemm_ms": 11.5, "calib_pyloop_ms": 10.0})
    assert noisy["noisy"]


def test_fingerprint_names_the_environment():
    fingerprint = measure.fingerprint()
    for key in ("cpu_model", "nproc", "python", "numpy", "blas",
                "blas_threads", "pinned_cpu", "allocator_pinned", "commit",
                "out_dir_filesystem"):
        assert fingerprint[key] not in (None, "")
