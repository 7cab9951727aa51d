"""Quantiles, the tail-sample rule and output digests."""

import math

import numpy as np
import pytest

import measure


def test_quantile_matches_numpy_linear():
    values = [0.3, 5.0, 1.25, 9.5, 2.0, 7.75, 4.0]
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        assert measure.quantile(values, q) == pytest.approx(np.quantile(values, q))


def test_p99_needs_ten_samples_beyond_it():
    n = next(n for n in range(11, 5000) if measure.samples_beyond(n, 0.99) >= 10)
    assert n == 902  # the order statistics 892..901 lie above position 891.99
    assert measure.samples_beyond(n, 0.99) >= 10
    assert measure.samples_beyond(n - 1, 0.99) < 10
    assert measure.tail_percentile(n) == 99
    assert measure.tail_percentile(n - 1) == 98


def test_tail_falls_back_to_lower_percentiles_then_gives_up():
    # 30 samples: p68 is the highest percentile with ten samples beyond.
    assert measure.tail_percentile(30) == 68
    assert measure.samples_beyond(30, 0.68) >= 10
    assert measure.samples_beyond(30, 0.69) < 10
    assert measure.tail_percentile(20) == 52
    assert measure.tail_percentile(19) is None
    with pytest.raises(ValueError):
        measure.latency_summary([0.01] * 19)


def test_latency_summary_reports_the_tail_it_used():
    samples = [i / 1000.0 for i in range(1, 2001)]
    p50_ms, tail_ms, percent, n = measure.latency_summary(samples)
    assert (percent, n) == (99, 2000)
    assert p50_ms == pytest.approx(1000.5)
    assert tail_ms == pytest.approx(np.quantile(samples, 0.99) * 1e3)


def test_digest_keeps_signed_zero_distinct():
    assert measure.digest({"x": 0.0}) != measure.digest({"x": -0.0})
    assert measure.digest([0.0]) == measure.digest([0.0])


def test_digest_treats_every_nan_alike():
    payloaded = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=np.float64)[0]
    assert math.isnan(payloaded)
    reference = measure.digest({"x": float("nan")})
    assert measure.digest({"x": -float("nan")}) == reference
    assert measure.digest({"x": np.float64(payloaded)}) == reference
    assert measure.digest({"x": 1.0}) != reference


def test_digest_ignores_key_order_but_not_values_or_kinds():
    assert measure.digest({"a": 1, "b": [1.5, 2]}) == measure.digest({"b": [1.5, 2], "a": 1})
    assert measure.digest({"a": 1.0}) != measure.digest({"a": 1})
    assert measure.digest({"a": "0x1.0000000000000p+0"}) != measure.digest({"a": 1.0})
    assert measure.digest({1: "a"}) != measure.digest({"1": "a"})
    assert measure.digest([1.0, 2.0]) != measure.digest([1.0, 2.0 + 2**-51])


def test_digest_covers_arrays_and_dataclasses():
    from dataclasses import dataclass

    @dataclass
    class Summary:
        mean: float

    assert measure.digest(np.array([1.0, 2.0])) == measure.digest(np.array([1.0, 2.0]))
    assert measure.digest(np.array([1.0, 2.0])) != measure.digest(np.array([1.0, -2.0]))
    assert measure.digest(Summary(0.5)) != measure.digest(Summary(0.25))


def test_digest_refuses_unknown_types():
    with pytest.raises(TypeError):
        measure.digest({"x": object()})

