"""Statistical protocol against scipy oracles and pinned constants."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from spanobj.errors import (
    DegeneratePairsError,
    DegenerateSampleError,
    InvalidInputError,
)
from spanobj.stats import (
    AD_CRITICAL_5PCT,
    ALPHA,
    RunSample,
    anderson_darling,
    paired_t_test_one_tailed,
    regularized_incomplete_beta,
    significance_report,
    student_t_tail,
)


def test_pinned_protocol_constants():
    assert ALPHA == 0.05
    assert AD_CRITICAL_5PCT == 0.752


# ---------------------------------------------------------------------------
# Special functions


def test_regularized_incomplete_beta_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(0.1, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(scipy.special.betainc(a, b, x)), abs=1e-12
        )


def test_regularized_incomplete_beta_edge_cases():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(InvalidInputError):
        regularized_incomplete_beta(2.0, 3.0, 1.5)
    with pytest.raises(InvalidInputError):
        regularized_incomplete_beta(-1.0, 3.0, 0.5)


def test_student_t_tail_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = float(rng.normal(0.0, 4.0))
        df = int(rng.integers(1, 60))
        assert student_t_tail(t, df) == pytest.approx(
            float(scipy.stats.t.sf(t, df)), abs=1e-12
        )


def test_student_t_tail_symmetry_and_center():
    assert student_t_tail(0.0, 9) == pytest.approx(0.5, abs=1e-12)
    for t in (0.5, 1.3, 2.7):
        total = student_t_tail(t, 9) + student_t_tail(-t, 9)
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Anderson-Darling


def test_anderson_darling_statistic_matches_scipy():
    # scipy applies a different small-sample scaling to its critical values,
    # so the comparison is on the raw A^2 statistic.
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), size=n)
        result = anderson_darling(x)
        oracle = float(scipy.stats.anderson(x, dist="norm", method="interpolate").statistic)
        assert result.statistic == pytest.approx(oracle, abs=1e-10)
        assert result.adjusted == pytest.approx(
            result.statistic * (1.0 + 0.75 / n + 2.25 / n**2), abs=1e-12
        )


def test_anderson_darling_verdicts():
    rng = np.random.default_rng(13)
    gaussian = rng.normal(50.0, 3.0, size=200)
    assert anderson_darling(gaussian).verdict == "normal"
    # A two-point mixture is as non-normal as it gets.
    lumpy = np.concatenate([np.full(100, 1.0), np.full(100, 9.0)])
    lumpy += rng.normal(0.0, 1e-6, size=200)
    assert anderson_darling(lumpy).verdict == "not-normal"
    tiny = rng.normal(size=4)
    assert anderson_darling(tiny).verdict == "insufficient"
    with pytest.raises(DegenerateSampleError):
        anderson_darling(np.full(10, 3.3))


def test_anderson_darling_verdict_uses_the_pinned_critical_value():
    # Scale a borderline sample so the adjusted statistic brackets 0.752.
    rng = np.random.default_rng(17)
    x = rng.normal(size=30)
    result = anderson_darling(x)
    expect = "normal" if result.adjusted < 0.752 else "not-normal"
    assert result.verdict == expect


# ---------------------------------------------------------------------------
# Paired t-test


def test_paired_t_test_matches_scipy_one_tailed():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        a = rng.normal(70.0, 3.0, size=n)
        b = a - rng.normal(1.0, 2.0, size=n)
        t, p = paired_t_test_one_tailed(a, b)
        oracle = scipy.stats.ttest_rel(a, b, alternative="greater")
        assert t == pytest.approx(float(oracle.statistic), abs=1e-10)
        assert p == pytest.approx(float(oracle.pvalue), abs=1e-10)


def test_paired_t_test_guards():
    with pytest.raises(InvalidInputError):
        paired_t_test_one_tailed([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegeneratePairsError):
        paired_t_test_one_tailed([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])  # constant diff
    with pytest.raises(InvalidInputError):
        paired_t_test_one_tailed([1.0], [2.0])  # a single pair has no variance


# ---------------------------------------------------------------------------
# Run samples and the report


def test_run_sample_validation():
    sample = RunSample("compound", [70.0, 71.5, 69.0])
    assert sample.n == 3
    with pytest.raises(InvalidInputError):
        RunSample("x", [50.0])  # one seed cannot be compared
    with pytest.raises(InvalidInputError):
        RunSample("x", [50.0, 101.0])  # EM/F1 live on [0, 100]
    with pytest.raises(InvalidInputError):
        RunSample("x", [50.0, float("nan")])


def test_significance_report_flags_and_formats():
    rng = np.random.default_rng(23)
    base = rng.normal(65.0, 2.0, size=10)
    better = base + rng.normal(3.0, 1.0, size=10)
    samples = [
        RunSample("compound", np.clip(better, 0, 100)),
        RunSample("independent", np.clip(base, 0, 100)),
    ]
    report = significance_report(samples, [("compound", "independent")])
    row = report.rows[0]
    assert row.significant and not row.degenerate
    assert row.p < 0.05
    text = report.format()
    assert "compound > independent" in text
    assert "significant=yes" in text
    assert "normality[compound]=" in text


def test_significance_report_degenerate_comparison():
    values = [60.0, 61.0, 62.0, 63.0, 64.0]
    samples = [RunSample("a", values), RunSample("b", values)]
    report = significance_report(samples, [("a", "b")])
    row = report.rows[0]
    assert row.degenerate and not row.significant
    assert "degenerate=yes" in row.format()


def test_significance_report_input_errors():
    samples = [
        RunSample("a", [60.0, 61.0, 62.0]),
        RunSample("b", [59.0, 60.5, 61.0]),
        RunSample("c", [50.0, 52.0]),
    ]
    with pytest.raises(InvalidInputError):
        significance_report(samples, [("a", "zz")])
    with pytest.raises(InvalidInputError):
        significance_report(samples, [("a", "c")])  # seed counts differ
    with pytest.raises(InvalidInputError):
        significance_report(samples + [RunSample("a", [1.0, 2.0])], [])


def test_insignificant_comparison_is_reported_not_hidden():
    rng = np.random.default_rng(29)
    base = np.clip(rng.normal(65.0, 2.0, size=8), 0, 100)
    noise = np.clip(base + rng.normal(0.0, 0.1, size=8), 0, 100)
    report = significance_report(
        [RunSample("a", noise), RunSample("b", base)], [("a", "b")]
    )
    row = report.rows[0]
    assert not row.degenerate
    assert isinstance(row.p, float)
