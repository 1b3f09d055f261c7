from __future__ import annotations

import pytest
import sympy

from fuseplan.app import AppValidationError
from fuseplan.workload import (
    WorkloadError,
    calibrate_workload,
    ingest_trace,
    lucas_lehmer,
)


def test_p3_prime_by_hand():
    # s1 = (4*4 - 2) mod 7 = 0, so 7 is prime.
    assert lucas_lehmer(3) is True


def test_p11_composite_by_factorization():
    assert 2**11 - 1 == 23 * 89
    assert lucas_lehmer(11) is False


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_prime_exponents_against_sympy(p):
    assert sympy.isprime(2**p - 1)
    assert lucas_lehmer(p) is True


@pytest.mark.parametrize("p", [11, 23, 29])
def test_composite_exponents_against_sympy(p):
    assert not sympy.isprime(2**p - 1)
    assert lucas_lehmer(p) is False


@pytest.mark.parametrize("p", [2, 4, 9, 15, 1, 0, -3])
def test_rejects_non_odd_prime_exponents(p):
    with pytest.raises(WorkloadError, match="odd prime"):
        lucas_lehmer(p)


def test_calibrate_returns_positive_median():
    result = calibrate_workload(13, repetitions=3)
    assert result.ms_per_run > 0
    assert result.verdict == "prime"
    assert result.repetitions == 3


def test_calibrate_rejects_zero_reps():
    with pytest.raises(WorkloadError, match="repetitions"):
        calibrate_workload(13, repetitions=0)


def test_ingest_exact_rows(s2_sync):
    text = "task,duration_ms\nA,100\nB,100\n"
    assert ingest_trace(text, s2_sync) == {"A": 100.0, "B": 100.0}


def test_ingest_missing_task(s2_sync):
    with pytest.raises(WorkloadError, match="missing task B"):
        ingest_trace("task,duration_ms\nA,100\n", s2_sync)


def test_ingest_median(s2_sync):
    text = "task,duration_ms\nA,95\nA,105\nB,100\n"
    assert ingest_trace(text, s2_sync) == {"A": 100.0, "B": 100.0}


def test_ingest_rejects_non_positive(s2_sync):
    with pytest.raises(WorkloadError, match="^duration '0' for task 'A' is not a finite positive number$"):
        ingest_trace("task,duration_ms\nA,0\nB,100\n", s2_sync)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "fast"])
def test_ingest_rejects_durations_that_are_not_finite_numbers(s2_sync, value):
    with pytest.raises(WorkloadError, match=f"^duration '{value}' for task 'A' is not a finite positive number$"):
        ingest_trace(f"task,duration_ms\nA,{value}\nB,100\n", s2_sync)


def test_ingest_reads_padded_header(s2_sync):
    # The header check strips spaces, so the rows are read under the stripped names.
    text = " task , duration_ms\n A , 95\nA,105\nB ,100\n"
    assert ingest_trace(text, s2_sync) == {"A": 100.0, "B": 100.0}


def test_ingest_rejects_unknown_task(s2_sync):
    with pytest.raises(AppValidationError, match="unknown task"):
        ingest_trace("task,duration_ms\nA,100\nB,100\nZ,5\n", s2_sync)


def test_ingest_rejects_bad_header(s2_sync):
    with pytest.raises(WorkloadError, match="header"):
        ingest_trace("name,ms\nA,100\n", s2_sync)


def test_ingest_feeds_app_override(s2_sync):
    work = ingest_trace("task,duration_ms\nA,80\nB,120\n", s2_sync)
    app = s2_sync.with_base_work(work)
    assert {t.name: t.base_work_ms for t in app.tasks} == {"A": 80.0, "B": 120.0}


@pytest.mark.parametrize(
    "row, fields",
    [("A,100,7", 3), ("A,100,5", 3), ("A", 1)],
    ids=["extra column", "decimal comma", "short row"],
)
def test_ingest_rejects_rows_without_two_fields(s2_sync, row, fields):
    with pytest.raises(WorkloadError, match=f"^trace CSV line 3: {fields} fields, expected 2$"):
        ingest_trace(f"task,duration_ms\nB,100\n{row}\n", s2_sync)


def test_ingest_skips_blank_lines(s2_sync):
    assert ingest_trace("task,duration_ms\n\nA,80\n\nB,120\n", s2_sync) == {"A": 80.0, "B": 120.0}


def test_ingest_rejects_a_median_that_overflows(s2_sync):
    # Both samples are finite; the mean of the two middle ones is not.
    with pytest.raises(WorkloadError, match="^median duration of task 'A' is not finite$"):
        ingest_trace("task,duration_ms\nA,1e308\nA,1e308\nB,100\n", s2_sync)
