"""CPU workload calibration and measured-duration ingestion.

The calibration workload is the Lucas-Lehmer sequence for Mersenne numbers:
a fixed, allocation-friendly CPU burn whose verdict doubles as a self-check.
Measured per-task durations can be ingested from CSV to replace the built-in
compute times with medians of real observations.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time
from dataclasses import dataclass

from .app import AppGraph, AppValidationError


class WorkloadError(ValueError):
    """Raised for invalid calibration parameters or trace files."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def lucas_lehmer(prime_exponent: int) -> bool:
    """True iff 2**p - 1 is prime, for odd prime exponents p >= 3."""
    if prime_exponent < 3 or not _is_prime(prime_exponent):
        raise WorkloadError("exponent must be an odd prime >= 3")
    mersenne = (1 << prime_exponent) - 1
    s = 4
    for _ in range(prime_exponent - 2):
        s = (s * s - 2) % mersenne
    return s == 0


@dataclass(frozen=True)
class CalibrationResult:
    prime_exponent: int
    repetitions: int
    ms_per_run: float
    verdict: str  # "prime" or "composite"


def calibrate_workload(prime_exponent: int, repetitions: int = 5) -> CalibrationResult:
    """Time the Lucas-Lehmer run and report the median wall-clock ms per run."""
    if repetitions <= 0:
        raise WorkloadError("repetitions must be positive")
    durations = []
    verdict = False
    for _ in range(repetitions):
        t0 = time.perf_counter()
        verdict = lucas_lehmer(prime_exponent)
        durations.append((time.perf_counter() - t0) * 1000.0)
    return CalibrationResult(
        prime_exponent=prime_exponent,
        repetitions=repetitions,
        ms_per_run=statistics.median(durations),
        verdict="prime" if verdict else "composite",
    )


def ingest_trace(csv_text: str, app: AppGraph) -> dict[str, float]:
    """Median measured duration per task from a ``task,duration_ms`` CSV.

    Every row has exactly two fields, and every task of ``app`` must appear
    at least once; durations and their medians must be finite and positive.
    Header fields and task names may be padded with spaces. Blank lines are
    skipped. Returns the task -> median map, ready for
    ``AppGraph.with_base_work``.
    """
    reader = csv.reader(io.StringIO(csv_text))
    if [f.strip() for f in next(reader, ())] != ["task", "duration_ms"]:
        raise WorkloadError("trace CSV must have header 'task,duration_ms'")
    samples: dict[str, list[float]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise WorkloadError(f"trace CSV line {reader.line_num}: {len(row)} fields, expected 2")
        name, duration = row[0].strip(), row[1]
        if name not in app.task_names():
            raise AppValidationError(f"unknown task {name!r} in trace")
        try:
            value = float(duration)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise WorkloadError(f"duration {duration!r} for task {name!r} "
                                "is not a finite positive number")
        samples.setdefault(name, []).append(value)
    missing = [n for n in app.task_names() if n not in samples]
    if missing:
        raise WorkloadError(f"missing task {missing[0]}")
    medians = {name: statistics.median(values) for name, values in samples.items()}
    for name, median in medians.items():
        # The mean of the two middle samples can overflow.
        if not math.isfinite(median):
            raise WorkloadError(f"median duration of task {name!r} is not finite")
    return medians
