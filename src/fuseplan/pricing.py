"""Cost models converting simulated billed time into dollars per million runs.

Two pricing families are supported: a traditional model with a per-request
fee plus a GB-second rate, and an instance-based model billing vCPU-seconds
and GiB-seconds with no per-request component. Rates are configuration with
defaults taken from public provider price lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .app import check_fields, from_json, load_json
from .fusion import FusionSetup
from .sim import SimResult

# Default rates (USD). Configuration constants from public price lists.
DEFAULT_REQUEST_FEE_USD = 2.0e-7
DEFAULT_GB_SECOND_USD = 1.66667e-5
DEFAULT_VCPU_SECOND_USD = 1.8e-5
DEFAULT_GIB_SECOND_USD = 2.0e-6

_MB_PER_GB = 1024.0
_MS_PER_SECOND = 1000.0


class PricingError(ValueError):
    """Raised for invalid pricing configuration or mismatched inputs."""


@dataclass(frozen=True)
class TraditionalPricing:
    request_fee_usd: float = DEFAULT_REQUEST_FEE_USD
    gb_second_rate_usd: float = DEFAULT_GB_SECOND_USD

    id = "traditional"

    def __post_init__(self) -> None:
        check_fields(self, PricingError, "pricing",
                     non_negative=("request_fee_usd", "gb_second_rate_usd"))


@dataclass(frozen=True)
class InstanceBasedPricing:
    vcpu_second_rate_usd: float = DEFAULT_VCPU_SECOND_USD
    gib_second_rate_usd: float = DEFAULT_GIB_SECOND_USD

    id = "instance_based"

    def __post_init__(self) -> None:
        check_fields(self, PricingError, "pricing",
                     non_negative=("vcpu_second_rate_usd", "gib_second_rate_usd"))


PricingModel = TraditionalPricing | InstanceBasedPricing
# Every pricing model, in results-file column order; the first is the default.
PRICING_MODELS = (TraditionalPricing, InstanceBasedPricing)


@dataclass(frozen=True)
class SetupMetrics:
    """Latency and cost of one setup, keyed by its canonical name."""

    setup_name: str
    latency_ms: float
    cost_pmi_usd: float


@dataclass(frozen=True, eq=False)
class MetricTable(Sequence[SetupMetrics]):
    """Latency and cost of many setups, as columns.

    Indexing row ``i`` builds its ``SetupMetrics``; the analyses read the
    columns and build one only for a row they report or visit.
    """

    setup_names: Sequence[str]
    latency_ms: np.ndarray
    cost_pmi_usd: np.ndarray

    @classmethod
    def of(cls, metrics: Iterable[SetupMetrics]) -> MetricTable:
        """The table of ``metrics``, which may already be one."""
        if isinstance(metrics, MetricTable):
            return metrics
        metrics = list(metrics)
        return cls([m.setup_name for m in metrics],
                   np.array([m.latency_ms for m in metrics], dtype=float),
                   np.array([m.cost_pmi_usd for m in metrics], dtype=float))

    def __len__(self) -> int:
        return len(self.latency_ms)

    def __getitem__(self, i: int) -> SetupMetrics:
        return SetupMetrics(self.setup_names[i], float(self.latency_ms[i]),
                            float(self.cost_pmi_usd[i]))

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Row of each setup name (the last, for a repeated name)."""
        return {name: i for i, name in enumerate(self.setup_names)}


def billed_usage(billed_ms, cpu, memory_mb):
    """GB-seconds and vCPU-seconds of instances billed ``billed_ms[i]`` at
    ``cpu[i]`` and ``memory_mb[i]``.

    Values are floats, or arrays over lanes; sums run in instance order.
    """
    mb_ms = 0.0
    cpu_ms = 0.0
    for billed, c, m in zip(billed_ms, cpu, memory_mb):
        mb_ms = mb_ms + billed * m
        cpu_ms = cpu_ms + billed * c
    return mb_ms / _MB_PER_GB / _MS_PER_SECOND, cpu_ms / _MS_PER_SECOND


def price_usage(gb_seconds, cpu_seconds, invocations: int, model: PricingModel):
    """Dollar cost per one million application invocations of one usage.

    A cost that overflows to a non-finite value raises ``PricingError``.
    """
    if isinstance(model, TraditionalPricing):
        per_invocation = (
            model.request_fee_usd * invocations
            + gb_seconds * model.gb_second_rate_usd
        )
    else:
        per_invocation = (
            cpu_seconds * model.vcpu_second_rate_usd
            + gb_seconds * model.gib_second_rate_usd
        )
    cost = per_invocation * 1e6
    finite = np.isfinite(cost).all() if isinstance(cost, np.ndarray) else math.isfinite(cost)
    if not finite:
        raise PricingError("cost is not finite: billed usage is too large to price")
    return cost


def cost_of(result: SimResult, setup: FusionSetup, model: PricingModel) -> float:
    """Dollar cost per one million application invocations.

    Billed-time sums are accumulated per resource dimension before any rate
    is applied, so setups with identical total billed time price identically
    regardless of how instances are split.
    """
    index = {name: i for i, name in enumerate(setup.partition.name.split(","))}
    used = []
    for record in result.invocations:
        g = index.get(record.group)
        if g is None:
            raise PricingError(f"invocation group {record.group!r} not in setup")
        used.append(setup.config_of(g))
    gb_seconds, cpu_seconds = billed_usage(
        [r.billed_ms for r in result.invocations],
        [cfg.cpu for cfg in used],
        [cfg.memory_mb for cfg in used],
    )
    return price_usage(gb_seconds, cpu_seconds, len(result.invocations), model)


def load_pricing_config(text: str) -> PricingModel:
    """Parse the pricing JSON config; fields the model lacks are ignored."""
    raw = load_json(text, PricingError, "pricing config")
    if not isinstance(raw, dict):
        raise PricingError("pricing config must be a JSON object")
    model = raw.get("model", PRICING_MODELS[0].id)
    for kind in PRICING_MODELS:
        if kind.id == model:
            return from_json(kind, raw, PricingError, "pricing config")
    raise PricingError(f"unknown pricing model {model!r}")
