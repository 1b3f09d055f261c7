"""Cost models converting simulated billed time into dollars per million runs.

Two pricing families are supported: a traditional model with a per-request
fee plus a GB-second rate, and an instance-based model billing vCPU-seconds
and GiB-seconds with no per-request component. Rates are configuration with
defaults taken from public provider price lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .app import AppGraph
from .fusion import FusionSetup
from .sim import PlatformModel, SimResult, simulate

# Default rates (USD). Configuration constants from public price lists.
DEFAULT_REQUEST_FEE_USD = 2.0e-7
DEFAULT_GB_SECOND_USD = 1.66667e-5
DEFAULT_VCPU_SECOND_USD = 1.8e-5
DEFAULT_GIB_SECOND_USD = 2.0e-6

_MB_PER_GB = 1024.0
_MS_PER_SECOND = 1000.0


class PricingError(ValueError):
    """Raised for invalid pricing configuration or mismatched inputs."""


def _check_rates(*rates: float) -> None:
    if not all(math.isfinite(rate) and rate >= 0 for rate in rates):
        raise PricingError(f"rates must be finite and >= 0, got {rates}")


@dataclass(frozen=True)
class TraditionalPricing:
    request_fee_usd: float = DEFAULT_REQUEST_FEE_USD
    gb_second_rate_usd: float = DEFAULT_GB_SECOND_USD

    id = "traditional"

    def __post_init__(self) -> None:
        _check_rates(self.request_fee_usd, self.gb_second_rate_usd)


@dataclass(frozen=True)
class InstanceBasedPricing:
    vcpu_second_rate_usd: float = DEFAULT_VCPU_SECOND_USD
    gib_second_rate_usd: float = DEFAULT_GIB_SECOND_USD

    id = "instance_based"

    def __post_init__(self) -> None:
        _check_rates(self.vcpu_second_rate_usd, self.gib_second_rate_usd)


PricingModel = TraditionalPricing | InstanceBasedPricing


@dataclass(frozen=True)
class SetupMetrics:
    """Latency and cost of one setup, keyed by its canonical name."""

    setup_name: str
    latency_ms: float
    cost_pmi_usd: float

    @property
    def partition_name(self) -> str:
        return self.setup_name.split("@", 1)[0]


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
    configs = setup.assignment()
    used = []
    for record in result.invocations:
        cfg = configs.get(record.group)
        if cfg is None:
            raise PricingError(f"invocation group {record.group!r} not in setup")
        used.append(cfg)
    gb_seconds, cpu_seconds = billed_usage(
        [r.billed_ms for r in result.invocations],
        [cfg.cpu for cfg in used],
        [cfg.memory_mb for cfg in used],
    )
    return price_usage(gb_seconds, cpu_seconds, len(result.invocations), model)


def metrics_for(
    app: AppGraph,
    setup: FusionSetup,
    model: PricingModel,
    platform: PlatformModel,
) -> SetupMetrics:
    """Simulate one setup and price the result."""
    result = simulate(app, setup, platform)
    return SetupMetrics(
        setup_name=setup.name,
        latency_ms=result.latency_ms,
        cost_pmi_usd=cost_of(result, setup, model),
    )


def load_pricing_config(text: str) -> PricingModel:
    """Parse the pricing JSON config; irrelevant fields are ignored."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PricingError(f"malformed pricing config: {exc}") from exc
    if not isinstance(raw, dict):
        raise PricingError("pricing config must be a JSON object")
    model = raw.get("model", "traditional")
    if model == "traditional":
        return TraditionalPricing(
            request_fee_usd=_rate(raw, "request_fee_usd", DEFAULT_REQUEST_FEE_USD),
            gb_second_rate_usd=_rate(raw, "gb_second_rate_usd", DEFAULT_GB_SECOND_USD),
        )
    if model == "instance_based":
        return InstanceBasedPricing(
            vcpu_second_rate_usd=_rate(raw, "vcpu_second_rate_usd", DEFAULT_VCPU_SECOND_USD),
            gib_second_rate_usd=_rate(raw, "gib_second_rate_usd", DEFAULT_GIB_SECOND_USD),
        )
    raise PricingError(f"unknown pricing model {model!r}")


def _rate(raw: dict, key: str, default: float) -> float:
    try:
        return float(raw.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise PricingError(f"pricing config {key} must be a number") from None
