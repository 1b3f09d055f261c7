from __future__ import annotations

import math

import pytest

from fuseplan.fusion import FusionPartition, FusionSetup, split_setup_name
from fuseplan.pricing import (
    InstanceBasedPricing,
    PricingError,
    TraditionalPricing,
    cost_of,
    load_pricing_config,
)
from fuseplan.runner import evaluate_setup
from fuseplan.sim import ColdPolicy, InvocationRecord, PlatformModel, SimResult

from .conftest import setup_of


def one_invocation_result(billed_ms: float, group: str = "A") -> SimResult:
    record = InvocationRecord(
        group=group, instance_id=0, start_ms=0.0, end_ms=billed_ms,
        billed_ms=billed_ms, cold=True,
    )
    return SimResult(latency_ms=billed_ms, invocations=(record,), trace=())


def single_group_setup(cpu: float, memory_mb: int) -> FusionSetup:
    from fuseplan.fusion import ResourceConfig

    partition = FusionPartition.from_groups([frozenset("A")])
    return FusionSetup(partition, (0,), (ResourceConfig(cpu, memory_mb),))


def test_traditional_hand_arithmetic():
    cost = cost_of(
        one_invocation_result(1000.0),
        single_group_setup(1.0, 1024),
        TraditionalPricing(),
    )
    assert math.isclose(cost, (2.0e-7 + 1.66667e-5) * 1e6, rel_tol=1e-12)
    assert math.isclose(cost, 16.8667, rel_tol=1e-4)


def test_traditional_zero_duration_is_fee_only():
    cost = cost_of(
        one_invocation_result(0.0), single_group_setup(1.0, 1024), TraditionalPricing()
    )
    assert math.isclose(cost, 0.20, rel_tol=1e-12)


def test_instance_based_hand_arithmetic():
    cost = cost_of(
        one_invocation_result(1000.0),
        single_group_setup(1.0, 1024),
        InstanceBasedPricing(),
    )
    assert math.isclose(cost, 20.0, rel_tol=1e-9)


def row_of(app, name: str, platform: PlatformModel,
           traditional: TraditionalPricing = TraditionalPricing()):
    return evaluate_setup(app, setup_of(app, name), platform, traditional,
                          InstanceBasedPricing())


def test_evaluate_setup_fused_pair(s2_sync):
    platform = PlatformModel(5.0, 100.0, ColdPolicy.ALWAYS_COLD, 1.0)
    row = row_of(s2_sync, "AB@2", platform)
    assert row.latency_ms == 305.0
    assert math.isclose(row.cost_traditional_pmi, 5.9585, rel_tol=1e-3)
    assert row.setup == "AB@2"
    assert split_setup_name(row.setup)[0] == "AB"


def test_zero_rate_model_costs_nothing(s2_sync, zero_model):
    pricing = TraditionalPricing(request_fee_usd=0.0, gb_second_rate_usd=0.0)
    row = row_of(s2_sync, "A,B@1,1", zero_model, pricing)
    assert row.cost_traditional_pmi == 0.0


def test_split_costs_fee_plus_wait_billing(s2_sync, overhead_model):
    split = row_of(s2_sync, "A,B@2,2", overhead_model)
    fused = row_of(s2_sync, "AB@2", overhead_model)
    delta = split.cost_traditional_pmi - fused.cost_traditional_pmi
    # One extra request fee plus 210 ms of double-billed wait at 1769 MB.
    wait_term = (210.0 / 1000.0) * (1769.0 / 1024.0) * 1.66667e-5 * 1e6
    assert delta > 0
    assert math.isclose(delta, 0.2 + wait_term, rel_tol=1e-9)


def test_cost_monotone_in_billed_time():
    setup = single_group_setup(1.0, 1024)
    for model in (TraditionalPricing(), InstanceBasedPricing()):
        costs = [
            cost_of(one_invocation_result(ms), setup, model)
            for ms in (100.0, 200.0, 1500.0)
        ]
        assert costs == sorted(costs)


def test_cost_linear_in_each_rate():
    setup = single_group_setup(0.5, 832)
    result = one_invocation_result(700.0)
    base = cost_of(result, setup, TraditionalPricing(1e-7, 2e-5))
    doubled_fee = cost_of(result, setup, TraditionalPricing(2e-7, 2e-5))
    doubled_rate = cost_of(result, setup, TraditionalPricing(1e-7, 4e-5))
    fee_part = doubled_fee - base
    rate_part = doubled_rate - base
    assert math.isclose(base, fee_part + rate_part, rel_tol=1e-9)
    inst_base = cost_of(result, setup, InstanceBasedPricing(1e-5, 1e-6))
    inst_double = cost_of(result, setup, InstanceBasedPricing(2e-5, 2e-6))
    assert math.isclose(inst_double, 2 * inst_base, rel_tol=1e-12)


def test_unknown_group_rejected(s2_sync):
    result = one_invocation_result(100.0, group="ZZ")
    with pytest.raises(PricingError, match="not in setup"):
        cost_of(result, setup_of(s2_sync, "A,B@0,0"), TraditionalPricing())


def test_negative_rates_rejected():
    with pytest.raises(PricingError):
        TraditionalPricing(request_fee_usd=-1.0)
    with pytest.raises(PricingError):
        InstanceBasedPricing(gib_second_rate_usd=-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rates_rejected(bad):
    with pytest.raises(PricingError):
        TraditionalPricing(request_fee_usd=bad)
    with pytest.raises(PricingError):
        TraditionalPricing(gb_second_rate_usd=bad)
    with pytest.raises(PricingError):
        InstanceBasedPricing(vcpu_second_rate_usd=bad)
    with pytest.raises(PricingError):
        InstanceBasedPricing(gib_second_rate_usd=bad)


@pytest.mark.parametrize("bad", ["1e-7", True, None, [1e-7]])
def test_non_number_rates_rejected(bad):
    with pytest.raises(PricingError, match="request_fee_usd must be a number"):
        TraditionalPricing(request_fee_usd=bad)
    with pytest.raises(PricingError, match="gib_second_rate_usd must be a number"):
        InstanceBasedPricing(gib_second_rate_usd=bad)


def test_load_pricing_config_variants():
    trad = load_pricing_config(
        '{"model": "traditional", "request_fee_usd": 1e-7,'
        ' "vcpu_second_rate_usd": 99.0}'
    )
    assert isinstance(trad, TraditionalPricing)
    assert trad.request_fee_usd == 1e-7
    assert trad.gb_second_rate_usd == 1.66667e-5
    inst = load_pricing_config('{"model": "instance_based"}')
    assert isinstance(inst, InstanceBasedPricing)
    with pytest.raises(PricingError, match="unknown pricing model"):
        load_pricing_config('{"model": "flat"}')
    with pytest.raises(PricingError, match="malformed"):
        load_pricing_config("nope{")
