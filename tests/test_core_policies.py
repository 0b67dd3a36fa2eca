"""Unit tests for the reconfiguration policies and their verdicts."""

import math

import pytest

from repro.core.policies import (
    AggressivePolicy,
    ConservativePolicy,
    HybridPolicy,
    PolicyVerdict,
    parse_policy,
    policy_from_name,
)
from repro.errors import ConfigError
from repro.transmuter import HardwareConfig
from repro.transmuter.power import PowerModel
from repro.transmuter.reconfig import parameter_change_cost


@pytest.fixture(scope="module")
def power():
    return PowerModel(2, 8)


BASE = HardwareConfig(l1_kb=16, l2_kb=16, clock_mhz=250.0, prefetch=4)
#: clock (super-fine, cheap) + l2 shrink (fine, triggers a flush).
MIXED = BASE.with_value("clock_mhz", 500.0).with_value("l2_kb", 4)
BANDWIDTH = 1.0


def _explained(policy, **kwargs):
    """``filter`` with a verdict list: (applied config, verdicts)."""
    verdicts = []
    applied = policy.filter(**kwargs, verdicts=verdicts)
    return applied, verdicts


def _kwargs(power, last_epoch_time_s=1e-4):
    return dict(
        current=BASE,
        predicted=MIXED,
        last_epoch_time_s=last_epoch_time_s,
        power=power,
        bandwidth_gbps=BANDWIDTH,
    )


class TestAggressive:
    def test_always_applies_everything(self, power):
        policy = AggressivePolicy()
        assert policy.filter(**_kwargs(power)) == MIXED
        applied, verdicts = _explained(policy, **_kwargs(power))
        assert applied == MIXED
        assert all(v.accepted for v in verdicts)
        assert {v.code for v in verdicts} == {"always_apply"}

    def test_one_verdict_per_changed_parameter(self, power):
        _, verdicts = _explained(AggressivePolicy(), **_kwargs(power))
        assert {v.parameter for v in verdicts} == {"clock_mhz", "l2_kb"}

    def test_reason_carries_cost(self, power):
        _, verdicts = _explained(AggressivePolicy(), **_kwargs(power))
        for verdict in verdicts:
            assert "aggressive policy always follows" in verdict.reason
            assert f"{verdict.cost_time_s:.3e}" in verdict.reason


class TestConservative:
    def test_rejects_expensive_accepts_cheap(self, power):
        # Super-fine clock change is ~ns; the L2 shrink flushes.
        policy = ConservativePolicy(max_cost_s=5e-6)
        applied = policy.filter(**_kwargs(power))
        assert applied.clock_mhz == 500.0
        assert applied.l2_kb == BASE.l2_kb  # flush-inducing change blocked

    def test_boundary_cost_equal_to_budget_is_accepted(self, power):
        cost = parameter_change_cost(
            BASE, MIXED, "l2_kb", power, BANDWIDTH
        )
        policy = ConservativePolicy(max_cost_s=cost.time_s)
        applied, verdicts = _explained(policy, **_kwargs(power))
        assert applied.l2_kb == 4  # cost == budget passes the <= test
        l2 = next(v for v in verdicts if v.parameter == "l2_kb")
        assert l2.accepted
        assert l2.code == "within_max_cost"

    def test_zero_budget_rejects_all_costed_changes(self, power):
        policy = ConservativePolicy(max_cost_s=0.0)
        applied, verdicts = _explained(policy, **_kwargs(power))
        for verdict in verdicts:
            assert verdict.accepted == (verdict.cost_time_s <= 0.0)

    def test_verdict_codes_and_reasons(self, power):
        policy = ConservativePolicy(max_cost_s=5e-6)
        applied, verdicts = _explained(policy, **_kwargs(power))
        by_param = {v.parameter: v for v in verdicts}
        clock = by_param["clock_mhz"]
        assert clock.accepted and clock.code == "within_max_cost"
        assert clock.reason.startswith("applied clock_mhz: cost ")
        assert "<= max 5.000e-06 s" in clock.reason
        l2 = by_param["l2_kb"]
        assert not l2.accepted and l2.code == "over_max_cost"
        assert l2.reason.startswith("rejected l2_kb: cost ")
        assert "> max 5.000e-06 s" in l2.reason

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            ConservativePolicy(max_cost_s=-1.0)


class TestHybrid:
    def test_budget_scales_with_epoch_time(self, power):
        policy = HybridPolicy(tolerance=0.40)
        # A long epoch affords the flush; a tiny epoch does not.
        long_epoch = policy.filter(
            **_kwargs(power, last_epoch_time_s=1.0)
        )
        assert long_epoch == MIXED
        short_epoch = policy.filter(
            **_kwargs(power, last_epoch_time_s=1e-12)
        )
        assert short_epoch.l2_kb == BASE.l2_kb

    def test_first_epoch_has_infinite_payback(self, power):
        _, verdicts = _explained(
            HybridPolicy(tolerance=0.40),
            **_kwargs(power, last_epoch_time_s=0.0),
        )
        for verdict in verdicts:
            assert not verdict.accepted  # zero budget blocks everything
            assert math.isinf(verdict.payback_epochs)

    def test_payback_boundary(self, power):
        # Choose the epoch time so cost == tolerance * epoch exactly:
        # the <= comparison must accept it (payback == tolerance).
        cost = parameter_change_cost(
            BASE, MIXED, "l2_kb", power, BANDWIDTH
        )
        tolerance = 0.40
        epoch = cost.time_s / tolerance
        applied, verdicts = _explained(
            HybridPolicy(tolerance=tolerance),
            **_kwargs(power, last_epoch_time_s=epoch),
        )
        l2 = next(v for v in verdicts if v.parameter == "l2_kb")
        assert l2.accepted
        assert l2.payback_epochs == pytest.approx(tolerance)
        # An epoch even slightly shorter flips the decision.
        applied, verdicts = _explained(
            HybridPolicy(tolerance=tolerance),
            **_kwargs(power, last_epoch_time_s=epoch * 0.999),
        )
        l2 = next(v for v in verdicts if v.parameter == "l2_kb")
        assert not l2.accepted

    def test_verdict_reason_carries_budget_arithmetic(self, power):
        _, verdicts = _explained(
            HybridPolicy(tolerance=0.40),
            **_kwargs(power, last_epoch_time_s=1e-4),
        )
        budget = 0.40 * 1e-4
        for verdict in verdicts:
            assert verdict.budget_s == pytest.approx(budget)
            assert f"budget {budget:.3e} s" in verdict.reason
            assert "40% of epoch" in verdict.reason
            assert "payback" in verdict.reason
            assert verdict.code in ("within_budget", "over_budget")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            HybridPolicy(tolerance=-0.1)


class TestBudgetValidation:
    """A budget that is NaN or infinite would make every ``cost <=
    budget`` test false (NaN) or turn the first epoch's hybrid budget
    into ``inf * 0.0 = nan``; both are refused up front."""

    @pytest.mark.parametrize("text", ["hybrid:nan", "hybrid:inf",
                                      "hybrid:-inf", "hybrid:-0.1"])
    def test_parse_policy_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_policy(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_hybrid_rejects(self, value):
        with pytest.raises(ConfigError):
            HybridPolicy(tolerance=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_conservative_rejects(self, value):
        with pytest.raises(ConfigError):
            ConservativePolicy(max_cost_s=value)

    def test_finite_budgets_still_load(self):
        assert parse_policy("hybrid:0").tolerance == 0.0
        assert parse_policy("hybrid:1.5").tolerance == 1.5
        assert ConservativePolicy(max_cost_s=0.0).max_cost_s == 0.0


class TestVerdictConsistency:
    """filter with and without a verdict list can never disagree."""

    @pytest.mark.parametrize(
        "policy",
        [
            AggressivePolicy(),
            ConservativePolicy(),
            ConservativePolicy(max_cost_s=0.0),
            HybridPolicy(tolerance=0.40),
            HybridPolicy(tolerance=0.0),
        ],
        ids=lambda p: f"{p.name}",
    )
    @pytest.mark.parametrize("epoch_time", [0.0, 1e-6, 1e-3, 1.0])
    def test_same_config_both_paths(self, power, policy, epoch_time):
        kwargs = _kwargs(power, last_epoch_time_s=epoch_time)
        plain = policy.filter(**kwargs)
        explained, verdicts = _explained(policy, **kwargs)
        assert explained == plain
        # Accepted verdicts describe exactly the applied changes.
        accepted = {v.parameter for v in verdicts if v.accepted}
        applied = {
            name
            for name in ("l1_kb", "l2_kb", "clock_mhz", "prefetch",
                         "l1_sharing", "l2_sharing")
            if plain.get(name) != BASE.get(name)
        }
        assert accepted == applied

    def test_no_change_means_no_verdicts(self, power):
        for policy in (AggressivePolicy(), ConservativePolicy(),
                       HybridPolicy()):
            applied, verdicts = _explained(
                policy,
                current=BASE,
                predicted=BASE,
                last_epoch_time_s=1e-4,
                power=power,
                bandwidth_gbps=BANDWIDTH,
            )
            assert applied == BASE
            assert verdicts == []


class TestVerdictRecord:
    def test_as_dict_round_trip(self, power):
        _, verdicts = _explained(ConservativePolicy(), **_kwargs(power))
        for verdict in verdicts:
            payload = verdict.as_dict()
            assert payload["parameter"] == verdict.parameter
            assert payload["accepted"] == verdict.accepted
            assert payload["code"] == verdict.code
            assert payload["reason"] == verdict.reason
            assert payload["cost_time_s"] == verdict.cost_time_s
            assert payload["budget_s"] == verdict.budget_s

    def test_frozen(self, power):
        _, verdicts = _explained(ConservativePolicy(), **_kwargs(power))
        with pytest.raises(Exception):
            verdicts[0].accepted = False

    def test_policy_from_name_still_works(self):
        assert isinstance(policy_from_name("hybrid"), HybridPolicy)
        assert isinstance(
            policy_from_name("conservative", max_cost_s=1e-6),
            ConservativePolicy,
        )
        with pytest.raises(ConfigError):
            policy_from_name("bogus")
