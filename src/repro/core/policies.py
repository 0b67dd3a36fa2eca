"""Reconfiguration cost-aware prediction policies (paper Section 4.4).

The predictive model proposes a configuration for the next epoch; a
policy then decides, per parameter, whether applying the change is
worth its reconfiguration cost:

* **Aggressive** — always applies the prediction.
* **Conservative** — never applies a change costing more than a fixed
  time budget (in practice this blocks the flush-inducing fine-grained
  changes and lets the super-fine ones through).
* **Hybrid** — applies a change only if its time cost is within a
  tolerance fraction of the previous epoch's elapsed time, penalizing
  bursts of expensive reconfiguration in short epochs while allowing
  occasional ones in long epochs. The paper finds 10-40 % tolerances
  best (Figure 11 left) and uses 40 % for SpMSpV.

Every policy can also *explain* itself: pass ``verdicts=[]`` to
:meth:`~ReconfigurationPolicy.filter` and the same per-parameter walk
appends one :class:`PolicyVerdict` per proposed change, carrying the
accept/reject decision, the cost-vs-budget numbers that produced it, a
stable machine-readable ``code``, and a human-readable ``reason``
sentence. The list only records decisions, so an explained run can
never diverge from an unexplained one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError
from repro.transmuter.config import HardwareConfig
from repro.transmuter.power import PowerModel
from repro.transmuter.reconfig import (
    ReconfigCost,
    changed_parameters,
    parameter_change_cost,
)

__all__ = [
    "PolicyVerdict",
    "ReconfigurationPolicy",
    "AggressivePolicy",
    "ConservativePolicy",
    "HybridPolicy",
    "policy_from_name",
    "parse_policy",
]


@dataclass(frozen=True)
class PolicyVerdict:
    """One accept/reject decision on a single proposed parameter change.

    ``code`` is a stable machine-readable label (metrics, queries);
    ``reason`` a stable human-readable sentence carrying the cost and
    budget numbers that produced the decision. ``payback_epochs`` is
    the reconfiguration time expressed in units of the previous epoch's
    duration — "this change costs 3.1 epochs to pay for" — and is
    ``inf`` when the epoch duration is unknown (first epoch).
    """

    parameter: str
    proposed: object
    current: object
    accepted: bool
    code: str
    reason: str
    cost_time_s: float
    cost_energy_j: float
    budget_s: float
    payback_epochs: float

    def as_dict(self) -> dict:
        """JSON-friendly view (trace payloads, ``--json`` surfaces)."""
        return {
            "parameter": self.parameter,
            "proposed": self.proposed,
            "current": self.current,
            "accepted": self.accepted,
            "code": self.code,
            "reason": self.reason,
            "cost_time_s": self.cost_time_s,
            "cost_energy_j": self.cost_energy_j,
            "budget_s": self.budget_s,
            "payback_epochs": self.payback_epochs,
        }


def _payback_epochs(cost_time_s: float, last_epoch_time_s: float) -> float:
    if last_epoch_time_s > 0.0:
        return cost_time_s / last_epoch_time_s
    return float("inf")


def _check_budget(name: str, value: float) -> float:
    """A policy budget: a finite, non-negative number."""
    if not math.isfinite(value) or value < 0:
        raise ConfigError(
            f"{name} must be finite and non-negative, got {value!r}"
        )
    return value


class ReconfigurationPolicy:
    """Filters a predicted configuration against reconfiguration cost.

    A policy supplies its time budget (:meth:`_budget_s`) and its verdict
    prose (:meth:`_verdict`); :meth:`filter` applies each proposed
    change whose cost fits the budget.
    """

    name = "base"

    def _budget_s(self, last_epoch_time_s: float) -> float:
        """Largest reconfiguration time one parameter change may cost."""
        raise NotImplementedError

    def filter(
        self,
        current: HardwareConfig,
        predicted: HardwareConfig,
        last_epoch_time_s: float,
        power: PowerModel,
        bandwidth_gbps: float,
        dirty_bytes_hint=None,
        verdicts: Optional[List["PolicyVerdict"]] = None,
    ) -> HardwareConfig:
        """Return the configuration to actually apply.

        When ``verdicts`` is a list, one :class:`PolicyVerdict` per
        proposed change is appended to it; the decisions are the same
        either way. An unbounded budget applies the prediction as is.
        """
        budget = self._budget_s(last_epoch_time_s)
        unbounded = budget == math.inf
        if unbounded and verdicts is None:
            return predicted
        config = current
        for name in changed_parameters(current, predicted):
            cost = parameter_change_cost(
                config, predicted, name, power, bandwidth_gbps,
                dirty_bytes_hint=dirty_bytes_hint,
            )
            accepted = unbounded or cost.time_s <= budget
            if verdicts is not None:
                verdicts.append(
                    self._verdict(
                        name,
                        config.get(name),
                        predicted.get(name),
                        cost,
                        accepted,
                        budget,
                        last_epoch_time_s,
                    )
                )
            if accepted:
                config = config.with_value(name, predicted.get(name))
        return predicted if unbounded else config

    def _verdict(
        self,
        parameter: str,
        current_value,
        proposed_value,
        cost: ReconfigCost,
        accepted: bool,
        budget_s: float,
        last_epoch_time_s: float,
    ) -> "PolicyVerdict":
        """Policy-specific verdict record; subclasses supply the prose."""
        raise NotImplementedError


class AggressivePolicy(ReconfigurationPolicy):
    """Always follow the model's prediction."""

    name = "aggressive"

    def _budget_s(self, last_epoch_time_s: float) -> float:
        return math.inf

    def _verdict(
        self,
        parameter,
        current_value,
        proposed_value,
        cost,
        accepted,
        budget_s,
        last_epoch_time_s,
    ) -> PolicyVerdict:
        return PolicyVerdict(
            parameter=parameter,
            proposed=proposed_value,
            current=current_value,
            accepted=True,
            code="always_apply",
            reason=(
                f"applied {parameter}: aggressive policy always follows "
                f"the prediction (cost {cost.time_s:.3e} s)"
            ),
            cost_time_s=cost.time_s,
            cost_energy_j=cost.energy_j,
            budget_s=budget_s,
            payback_epochs=_payback_epochs(cost.time_s, last_epoch_time_s),
        )


class ConservativePolicy(ReconfigurationPolicy):
    """Skip any single-parameter change costing more than a fixed time."""

    name = "conservative"

    def __init__(self, max_cost_s: float = 5e-6) -> None:
        self.max_cost_s = _check_budget("max_cost_s", max_cost_s)

    def _budget_s(self, last_epoch_time_s: float) -> float:
        return self.max_cost_s

    def _verdict(
        self,
        parameter,
        current_value,
        proposed_value,
        cost,
        accepted,
        budget_s,
        last_epoch_time_s,
    ) -> PolicyVerdict:
        relation = "<=" if accepted else ">"
        action = "applied" if accepted else "rejected"
        code = "within_max_cost" if accepted else "over_max_cost"
        return PolicyVerdict(
            parameter=parameter,
            proposed=proposed_value,
            current=current_value,
            accepted=accepted,
            code=code,
            reason=(
                f"{action} {parameter}: cost {cost.time_s:.3e} s "
                f"{relation} max {budget_s:.3e} s"
            ),
            cost_time_s=cost.time_s,
            cost_energy_j=cost.energy_j,
            budget_s=budget_s,
            payback_epochs=_payback_epochs(cost.time_s, last_epoch_time_s),
        )


class HybridPolicy(ReconfigurationPolicy):
    """Allow a change when its cost is a small fraction of the epoch."""

    name = "hybrid"

    def __init__(self, tolerance: float = 0.40) -> None:
        self.tolerance = _check_budget("tolerance", tolerance)

    def _budget_s(self, last_epoch_time_s: float) -> float:
        return self.tolerance * max(last_epoch_time_s, 0.0)

    def _verdict(
        self,
        parameter,
        current_value,
        proposed_value,
        cost,
        accepted,
        budget_s,
        last_epoch_time_s,
    ) -> PolicyVerdict:
        relation = "<=" if accepted else ">"
        action = "applied" if accepted else "rejected"
        code = "within_budget" if accepted else "over_budget"
        payback = _payback_epochs(cost.time_s, last_epoch_time_s)
        return PolicyVerdict(
            parameter=parameter,
            proposed=proposed_value,
            current=current_value,
            accepted=accepted,
            code=code,
            reason=(
                f"{action} {parameter}: cost {cost.time_s:.3e} s "
                f"{relation} budget {budget_s:.3e} s "
                f"({self.tolerance:.0%} of epoch {last_epoch_time_s:.3e} s); "
                f"payback {payback:.2f} epochs vs tolerance "
                f"{self.tolerance:.2f}"
            ),
            cost_time_s=cost.time_s,
            cost_energy_j=cost.energy_j,
            budget_s=budget_s,
            payback_epochs=payback,
        )


def policy_from_name(name: str, **kwargs) -> ReconfigurationPolicy:
    """Instantiate a policy by its paper name."""
    policies = {
        "aggressive": AggressivePolicy,
        "conservative": ConservativePolicy,
        "hybrid": HybridPolicy,
    }
    if name not in policies:
        raise ConfigError(f"unknown policy {name!r}")
    return policies[name](**kwargs)


def parse_policy(text: str) -> ReconfigurationPolicy:
    """Parse a declarative policy string from a plan or experiment spec.

    Accepted forms: ``conservative``, ``aggressive``, ``hybrid`` (the
    default 40% tolerance), and ``hybrid:<tolerance>`` with the
    tolerance as a fraction (``hybrid:0.4``). The string is the
    content-addressed identity of the policy inside a
    :class:`~repro.runner.plan.JobSpec`, so two spellings of the same
    policy (``hybrid`` vs ``hybrid:0.40``) are *different* job keys on
    purpose — the description, not the object, is what is hashed.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError(f"policy must be a non-empty string, got {text!r}")
    name, sep, argument = text.partition(":")
    name = name.strip().lower()
    kwargs = {}
    if sep:
        if name != "hybrid":
            raise ConfigError(
                f"policy {name!r} takes no tolerance argument "
                f"(only 'hybrid:<tolerance>' does)"
            )
        try:
            kwargs["tolerance"] = float(argument)
        except ValueError:
            raise ConfigError(
                f"hybrid tolerance must be a number, got {argument!r}"
            ) from None
    return policy_from_name(name, **kwargs)
