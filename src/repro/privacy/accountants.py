"""Privacy composition accountants.

The paper analyses a *per-step* budget ``(epsilon, delta)`` and notes
(Section 2.3) that the overall training budget follows from
composition: linearly under the classical theorem, or more tightly via
advanced composition or moments accounting.  All three are implemented:

* :class:`BasicCompositionAccountant` — Dwork & Roth Thm 3.16:
  ``(sum eps_i, sum delta_i)``.
* :class:`AdvancedCompositionAccountant` — Dwork & Roth Thm 3.20: for
  ``k``-fold composition of an ``(eps, delta)`` mechanism with slack
  ``delta'``, the total is
  ``(eps sqrt(2 k ln(1/delta')) + k eps (e^eps - 1), k delta + delta')``.
* :class:`RDPAccountant` — moments-accountant style tracking for the
  Gaussian mechanism: a mechanism with noise multiplier ``sigma_tilde``
  has Renyi-DP ``eps_RDP(a) = a / (2 sigma_tilde^2)``; RDP composes
  additively, and converts to ``(eps, delta)``-DP via Mironov's bound
  ``eps = eps_RDP(a) + log(1/delta)/(a - 1)`` minimised over orders.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.exceptions import PrivacyError

__all__ = [
    "PrivacySpend",
    "BasicCompositionAccountant",
    "AdvancedCompositionAccountant",
    "RDPAccountant",
    "DEFAULT_RDP_ORDERS",
]


class PrivacySpend(NamedTuple):
    """An ``(epsilon, delta)`` pair."""

    epsilon: float
    delta: float


def _validate_per_step(epsilon: float, delta: float) -> None:
    if epsilon <= 0:
        raise PrivacyError(f"per-step epsilon must be positive, got {epsilon}")
    if not 0 <= delta < 1:
        raise PrivacyError(f"per-step delta must be in [0, 1), got {delta}")


def _validate_steps(steps: int) -> None:
    if steps < 1:
        raise PrivacyError(f"steps must be >= 1, got {steps}")


class BasicCompositionAccountant:
    """Classical (linear) composition."""

    def compose(self, epsilon: float, delta: float, steps: int) -> PrivacySpend:
        """Total budget after ``steps`` invocations of an (eps, delta) mechanism."""
        _validate_per_step(epsilon, delta)
        _validate_steps(steps)
        return PrivacySpend(epsilon=steps * epsilon, delta=steps * delta)

    def max_steps(self, epsilon: float, delta: float, epsilon_budget: float) -> int:
        """Largest ``T`` keeping the total epsilon within ``epsilon_budget``."""
        _validate_per_step(epsilon, delta)
        if epsilon_budget <= 0:
            raise PrivacyError(f"epsilon_budget must be positive, got {epsilon_budget}")
        return max(0, int(math.floor(epsilon_budget / epsilon)))


class AdvancedCompositionAccountant:
    """Strong composition (Dwork & Roth, Theorem 3.20).

    Parameters
    ----------
    slack_delta:
        The extra failure probability ``delta'`` the theorem grants in
        exchange for the ``sqrt(k)`` epsilon growth.
    """

    def __init__(self, slack_delta: float = 1e-6):
        if not 0 < slack_delta < 1:
            raise PrivacyError(f"slack_delta must be in (0, 1), got {slack_delta}")
        self._slack_delta = float(slack_delta)

    @property
    def slack_delta(self) -> float:
        """The composition slack ``delta'``."""
        return self._slack_delta

    def compose(self, epsilon: float, delta: float, steps: int) -> PrivacySpend:
        """Total budget after ``steps`` invocations of an (eps, delta) mechanism."""
        _validate_per_step(epsilon, delta)
        _validate_steps(steps)
        total_epsilon = epsilon * math.sqrt(
            2.0 * steps * math.log(1.0 / self._slack_delta)
        ) + steps * epsilon * (math.exp(epsilon) - 1.0)
        total_delta = steps * delta + self._slack_delta
        return PrivacySpend(epsilon=total_epsilon, delta=total_delta)


# Renyi orders used when minimising the conversion bound; the classic
# Opacus/TF-Privacy grid.
DEFAULT_RDP_ORDERS: tuple[float, ...] = tuple(
    [1.0 + x / 10.0 for x in range(1, 100)] + list(range(11, 64)) + [128.0, 256.0, 512.0]
)


class RDPAccountant:
    """Moments-accountant style tracking for Gaussian mechanisms.

    Track steps with :meth:`step_gaussian`, then query
    :meth:`get_privacy_spent`.
    """

    def __init__(self, orders: tuple[float, ...] = DEFAULT_RDP_ORDERS):
        for order in orders:
            if order <= 1.0:
                raise PrivacyError(f"RDP orders must exceed 1, got {order}")
        if not orders:
            raise PrivacyError("orders must be non-empty")
        self._orders = tuple(float(order) for order in orders)
        self._rdp = [0.0 for _ in self._orders]

    @property
    def orders(self) -> tuple[float, ...]:
        """The Renyi orders tracked."""
        return self._orders

    def step_gaussian(self, noise_multiplier: float, steps: int = 1) -> None:
        """Account for ``steps`` Gaussian queries with the given multiplier.

        ``noise_multiplier`` is ``sigma / sensitivity``; the Gaussian
        mechanism's RDP at order ``a`` is ``a / (2 multiplier^2)``.
        """
        if noise_multiplier <= 0:
            raise PrivacyError(
                f"noise_multiplier must be positive, got {noise_multiplier}"
            )
        _validate_steps(steps)
        try:
            denominator = 2.0 * noise_multiplier**2
        except OverflowError:  # a multiplier past ~1e154 spends nothing
            denominator = math.inf
        for index, order in enumerate(self._orders):
            self._rdp[index] += steps * order / denominator

    def get_privacy_spent(self, delta: float) -> PrivacySpend:
        """Best ``(epsilon, delta)`` conversion over all tracked orders."""
        if not 0 < delta < 1:
            raise PrivacyError(f"delta must be in (0, 1), got {delta}")
        if all(value == 0.0 for value in self._rdp):
            return PrivacySpend(epsilon=0.0, delta=delta)
        best = math.inf
        log_inverse_delta = math.log(1.0 / delta)
        for order, rdp in zip(self._orders, self._rdp):
            candidate = rdp + log_inverse_delta / (order - 1.0)
            best = min(best, candidate)
        return PrivacySpend(epsilon=best, delta=delta)

    def reset(self) -> None:
        """Forget all tracked steps."""
        self._rdp = [0.0 for _ in self._orders]
