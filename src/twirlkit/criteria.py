"""Separability criteria evaluated on reconstructed invariants.

Every criterion is reported as (lhs, rhs, margin) with margin = rhs - lhs;
separable states satisfy lhs <= rhs, so a negative margin flags entanglement.
Ties (margin == 0) are never flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reconstruct import XVector2, XVector3, _in_mask


# Ties must not count as detections; exact ties (pure product states saturate
# the purity bound) come out of floating-point arithmetic as margins of a few
# ulps of either sign, so "tie" means |margin| below this band.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class CriterionReport:
    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def detected(self) -> bool:
        return self.margin < -TIE_TOL


def purity_criterion(x: XVector2) -> tuple[CriterionReport, list[tuple[int, ...]]]:
    """Global purity vs the smallest marginal purity, plus every violated cut.

    A state separable across every cut has Tr rho^2 <= Tr rho_P^2 for every
    nonempty proper subset P.  Returns the aggregate report (rhs = minimal
    marginal purity) and the list of subsets P that are individually violated.
    """
    n = x.dims.n_parties
    full = x.full_purity
    violated = []
    rhs = math.inf
    for p_mask in range(1, 2**n - 1):
        subset = tuple(l for l in range(n) if _in_mask(p_mask, l, n))
        marg = float(x.purities[p_mask])
        rhs = min(rhs, marg)
        if full > marg:
            violated.append(subset)
    report = CriterionReport(name="purity", lhs=full, rhs=rhs)
    return report, violated


def third_order_criterion(x: XVector3) -> CriterionReport:
    """Tr rho^3 + Tr (rho^Gamma)^3 <= 2 Tr((Tr_B rho^2) rho_A) for separable states.

    The left side is the measurable combination 2 x_S, so the criterion is
    fully accessible from randomized measurements.
    """
    return CriterionReport(
        name="third-order",
        lhs=x.values[9] + x.values[10],
        rhs=2.0 * x.values[8],
    )


# ---------------------------------------------------------------------------
# Werner family thresholds
# ---------------------------------------------------------------------------

def werner_poly_2(d: int, p: float) -> float:
    """Order-2 detection polynomial; negative values mean detection."""
    return -(d + 1.0) * p * p + 1.0


def werner_poly_3(d: int, p: float) -> float:
    """Order-3 detection polynomial; negative values mean detection."""
    return (
        -(d * d - 4.0) * (d + 1.0) * p**3
        + 2.0 * (d + 1.0) * (d - 3.0) * p * p
        + 2.0
    )


def werner_threshold_2(d: int) -> float:
    """Smallest p detected at order 2: 1 / sqrt(d + 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return 1.0 / math.sqrt(d + 1.0)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def werner_threshold_3(d: int) -> float:
    """Smallest p detected at order 3: the real root of the cubic via Cardano.

    Cross-checked internally against the numeric roots of the same
    polynomial; a disagreement beyond 1e-9 raises.
    """
    if d < 3:
        raise ValueError("the order-3 criterion needs d >= 3")
    a = -2.0 * (d - 3.0) / ((d - 2.0) * (d + 2.0))
    b = -2.0 / ((d - 2.0) * (d + 2.0) * (d + 1.0))
    q = -a * a / 3.0
    r = 2.0 * a**3 / 27.0 + b
    disc = r * r / 4.0 + q**3 / 27.0
    root = _cbrt(-r / 2.0 + math.sqrt(disc)) + _cbrt(-r / 2.0 - math.sqrt(disc)) - a / 3.0
    coeffs = [-(d * d - 4.0) * (d + 1.0), 2.0 * (d + 1.0) * (d - 3.0), 0.0, 2.0]
    numeric = [z.real for z in np.roots(coeffs) if abs(z.imag) < 1e-9 and 0.0 < z.real <= 1.0]
    if not numeric or abs(root - min(numeric)) > 1e-9:
        raise ArithmeticError(
            f"Cardano root {root!r} disagrees with numeric roots {numeric!r} at d={d}"
        )
    return root

