"""Separability criteria evaluated on invariant vectors, exact or
reconstructed, given as plain arrays in the layout of ``reconstruct.invert``.

Every criterion is reported as (lhs, rhs, margin) with margin = rhs - lhs;
separable states satisfy lhs <= rhs, so a negative margin flags entanglement.
Ties (margin == 0) are never flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _in_mask(mask: int, party: int, n_parties: int) -> bool:
    return bool(mask >> (n_parties - 1 - party) & 1)


def purity_criterion(x) -> tuple[CriterionReport, list[tuple[int, ...]]]:
    """Global purity vs the smallest marginal purity, plus every violated cut.

    ``x`` holds the 2^N purities Tr rho_P^2 indexed by subset bitmask.  A
    state separable across every cut has Tr rho^2 <= Tr rho_P^2 for every
    nonempty proper subset P (one party has no cut, so N >= 2).  Returns the
    aggregate report (rhs = minimal marginal purity) and the flagged subsets.
    """
    x = np.asarray(x, dtype=float)
    n = len(x).bit_length() - 1
    if n < 2 or len(x) != 2**n:
        raise ValueError(f"a purity vector has 2^N entries with N >= 2, got {len(x)}")
    full = float(x[-1])
    violated = [
        tuple(l for l in range(n) if _in_mask(mask, l, n))
        for mask in range(1, 2**n - 1)
        if x[mask] - full < -TIE_TOL
    ]
    rhs = float(np.min(x[1:-1]))
    return CriterionReport(name="purity", lhs=full, rhs=rhs), violated


def third_order_criterion(x) -> CriterionReport:
    """Tr rho^3 + Tr (rho^Gamma)^3 <= 2 Tr((Tr_B rho^2) rho_A) for separable states.

    ``x`` holds the eleven invariants x0..x10.  The left side is the
    measurable combination 2 x_S, so the criterion is fully accessible from
    randomized measurements.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (11,):
        raise ValueError(f"an order-3 invariant vector has 11 components, got shape {x.shape}")
    return CriterionReport(
        name="third-order",
        lhs=float(x[9] + x[10]),
        rhs=float(2.0 * x[8]),
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
    """Smallest p detected at order 3: the real root of the cubic via Cardano."""
    if d < 3:
        raise ValueError("the order-3 criterion needs d >= 3")
    a = -2.0 * (d - 3.0) / ((d - 2.0) * (d + 2.0))
    b = -2.0 / ((d - 2.0) * (d + 2.0) * (d + 1.0))
    q = -a * a / 3.0
    r = 2.0 * a**3 / 27.0 + b
    disc = r * r / 4.0 + q**3 / 27.0
    return _cbrt(-r / 2.0 + math.sqrt(disc)) + _cbrt(-r / 2.0 - math.sqrt(disc)) - a / 3.0

