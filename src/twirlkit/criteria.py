"""Separability criteria evaluated on invariant vectors, exact or
reconstructed, given as plain arrays in the layout of ``reconstruct.invert``.

A criterion is rows of terms, each a coefficient times one wiring per party.
Separable states satisfy lhs <= rhs on every row (its negative and positive
terms), so a negative margin = rhs - lhs flags entanglement; ties never do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import reconstruct, weingarten


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


# wirings as image tuples: identity and swap; 3-cycle, its inverse and a swap
E2, SWAP2 = (0, 1), (1, 0)
C3, C3_INV, SWAP3 = (2, 0, 1), (1, 2, 0), (1, 0, 2)


@lru_cache(maxsize=None)
def _table(order: int, n_parties: int) -> tuple[str, int, np.ndarray, np.ndarray]:
    """Read-only ``(name, n_invariants, ids, coefs)``: row r is the sum
    over terms t of ``coefs[t]`` times x at ``ids[r, t]``, the id that
    ``reconstruct._invariants`` gives the term's tuple of wirings."""
    if order == 2 and n_parties >= 2:
        # Tr rho_P^2 - Tr rho^2, where product tuple P swaps the parties of bitmask P
        cuts = list(itertools.product((E2, SWAP2), repeat=n_parties))
        name, coefs = "purity", (1.0, -1.0)
        wirings = [[cut, cuts[-1]] for cut in cuts[1:-1]]
    elif order == 3 and n_parties == 2:
        # 2 Tr((Tr_B rho^2) rho_A) - Tr rho^3 - Tr (rho^Gamma)^3
        name, coefs = "third-order", (2.0, -1.0, -1.0)
        wirings = [[(C3, SWAP3), (C3, C3), (C3, C3_INV)]]
    else:
        raise ValueError(f"no criterion at order {order} on {n_parties} parties")
    perms = weingarten.permutations_of_order(order)
    digits = np.moveaxis(weingarten._row_index(perms, np.array(wirings)), -1, 0)
    invariants = reconstruct._invariants(order, n_parties)
    ids = invariants[np.ravel_multi_index(tuple(digits), (len(perms),) * n_parties)]
    ids.setflags(write=False)
    return name, int(invariants.max()) + 1, ids, np.broadcast_to(coefs, ids.shape[1])


def criterion(order: int, n_parties: int, x) -> tuple[CriterionReport, np.ndarray]:
    """The report of the row of least margin (then least rhs), and every row's
    margin, of the criterion at ``order`` on ``n_parties`` parties evaluated on
    the invariants ``x``.  Order 2 (N >= 2) has a row per subset bitmask
    P = 1 .. 2^N - 2, order 3 one row on two parties; any other (order, N), or
    an x without one value per invariant, raises ValueError."""
    name, n_x, ids, coefs = _table(order, n_parties)
    x = np.asarray(x, dtype=float)
    if x.shape != (n_x,):
        raise ValueError(f"{name} needs {n_x} invariants, got shape {x.shape}")
    pos = coefs > 0
    rhs = x[ids[:, pos]] @ coefs[pos]
    lhs = x[ids[:, ~pos]] @ -coefs[~pos]
    margins = rhs - lhs
    k = np.lexsort((rhs, margins))[0]
    return CriterionReport(name=name, lhs=float(lhs[k]), rhs=float(rhs[k])), margins


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

