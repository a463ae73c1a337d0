"""The forward map y = M x between twirl-averaged statistics and invariants,
its inverse, and the exact invariants of a state, at orders 2 and 3.

:func:`forward_matrix` derives M for both orders from the Weingarten matrices
and the equality-pattern rows; :func:`invert` applies its cached inverse.

Conventions
-----------
Order-2 vectors are indexed by subsystem subsets as bitmasks with subsystem 0
the most significant bit, so for two parties the order is
(1, Tr rho_B^2, Tr rho_A^2, Tr rho^2).

The y-component order is defined once, by :func:`_pooling`: orbits of the
per-party exact patterns under one relabelling of the rounds, numbered by
first appearance in ``itertools.product`` order over ``_partitions``.  Order
2 keeps the class bitmask.  Order 3 (bipartite, three rounds) is A-pattern
major over {all-equal, one-pair, all-distinct}, (pair, pair) split in two:

    y0 (equal, equal)  y1 (equal, pair)  y2 (equal, dist)  y3 (pair, equal)
    y4 (pair, pair | the same pair of rounds coincides on both sides)
    y5 (pair, pair | different pairs of rounds coincide)
    y6 (pair, dist)    y7 (dist, equal)  y8 (dist, pair)   y9 (dist, dist)

With this order x4 - x5 = (y5 - y4) d_A(d_A^2-1) d_B(d_B^2-1).  Each y
component is the average over all index tuples of its equality class (every
representative has the same expectation, so the average equals the
single-representative value).  The order-3 columns of M are x0..x8 and the
measurable x_S = (x9 + x10) / 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .states import (
    DensityMatrix,
    DimsProfile,
    partial_trace,
    partial_transpose,
    trace_power,
)
from .weingarten import INVARIANT_ID, _partitions, s_matrix, w_matrix


class ReconstructionError(ArithmeticError):
    """Numerical failure: the recovered invariants do not reproduce the data."""


RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# exact invariants, order 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XVector2:
    """The result of :func:`exact_x2`: marginal purities Tr rho_P^2, indexed
    by the subset bitmask P."""

    dims: DimsProfile
    purities: np.ndarray = field(repr=False)


def subset_mask(subsystems: Sequence[int], n_parties: int) -> int:
    mask = 0
    for s in subsystems:
        if not 0 <= s < n_parties:
            raise ValueError(f"subsystem {s} out of range")
        mask |= 1 << (n_parties - 1 - s)
    return mask


def _in_mask(mask: int, party: int, n_parties: int) -> bool:
    return bool(mask >> (n_parties - 1 - party) & 1)


def exact_x2(rho: DensityMatrix) -> XVector2:
    """All marginal purities computed directly from the state.

    A depth-first walk of the marginal lattice: each rho_P is traced from a
    parent with one party more, by one ``np.trace`` on its ``dims + dims``
    tensor, and Tr rho_P^2 is its squared Frobenius norm.  Parties leave in
    increasing order, so every P is reached once and only the current chain
    of marginals is held.  The empty marginal has purity 1 by convention.
    """
    n = rho.dims.n_parties
    purities = np.empty(2**n)
    purities[0] = 1.0

    def visit(t: np.ndarray, parties: tuple[int, ...], mask: int, start: int) -> None:
        purities[mask] = np.vdot(t, t).real
        k = len(parties)
        if k == 1:
            return
        for i in range(start, k):
            visit(np.trace(t, axis1=i, axis2=k + i), parties[:i] + parties[i + 1:],
                  mask & ~(1 << (n - 1 - parties[i])), i)

    visit(rho.entries.reshape(rho.dims.dims * 2), tuple(range(n)), 2**n - 1, 0)
    return XVector2(dims=rho.dims, purities=purities)


# ---------------------------------------------------------------------------
# exact invariants, order 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XVector3:
    """The result of :func:`exact_x3`: the eleven third-order invariants
    x0..x10, with x9 = Tr rho^3 and x10 = Tr (rho^Gamma)^3.

    Only x9 + x10 is accessible from randomized measurements, so
    :func:`invert` and ``measurable`` carry x_S = (x9 + x10) / 2 in both slots.
    """

    values: tuple[float, ...]

    def __init__(self, values):
        values = tuple(float(v) for v in values)
        if len(values) != 11:
            raise ValueError("an order-3 invariant vector has 11 components")
        object.__setattr__(self, "values", values)

    @property
    def measurable(self) -> np.ndarray:
        """x0..x8, x_S, x_S: the layout of :func:`invert`."""
        x_s = 0.5 * (self.values[9] + self.values[10])
        return np.array(self.values[:9] + (x_s, x_s))


def exact_x3(rho: DensityMatrix) -> XVector3:
    """Closed-form trace expressions for all eleven bipartite invariants."""
    if rho.dims.n_parties != 2:
        raise ValueError("order-3 invariants are defined for bipartite states")
    dims = rho.dims.dims
    m = rho.entries
    r_a = partial_trace(rho, [0]).entries
    r_b = partial_trace(rho, [1]).entries
    m2 = m @ m
    t = m2.reshape(dims + dims)
    trb_m2 = np.trace(t, axis1=1, axis2=3)  # Tr_B rho^2, operator on A
    tra_m2 = np.trace(t, axis1=0, axis2=2)  # Tr_A rho^2, operator on B
    return XVector3(
        (
            float(np.trace(m).real) ** 3,
            (np.trace(r_b @ r_b) * np.trace(m)).real,
            np.trace(r_b @ r_b @ r_b).real,
            (np.trace(r_a @ r_a) * np.trace(m)).real,
            np.trace(np.kron(r_a, r_b) @ m).real,
            (np.trace(m2) * np.trace(m)).real,
            np.trace(tra_m2 @ r_b).real,
            np.trace(r_a @ r_a @ r_a).real,
            np.trace(trb_m2 @ r_a).real,
            np.trace(m2 @ m).real,
            trace_power(partial_transpose(rho, 1), 3),
        )
    )


# ---------------------------------------------------------------------------
# the forward matrix and its inverse, both orders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pooling(order: int, n_parties: int) -> np.ndarray:
    """(P^N, n_components) 0/1 map from exact-pattern tuples to components,
    in the order of the module docstring; the moment kernel and
    :func:`forward_matrix` both pool through it.  An orbit is keyed by its
    least member, each pattern written as first-occurrence positions.
    """
    ids: dict[tuple, int] = {}
    comps = [
        ids.setdefault(min(
            tuple(tuple(map(p.index, p)) for p in ([s[r] for r in perm] for s in t))
            for perm in itertools.permutations(range(order))
        ), len(ids))
        for t in itertools.product(_partitions(order), repeat=n_parties)
    ]
    return np.eye(len(ids))[comps]


def _pattern_rows(order: int, dims: tuple[int, ...]) -> np.ndarray:
    """Forward rows of every tuple of exact per-party patterns, on invariants.

    Row and column index the tuples in ``itertools.product`` order, party 0
    slowest.  At order 2 a column is a tuple of S2 elements, i.e. the bitmask
    of the swapped parties, which is already the purity index.  At order 3
    columns fold onto ``INVARIANT_ID`` with x9 and x10 merged into x_S.
    """
    rows = np.ones((1, 1))
    for d in dims:
        rows = np.kron(rows, s_matrix(order) @ w_matrix(order, d))
    if order == 3:
        rows = rows @ np.eye(10)[np.minimum(np.ravel(INVARIANT_ID), 9)]
    return rows


@lru_cache(maxsize=None)
def forward_matrix(order: int, dims: tuple[int, ...]) -> np.ndarray:
    """Square map y = M x from invariants to the per-class averages.

    Row c is the Weingarten expectation of component c: the row of the first
    exact-pattern tuple that ``_pooling`` puts into c.  Every tuple of a
    component has the same row, which the tests check.  Raises
    SingularDimensionError where a party's Weingarten matrix does not exist
    (order 3 with a qubit).
    """
    if order == 3 and len(dims) != 2:
        raise ValueError("order-3 invariants are defined for bipartite states")
    m = _pattern_rows(order, dims)[_pooling(order, len(dims)).argmax(axis=0)]
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _inverse(order: int, dims: tuple[int, ...]) -> np.ndarray:
    m = np.linalg.inv(forward_matrix(order, dims))
    m.setflags(write=False)
    return m


def invert(order: int, dims: Sequence[int], y) -> np.ndarray:
    """Invariants from one y vector or a (k, n_components) batch of them.

    Order 2 gives the 2^N purities; order 3 gives x0..x8 and x_S in both the
    x9 and x10 slots.  Raises if the result does not reproduce y within
    ``RESIDUAL_TOL``, or if y is not finite.
    """
    dims = tuple(dims)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ReconstructionError("cannot invert a non-finite y")
    x = y @ _inverse(order, dims).T
    residual = np.max(np.abs(x @ forward_matrix(order, dims).T - y))
    if residual > RESIDUAL_TOL:
        raise ReconstructionError(
            f"inversion residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    return x[..., list(range(10)) + [9]] if order == 3 else x
