"""The forward map y = A x between twirl-averaged statistics and invariants,
its inverse, and the exact invariants of a state, at every order.

:func:`forward_matrix` derives A from the Weingarten matrices and the
equality-pattern rows; :func:`invert` applies its cached minimum-norm inverse.

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
single-representative value).

The invariant order is defined once, by :func:`_invariants`.  An invariant is
an orbit of per-party wiring permutations under one conjugation applied to
every party at once, sorted by each party's cycle count (more first), then by
the cycle count of tau_a tau_b for each pair of parties a < b (fewer first),
then by least member: the subset bitmask at order 2, x0..x10 of
:class:`XVector3` at bipartite order 3.

A has one row per y component and one column per invariant: square at order
2; 10 x 11, 37 x 49 and 150 x 251 at order 3 on two, three and four parties;
33 x 43 and 285 x 681 at order 4 on two and three.  Randomized measurements
see only A x, so :func:`invert` returns the x of least norm with A x = y.
Inverting one party's wiring keeps the column, so such invariants get one
value, such as x_S = (x9 + x10) / 2 in both slots at two-party order 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .states import DensityMatrix, DimensionMismatchError
from .weingarten import (
    _group_tables,
    _partitions,
    _row_index,
    permutations_of_order,
    s_matrix,
    w_matrix,
)


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

    purities: np.ndarray = field(repr=False)


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
    return XVector2(purities=purities)


# ---------------------------------------------------------------------------
# exact invariants, order 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XVector3:
    """The result of :func:`exact_x3`: the eleven third-order invariants
    x0..x10 as a read-only array, x9 = Tr rho^3 and x10 = Tr (rho^Gamma)^3.

    Only x9 + x10 is accessible from randomized measurements, so
    :func:`invert` and ``measurable`` carry x_S = (x9 + x10) / 2 in both slots.
    """

    values: np.ndarray = field(repr=False)

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.shape != (11,):
            raise ValueError("an order-3 invariant vector has 11 components")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def measurable(self) -> np.ndarray:
        """x0..x8, x_S, x_S: the layout of :func:`invert`."""
        x_s = 0.5 * (self.values[9] + self.values[10])
        return np.r_[self.values[:9], x_s, x_s]


def exact_x3(rho: DensityMatrix) -> XVector3:
    """Closed-form trace expressions for all eleven bipartite invariants.

    Every trace is read off the (d_A, d_B, d_A, d_B) views of rho and rho^2:
    the marginals and Tr_A rho^2, Tr_B rho^2 by ``np.trace``, and rho^Gamma
    (B transposed) by one axis swap.  The first factor of each Tr(a b) is
    Hermitian, so it is vdot(a, b).
    """
    if rho.dims.n_parties != 2:
        raise DimensionMismatchError(
            f"order-3 invariants need a bipartite state, not a {rho.dims.n_parties}-party state"
        )
    m = rho.entries
    t = m.reshape(rho.dims.dims * 2)
    m2 = m @ m
    t2 = m2.reshape(t.shape)
    r_a = np.trace(t, axis1=1, axis2=3)
    r_b = np.trace(t, axis1=0, axis2=2)
    pt = t.transpose(0, 3, 2, 1).reshape(m.shape)
    tr = np.trace(m).real
    return XVector3(
        np.real((
            tr**3,
            np.vdot(r_b, r_b) * tr,
            np.vdot(r_b, r_b @ r_b),
            np.vdot(r_a, r_a) * tr,
            np.einsum("ij,kl,jlik->", r_a, r_b, t),
            np.trace(m2) * tr,
            np.vdot(np.trace(t2, axis1=0, axis2=2), r_b),
            np.vdot(r_a, r_a @ r_a),
            np.vdot(np.trace(t2, axis1=1, axis2=3), r_a),
            np.vdot(m, m2),
            np.vdot(pt, pt @ pt),
        ))
    )


# ---------------------------------------------------------------------------
# the forward matrix and its inverse, every order
# ---------------------------------------------------------------------------

def _orbits(action: np.ndarray, n_parties: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of tuples of ``n_parties`` points under ``action``, whose row g
    maps every point p to ``action[g, p]``, applied to every party at once.

    Tuples are numbered in ``itertools.product`` order with party 0 slowest,
    so a tuple's number is its base-(number of points) code and the least
    member of an orbit is also its first.  Returns the sorted least members
    and, per tuple, the position of its orbit among them.
    """
    n_moves, n_points = action.shape
    codes = np.zeros((n_moves, 1), dtype=np.intp)
    for _ in range(n_parties):
        codes = (codes[:, :, None] * n_points + action[:, None, :]).reshape(n_moves, -1)
    keys = codes.min(axis=0)
    present = np.bincount(keys) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


@lru_cache(maxsize=None)
def _pooling(order: int, n_parties: int) -> np.ndarray:
    """(P^N, n_components) 0/1 map from exact-pattern tuples to components,
    in the order of the module docstring; the moment kernel and
    :func:`forward_matrix` both pool through it.  A relabelling of the rounds
    acts on a pattern through its first-occurrence positions.
    """
    parts = np.array(_partitions(order))

    def first(patterns):
        return (patterns[..., :, None] == patterns[..., None, :]).argmax(-1)

    relabel = _row_index(first(parts), first(parts[:, permutations_of_order(order)]))
    least, comps = _orbits(relabel.T, n_parties)
    pool = np.eye(len(least))[comps]
    pool.setflags(write=False)
    return pool


@lru_cache(maxsize=None)
def _invariants(order: int, n_parties: int) -> np.ndarray:
    """The invariant of each tuple of per-party permutations, in
    ``itertools.product`` order over ``permutations_of_order`` with party 0
    slowest, numbered as in the module docstring.  Orbits are keyed by their
    least member.
    """
    mul, inv, cycles = _group_tables(order)
    # conjugation by s maps t to s t s^-1
    least, orbit = _orbits(mul[mul, inv[:, None]], n_parties)
    digits = np.unravel_index(least, (len(inv),) * n_parties)
    pairs = [cycles[mul[a, b]] for a, b in itertools.combinations(digits, 2)]
    # lexsort's last key is its first criterion
    sort = np.lexsort([least, *pairs[::-1], *(-cycles[d] for d in digits[::-1])])
    rank = np.empty_like(sort)
    rank[sort] = np.arange(len(sort))
    ids = rank[orbit]
    ids.setflags(write=False)
    return ids


@lru_cache(maxsize=None)
def forward_matrix(order: int, dims: tuple[int, ...]) -> np.ndarray:
    """A: y = A x from the invariants of :func:`_invariants` to the per-class
    averages, one row per y component.

    Row c, at any order and number of parties, is the Weingarten expectation
    of component c at the first exact-pattern tuple that ``_pooling`` puts
    into c: the Kronecker product over parties of that pattern's row of
    ``s_matrix @ w_matrix``, whose entries (tuples of permutations) are summed
    per invariant.  Every tuple of a component has the same row, which the
    tests check.  Raises SingularDimensionError where a party's Weingarten
    matrix does not exist (a party with fewer outcomes than the order, such
    as order 3 on a qubit).
    """
    sw = s_matrix(order)
    first = _pooling(order, len(dims)).argmax(axis=0)
    rows = np.ones((len(first), 1))
    for pattern, d in zip(np.unravel_index(first, (len(sw),) * len(dims)), dims):
        factor = (sw @ w_matrix(order, d))[pattern]
        rows = (rows[:, :, None] * factor[:, None, :]).reshape(len(first), -1)
    ids = _invariants(order, len(dims))
    a = np.array([np.bincount(ids, row, ids.max() + 1) for row in rows])
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _inverse(order: int, dims: tuple[int, ...]) -> np.ndarray:
    """M = (A A^T)^-1 A, so that x = y @ M is A^T (A A^T)^-1 y.

    Checked once per (order, dims): the largest row sum of |A M^T - I| bounds
    |A x - y| for every y in [0, 1], where every y of the estimator lies, and
    above ``RESIDUAL_TOL`` raises ReconstructionError.
    """
    a = forward_matrix(order, dims)
    m = np.linalg.solve(a @ a.T, a)
    residual = np.max(np.abs(a @ m.T - np.eye(len(a))).sum(axis=1))
    if not residual <= RESIDUAL_TOL:
        raise ReconstructionError(f"inversion residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
    m.setflags(write=False)
    return m


def invert(order: int, dims: Sequence[int], y) -> np.ndarray:
    """Invariants from one y vector or a (k, n_components) batch of them.

    Returns the minimum-norm solution of A x = y, one value per invariant of
    :func:`_invariants` (the 2^N purities at order 2); invariants that share
    a column get one value, such as x_S in the two-party x9 and x10 slots.
    One matmul with the :func:`_inverse` of the shape, whose residual is
    checked there once.  Raises unless y is finite.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ReconstructionError("cannot invert a non-finite y")
    return y @ _inverse(order, tuple(dims))
