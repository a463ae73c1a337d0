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
single-representative value).

The invariant order is defined once, by :func:`_invariants`.  An invariant is
an orbit of per-party wiring permutations under one conjugation applied to
every party at once, sorted by each party's cycle count (more first), then by
the cycle count of tau_a tau_b for each pair of parties a < b (fewer first),
then by least member: the subset bitmask at order 2, x0..x10 of
:class:`XVector3` at bipartite order 3.  A column of M is an orbit that may
also invert any one party's permutation, which no equality pattern can tell
apart, numbered by first appearance.  Order 3 merges only x9 and x10, so
:func:`invert` puts x_S in both slots; three and four parties give 49 and 251
invariants on 37 and 150 columns.
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
from .weingarten import _partitions, permutations_of_order, s_matrix, w_matrix


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


@lru_cache(maxsize=None)
def _invariants(order: int, n_parties: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, slots): the invariant of each tuple of per-party permutations, in
    ``itertools.product`` order over ``permutations_of_order`` with party 0
    slowest, and the measurable column of each invariant, both numbered as in
    the module docstring.  Orbits are keyed by their least member.
    """
    group = permutations_of_order(order)
    index = {p.images: i for i, p in enumerate(group)}
    mul = [[index[p.compose(q).images] for q in group] for p in group]
    inv = [index[p.inverse().images] for p in group]
    conj = [[mul[mul[s][t]][inv[s]] for t in range(len(group))] for s in range(len(group))]
    cycles = [len(p.cycles()) for p in group]
    keys = [
        min(tuple(c[t] for t in tup) for c in conj)
        for tup in itertools.product(range(len(group)), repeat=n_parties)
    ]
    orbits = sorted(set(keys), key=lambda k: (
        tuple(-cycles[t] for t in k),
        tuple(cycles[mul[a][b]] for a, b in itertools.combinations(k, 2)),
        k,
    ))
    rank = {k: i for i, k in enumerate(orbits)}
    # inverting one party commutes with conjugation, so for each conjugation
    # the least member takes the smaller of each party's pair {tau, tau^-1}
    columns: dict[tuple, int] = {}
    slots = [
        columns.setdefault(min(tuple(min(c[t], c[inv[t]]) for t in k) for c in conj),
                           len(columns))
        for k in orbits
    ]
    ids, slots = np.array([rank[k] for k in keys]), np.array(slots)
    for a in (ids, slots):
        a.setflags(write=False)
    return ids, slots


def _pattern_rows(order: int, dims: tuple[int, ...]) -> np.ndarray:
    """Forward rows of every tuple of exact per-party patterns, on the
    measurable columns of :func:`_invariants`.

    Rows index the pattern tuples in ``itertools.product`` order, party 0
    slowest; the wiring-tuple columns of the Kronecker product are summed into
    their measurable column.  At order 2 that map is the identity.
    """
    rows = np.ones((1, 1))
    for d in dims:
        rows = np.kron(rows, s_matrix(order) @ w_matrix(order, d))
    ids, slots = _invariants(order, len(dims))
    cols = slots[ids]
    by_col = np.argsort(cols, kind="stable")
    starts = np.searchsorted(cols[by_col], np.arange(slots.max() + 1))
    return np.add.reduceat(rows[:, by_col], starts, axis=1)


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

    Each invariant of :func:`_invariants` reads its measurable column: the 2^N
    purities at order 2, and x0..x8 with x_S in both the x9 and x10 slots at
    order 3.  Raises if the result does not reproduce y within
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
    return np.take(x, _invariants(order, len(dims))[1], axis=-1)
