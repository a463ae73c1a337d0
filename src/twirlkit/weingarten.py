"""S_n as integer tables, Gram and Weingarten matrices, and the diagram
oracle, compiled once per wiring and shape into traces and a chain of matmuls.

A permutation is its index in :func:`permutations_of_order`, a read-only
(n!, n) array of images; :func:`_group_tables` holds the products, inverses
and cycle counts of those indices.  Every S_n is in lexicographic order of
its images, identity first: ``{e, (12)}`` for S2 and
``{e, (23), (12), (123), (132), (13)}`` for S3, in cycle notation on {1,2,3}
(0-based internally).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .states import DensityMatrix


class SingularDimensionError(ValueError):
    """Raised when the Gram matrix of S_n at dimension d is singular (n > d,
    so order 3 on a qubit)."""


@lru_cache(maxsize=None)
def permutations_of_order(n: int) -> np.ndarray:
    """Read-only (n!, n) images of S_n, one row per permutation, in
    lexicographic order."""
    if n < 1:
        raise ValueError(f"unsupported order n={n}")
    perms = np.array(list(itertools.permutations(range(n))))
    perms.setflags(write=False)
    return perms


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index in ``table`` of each row along the last axis of ``rows``.

    The rows of ``table`` are distinct, with entries below its width, so a
    row is found by its base-width code in a lookup of width^width entries.
    """
    weights = table.shape[1] ** np.arange(table.shape[1])
    lookup = np.zeros(table.shape[1] ** table.shape[1], dtype=np.intp)
    lookup[table @ weights] = np.arange(len(table))
    return lookup[rows @ weights]


@lru_cache(maxsize=None)
def _group_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(mul, inv, cycles)`` of S_n over :func:`permutations_of_order`:
    ``mul[s, t]`` is the index of s t (t first), ``inv[s]`` that of s^-1 and
    ``cycles[s]`` the number of cycles of s."""
    perms = permutations_of_order(n)
    mul = _row_index(perms, perms[:, perms])
    inv = (mul == 0).argmax(axis=1)  # the identity is index 0
    # an element leads its cycle when no power of s maps it lower
    orbit = least = np.broadcast_to(np.arange(n), perms.shape)
    for _ in range(n - 1):
        orbit = np.take_along_axis(perms, orbit, axis=1)
        least = np.minimum(least, orbit)
    cycles = (least == np.arange(n)).sum(axis=1)
    for table in (mul, inv, cycles):
        table.setflags(write=False)
    return mul, inv, cycles


@lru_cache(maxsize=None)
def w_matrix(n: int, d: int) -> np.ndarray:
    """Read-only matrix of Wg(sigma tau^-1, d) over the fixed permutation order:
    the inverse of :func:`gram_matrix`.

    Raises SingularDimensionError when the Gram matrix is singular, which it
    is exactly when n > d (rank 5 of 6 at n = 3, d = 2).
    """
    g = gram_matrix(n, d)
    try:
        m = np.linalg.inv(g)
        singular = np.max(np.abs(m @ g - np.eye(len(g)))) > 1e-9
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        # the rank is an SVD that nothing else in a run needs, so only here
        raise SingularDimensionError(
            f"the order-{n} Gram matrix at d={d} has rank {np.linalg.matrix_rank(g)}"
            f" of {len(g)}, so it has no Weingarten inverse"
        )
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def gram_matrix(n: int, d: int) -> np.ndarray:
    """Read-only matrix of d^(#cycles of sigma tau^-1) over the fixed
    permutation order."""
    mul, inv, cycles = _group_tables(n)
    m = float(d) ** cycles[mul[:, inv]]
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Set partitions of n rounds as restricted growth strings, lexicographic:
    all-equal first, all-distinct last, so at n = 2 a tuple of per-party
    partitions flattens to the class bitmask."""
    parts = [()]
    for _ in range(n):
        parts = [s + (k,) for s in parts for k in range(max(s, default=-1) + 2)]
    return tuple(parts)


def s_matrix(n: int) -> np.ndarray:
    """Equality-pattern x permutation 0/1 matrix of surviving delta products.

    Rows follow ``_partitions(n)``; a permutation survives a pattern when it
    maps every round into the round's own block.
    """
    parts = np.array(_partitions(n))
    return (parts[:, None, :] == parts[:, permutations_of_order(n)]).all(axis=2).astype(float)


@lru_cache(maxsize=None)
def _wiring_plan(taus: tuple[tuple[int, ...], ...], dims: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The contraction of one wiring at one shape as ``(traces, steps)``.

    ``taus`` holds one permutation per party; copy k carries row label
    ``l n + tau_l(k)`` and column label ``l n + k``, of size ``dims[l]``, on
    each party l.  ``traces[k]`` lists the axis pairs traced out of copy k,
    one per label that repeats inside it (a fixed point of some tau_l).  Each
    step ``(a, b, pa, pb, k, shape)`` contracts two held tensors by slot,
    copies first and then step results, as
    ``a.transpose(pa).reshape(-1, k) @ b.transpose(pb).reshape(k, -1)``:
    every label is on exactly two copies, so a step contracts all the labels
    its operands share.  Each step takes the pair of held tensors that share
    a label and give the fewest result entries, the first such pair in slot
    order on a tie; a pair sharing no label is taken only when no pair shares
    one.  Raises ValueError unless all wirings are permutations of one order,
    so a wiring is checked once.
    """
    for images in taus:
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a bijection on 0..{len(images) - 1}")
    n, parties = len(taus[0]), range(len(taus))
    if any(len(images) != n for images in taus):
        raise ValueError("permutation order mismatch")
    copies = [[l * n + taus[l][k] for l in parties] + [l * n + k for l in parties]
              for k in range(n)]
    size = [d for d in dims for _ in range(n)]
    traces, labels = [], []
    for copy in copies:
        pairs = []
        for label in set(copy):
            if copy.count(label) == 2:
                i = copy.index(label)
                j = copy.index(label, i + 1)
                pairs.append((i, j))
                copy = copy[:i] + copy[i + 1 : j] + copy[j + 1 :]
        traces.append(tuple(pairs))
        labels.append(copy)

    def cost(pair):
        a, b = (set(labels[s]) for s in pair)
        return a.isdisjoint(b), math.prod(size[l] for l in a ^ b)

    live, steps = list(range(n)), []
    while len(live) > 1:
        # min keeps the first pair in held order on a tie
        a, b = min(itertools.combinations(live, 2), key=cost)
        shared = [l for l in labels[a] if l in labels[b]]
        free_a = [l for l in labels[a] if l not in shared]
        free_b = [l for l in labels[b] if l not in shared]
        steps.append((
            a, b,
            tuple(map(labels[a].index, free_a + shared)),
            tuple(map(labels[b].index, shared + free_b)),
            math.prod(size[l] for l in shared),
            tuple(size[l] for l in free_a + free_b),
        ))
        live = [s for s in live if s not in (a, b)] + [len(labels)]
        labels.append(free_a + free_b)
    return tuple(traces), tuple(steps)


def diagram_contract(rho: DensityMatrix, *taus) -> float:
    """Contract n copies of rho along a wiring of one permutation per party.

    Row index p_k of copy k is tied to column index q_{tau_l(k)} on party l by
    the labels of the cached :func:`_wiring_plan`, which contracts the copies
    by traces and matmuls.  It shares no code with ``reconstruct.exact_x3``,
    so it is the independent oracle that route is checked against.  Each
    wiring is a sequence of images.  Its inverse gives the complex conjugate,
    so beyond two parties, where the two need not be conjugate, a complex
    value can occur; that raises ArithmeticError.
    """
    if not taus or len(taus) != rho.dims.n_parties:
        raise ValueError("diagram contraction takes one wiring per party, at least one")
    traces, steps = _wiring_plan(tuple(tuple(map(int, tau)) for tau in taus), rho.dims.dims)
    t = rho.entries.reshape(rho.dims.dims * 2)
    held = {}
    for k, pairs in enumerate(traces):
        held[k] = t
        for i, j in pairs:
            held[k] = held[k].trace(axis1=i, axis2=j)
    for s, (a, b, pa, pb, k, shape) in enumerate(steps, start=len(traces)):
        held[s] = (
            held.pop(a).transpose(pa).reshape(-1, k) @ held.pop(b).transpose(pb).reshape(k, -1)
        ).reshape(shape)
    (total,) = held.values()
    total = complex(total)
    if abs(total.imag) > 1e-12:
        raise ArithmeticError(f"contraction has nonzero imaginary part {total.imag:.3e}")
    return total.real
