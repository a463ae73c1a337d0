"""Permutations of S_n, Gram and Weingarten matrices, and the one-einsum
diagram oracle.

The fixed permutation order for all S3-indexed matrices is
``{e, (12), (23), (13), (312), (231)}`` where the cycles are written in
one-line notation on {1,2,3} (0-based internally).  Every other S_n is in
lexicographic order of its images, identity first: ``{e, (12)}`` for S2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import DensityMatrix


class SingularDimensionError(ValueError):
    """Raised when the Gram matrix of S_n at dimension d is singular (n > d,
    so order 3 on a qubit)."""


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a bijection on 0..{len(images) - 1}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(k) = self(other(k))."""
        if self.n != other.n:
            raise ValueError("order mismatch")
        return Permutation(tuple(self.images[other.images[k]] for k in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images):
            inv[v] = k
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = []
            k = start
            while not seen[k]:
                seen[k] = True
                cyc.append(k)
                k = self.images[k]
            out.append(tuple(cyc))
        return out


S2 = (Permutation((0, 1)), Permutation((1, 0)))
# {e, (12), (23), (13), (312), (231)}; (312) maps 1->3, 2->1, 3->2.
S3 = (
    Permutation((0, 1, 2)),
    Permutation((1, 0, 2)),
    Permutation((0, 2, 1)),
    Permutation((2, 1, 0)),
    Permutation((2, 0, 1)),
    Permutation((1, 2, 0)),
)


def gram(sigma: Permutation, tau: Permutation, d: int) -> float:
    """Gram matrix entry d^(#cycles of sigma tau^-1)."""
    if sigma.n != tau.n:
        raise ValueError("order mismatch")
    return float(d ** len(sigma.compose(tau.inverse()).cycles()))


def permutations_of_order(n: int) -> tuple[Permutation, ...]:
    """S_n in the fixed order of the module docstring."""
    if n < 1:
        raise ValueError(f"unsupported order n={n}")
    if n == 3:
        return S3
    return tuple(map(Permutation, itertools.permutations(range(n))))


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
    """Read-only matrix of gram(sigma, tau, d) over the fixed permutation order."""
    perms = permutations_of_order(n)
    m = np.array([[gram(s, t, d) for t in perms] for s in perms])
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
    return np.array(
        [
            [float(all(s[k] == s[p(k)] for k in range(n))) for p in permutations_of_order(n)]
            for s in _partitions(n)
        ]
    )


def _wiring_operands(images_a: tuple[int, ...], images_b: tuple[int, ...], t) -> list:
    """The einsum operands of one wiring, labelled as in :func:`diagram_contract`."""
    n = len(images_a)
    operands = []
    for k in range(n):
        operands += [t, [images_a[k], n + images_b[k], k, n + k]]
    return operands


@lru_cache(maxsize=None)
def _wiring_path(
    images_a: tuple[int, ...], images_b: tuple[int, ...], dims: tuple[int, ...]
) -> tuple:
    """The einsum path ``optimize=True`` picks for one wiring, planned once
    per shape from a zero-stride stand-in for the state."""
    stand_in = np.broadcast_to(np.complex128(0), dims * 2)
    path = np.einsum_path(*_wiring_operands(images_a, images_b, stand_in), [], optimize=True)[0]
    return tuple(path)


def diagram_contract(
    rho: DensityMatrix, tau_a: Permutation, tau_b: Permutation
) -> float:
    """Contract n copies of a bipartite rho along the (tau_A, tau_B) wiring.

    Row index p_k of copy k is tied to column index q_{tau(k)} on each side:
    copy k is rho as a (d_A, d_B, d_A, d_B) tensor with row labels
    (tau_A(k), n + tau_B(k)) and column labels (k, n + k), and one einsum
    contracts all n copies.  It shares no code with the partial-trace route
    of ``reconstruct.exact_x3``, so it is the independent oracle that route
    is checked against.
    """
    if tau_a.n != tau_b.n:
        raise ValueError("permutation order mismatch")
    if rho.dims.n_parties != 2:
        raise ValueError("diagram contraction is defined for bipartite states")
    t = rho.entries.reshape(rho.dims.dims * 2)
    operands = _wiring_operands(tau_a.images, tau_b.images, t)
    path = _wiring_path(tau_a.images, tau_b.images, rho.dims.dims)
    total = complex(np.einsum(*operands, [], optimize=path))
    if abs(total.imag) > 1e-12:
        raise ArithmeticError(f"contraction has nonzero imaginary part {total.imag:.3e}")
    return total.real

