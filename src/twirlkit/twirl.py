"""Randomized-measurement simulation: sample local unitaries, measure in the
computational basis, and average outcome-probability products per equality
class.

Born probabilities never form the product unitary.  rho is factored once per
run as rho = c I + W^dag diag(s) W from its eigendecomposition: c is its most
degenerate eigenvalue, W = sqrt|lambda - c| V^dag runs over the eigenvalues
that differ from c, and s holds their signs.  U^dag I U = I, so c adds to
every probability, and each local unitary acts on its own tensor axis of W by
one batched matmul.  A chunk costs O(B r D sum_l d_l) time and two (B, r, D)
complex arrays, with r = 1 for a Werner state and r = 0 for I/D.

``_class_sums`` is the one moment kernel for both orders and every shot mode:
one contraction per tuple of per-party set partitions pi of the rounds ("at
least this equal"), Moebius inversion on each party's partition lattice, and
pooling of the exact patterns into the y components.  For shot counts, the
U-statistic over ordered distinct shots sums the contractions on pi v rho
with weight mu(0, rho) over the partitions rho of coinciding shots.  Which
contractions to run, and the one matrix taking them to the components, are
planned once per (order, dims, shots > 0) by ``_kernel_plan``.

Reproducibility: unitaries are drawn in fixed chunks; chunk c for party l uses
the substream ``c * n_parties + l`` of the master seed, and per-chunk
``(n, mean, M2)`` triples, M2 a component matrix, are merged in chunk order
(Chan, Golub and LeVeque).  Values and covariance are therefore bit-identical
for a given (state, config) regardless of the worker count.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .haar import DEFAULT_SEED, RngStream, sample_haar_batch
from .reconstruct import _pooling, forward_matrix
from .states import DensityMatrix
from .weingarten import _partitions


class EstimationError(ArithmeticError):
    """Raised when an estimator cannot produce finite statistics."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of a simulated protocol run.

    shots = 0 means ideal statistics: exact Born probabilities per unitary,
    no multinomial sampling.  With finite shots the default estimators are
    the unbiased U-statistics over ordered distinct shots; ``plug_in`` swaps
    in the biased empirical-frequency products (O(1/shots) bias).
    """

    n_unitaries: int
    shots: int = 0
    master_seed: int = DEFAULT_SEED
    batch_size: int = 512
    plug_in: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.n_unitaries < 1:
            raise ValueError("n_unitaries must be >= 1")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class YEstimate:
    """A y-vector estimate and the covariance C of its mean (NaN for one
    unitary); x = A y has covariance A C A^T."""

    values: np.ndarray = field(repr=False)
    covariance: np.ndarray = field(repr=False)

    @property
    def std_error(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _eigen_factor(rho: DensityMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """(c, W, s) with rho = c I + W^dag diag(s) W.

    c is the eigenvalue with the most others within D eps max|lambda| of it,
    the smallest on a tie.  W = sqrt|lambda - c| V^dag, of shape (r, D), and
    s = sign(lambda - c) run over the eigenvalues farther than that from c.
    A Werner state has r = 1 and a state proportional to I has r = 0.
    """
    lam, v = np.linalg.eigh(rho.entries)
    tol = rho.total * np.finfo(float).eps * np.max(np.abs(lam))
    # eigh sorts lam ascending, so the eigenvalues near each one are a slice
    near = np.searchsorted(lam, lam + tol, side="right") - np.searchsorted(lam, lam - tol)
    c = lam[np.argmax(near)]
    shift = lam - c
    keep = np.abs(shift) > tol
    return c, np.sqrt(np.abs(shift[keep]))[:, None] * v[:, keep].conj().T, np.sign(shift[keep])


def _batched_probabilities(
    factor: tuple[float, np.ndarray, np.ndarray], locals_: list[np.ndarray]
) -> np.ndarray:
    """(B, total) Born probabilities for a batch of product unitaries, unclipped.

    U^dag I U = I, so p_j = c + sum_r s_r |(W (U_1 x ... x U_N))_{rj}|^2
    with (c, W, s) from :func:`_eigen_factor`.  Each U_l is applied on its
    own axis: parties are contracted last to first and each contracted axis
    is rotated to the front.  |.|^2 is summed over r before the last
    rotation, which restores the party order on the (B, D) result alone.
    """
    c, w, sign = factor
    b = locals_[0].shape[0]
    dims = [u.shape[-1] for u in locals_]
    if not len(sign):
        return np.full((b, math.prod(dims)), c)
    x = w.reshape(1, -1, dims[-1])
    for l in reversed(range(len(dims))):
        x = np.matmul(x, locals_[l])
        if l:
            # one contiguous copy: (B, rest, d_l) -> (B, d_l, rest)
            x = x.transpose(0, 2, 1).reshape(b, -1, dims[l - 1])
    # |.|^2 in place on the (re, im) pairs of the last matmul's own output
    x = x.view(float).reshape(b, -1, len(sign), 2 * dims[0])
    np.square(x, out=x)
    q = sign @ x
    p = (q[..., 0::2] + q[..., 1::2]).transpose(0, 2, 1).reshape(b, -1)
    p += c
    return p


# ---------------------------------------------------------------------------
# the partition-moment kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The finest partition coarser than both a and b."""
    label = list(range(len(a)))
    for r, s in itertools.combinations(range(len(a)), 2):
        if a[r] == a[s] or b[r] == b[s]:
            label = [label[r] if x == label[s] else x for x in label]
    first: dict[int, int] = {}
    return tuple(first.setdefault(x, len(first)) for x in label)


@lru_cache(maxsize=None)
def _mobius_matrix(n: int) -> np.ndarray:
    """mu(sigma, pi) on the partition lattice of n rounds: the inverse of the
    integer unitriangular zeta matrix [sigma <= pi]."""
    parts = _partitions(n)
    zeta = np.array([[_join(s, p) == p for p in parts] for s in parts], dtype=float)
    return np.round(np.linalg.inv(zeta))


@lru_cache(maxsize=None)
def _kernel_plan(order: int, dims: tuple[int, ...], shots: bool):
    """What ``_class_sums`` computes from the shape of q alone.

    Returns ``(steps, moments, fold)``:
    - ``steps``: ``(keep, (wider, axis))`` in dependency order; the marginal
      of q on the parties ``keep`` is the one on ``wider`` summed over
      ``axis``, and the marginal on every party is q itself;
    - ``moments``: one einsum per distinct contraction, as the
      ``(keep, labels)`` pairs of its operands; (rho, pi-tuple) moments
      equal up to operand order and per-party label renaming share one;
    - ``fold``: the (n_moments, n_components) integer matrix taking the
      moments to class sums.  It holds the coincidence weights
      mu(all-distinct, rho), the Moebius inversion on each party axis, the
      exact zeros of patterns with more blocks than their party has outcomes,
      and the pooling of exact patterns into components.
    """
    n_parties = len(dims)
    full = tuple(range(n_parties))
    parts = _partitions(order)
    steps: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    columns: dict[tuple, int] = {}
    moments: list[tuple[tuple[tuple[int, ...], list[int]], ...]] = []

    def need(keep: tuple[int, ...]) -> None:
        # q summed over the parties not in keep, one party at a time
        if keep != full and keep not in steps:
            drop = min(set(full) - set(keep))
            wider = tuple(sorted(keep + (drop,)))
            need(wider)
            steps[keep] = (wider, 1 + wider.index(drop))

    def renamed(operands) -> tuple:
        # each party's labels renamed in order of first appearance
        names, used = {0: 0}, [0] * n_parties
        for _, labels in operands:
            for x in labels:
                if x not in names:
                    l = (x - 1) // order
                    names[x] = 1 + l * order + used[l]
                    used[l] += 1
        return tuple((keep, tuple(names[x] for x in labels)) for keep, labels in operands)

    def column(rho: tuple[int, ...], pis: tuple[tuple[int, ...], ...]) -> int:
        # one factor per block of rho; a party whose label no other factor
        # shares is summed out of its factor before the contraction, so at
        # orders 2 and 3 each einsum runs over at most one label per party
        reps = [rho.index(k) for k in range(max(rho) + 1)]
        operands = []
        for r in reps:
            keep = tuple(
                l for l, pi in enumerate(pis) if sum(pi[s] == pi[r] for s in reps) > 1
            )
            operands.append((keep, [0] + [1 + l * order + pis[l][r] for l in keep]))
        # einsums equal up to operand order and per-party label renaming
        # have one value, so the least renaming over operand orders keys it
        key = min(map(renamed, itertools.permutations(operands)))
        if key not in columns:
            for keep, _ in operands:
                need(keep)
            columns[key] = len(moments)
            moments.append(tuple(operands))
        return columns[key]

    mu = _mobius_matrix(order)
    # shot-coincidence partitions rho, weighted by mu(all-distinct, rho)
    coincidences = range(len(parts)) if shots else [len(parts) - 1]
    entries = [
        (column(parts[j], tuple(_join(parts[i], parts[j]) for i in idx)), idx, mu[-1, j])
        for idx in itertools.product(range(len(parts)), repeat=n_parties)
        for j in coincidences
    ]
    weights = np.zeros((len(moments),) + (len(parts),) * n_parties)
    for k, idx, w in entries:
        weights[(k,) + idx] += w
    for axis in range(1, n_parties + 1):
        weights = np.moveaxis(np.tensordot(weights, mu, axes=([axis], [1])), -1, axis)
    # a pattern with more blocks than its party has outcomes has no index
    # tuples, so its sum is exactly 0, not the rounding the inversion leaves
    for l, d in enumerate(dims):
        weights[(slice(None),) * (1 + l) + ([i for i, s in enumerate(parts) if max(s) >= d],)] = 0.0
    fold = weights.reshape(len(moments), -1) @ _pooling(order, n_parties)
    return tuple(steps.items()), tuple(moments), fold


def _class_sums(q: np.ndarray, order: int, shots: int = 0) -> np.ndarray:
    """(B, n_components) sums of order-fold products of q over each class.

    ``q`` has shape (B, d_1, ..., d_N).  With ``shots = 0`` the products are
    of the entries of q (probabilities or frequencies).  With ``shots = M``,
    q holds the outcome counts of M shots and each product p_{I_1} ... p_{I_n}
    is replaced by its unbiased U-statistic over ordered distinct shots.
    """
    steps, moments, fold = _kernel_plan(order, q.shape[1:], shots > 0)
    marginals = {tuple(range(q.ndim - 1)): q}
    for keep, (wider, axis) in steps:
        marginals[keep] = marginals[wider].sum(axis=axis)
    m = np.empty((len(moments), q.shape[0]))
    for k, operands in enumerate(moments):
        np.einsum(*itertools.chain(*((marginals[keep], labels) for keep, labels in operands)),
                  [0], out=m[k])
    # counts give integer moments and an integer fold, so the one division
    # is the only rounding
    sums = m.T @ fold
    return sums / math.perm(shots, order) if shots else sums


# ---------------------------------------------------------------------------
# the estimation loop
# ---------------------------------------------------------------------------

def _merge_moments(parts):
    """Merge an in-order iterable of (n, mean, M2) triples (Chan, Golub and LeVeque)."""
    parts = iter(parts)
    n, mean, m2 = next(parts)
    for n_b, mean_b, m2_b in parts:
        delta = mean_b - mean
        mean = mean + delta * (n_b / (n + n_b))
        m2 = m2 + m2_b + np.outer(delta, delta) * (n * n_b / (n + n_b))
        n += n_b
    return n, mean, m2


def estimate_y(rho: DensityMatrix, cfg: EstimatorConfig, order: int) -> YEstimate:
    """Estimate the per-class averages y of an order-2 or order-3 protocol run.

    Order 2 gives the 2^N components of an N-partite state; order 3 the ten
    of a bipartite one.  The forward matrix of (order, dims) is built before
    any unitary is drawn, so dimensions it cannot invert raise first.
    """
    dims = rho.dims.dims
    forward_matrix(order, dims)
    n_parties = rho.dims.n_parties
    n_chunks = -(-cfg.n_unitaries // cfg.batch_size)
    if cfg.shots and cfg.shots < order and not cfg.plug_in:
        raise EstimationError(
            f"unbiased order-{order} estimation needs at least {order} shots"
        )
    if cfg.plug_in and cfg.shots:
        warnings.warn(
            "plug-in estimator is biased at finite shots (O(1/shots))",
            stacklevel=2,
        )
    class_counts = _class_sums(np.ones((1,) + dims), order)[0]
    factor = _eigen_factor(rho)
    kernel_shots = 0 if cfg.plug_in else cfg.shots

    def one_chunk(c: int) -> tuple[int, np.ndarray, np.ndarray]:
        start = c * cfg.batch_size
        size = min(cfg.batch_size, cfg.n_unitaries - start)
        locals_ = []
        for l in range(n_parties):
            stream = RngStream(cfg.master_seed, c * n_parties + l)
            locals_.append(sample_haar_batch(rho.dims[l], size, stream))
        q = np.maximum(_batched_probabilities(factor, locals_), 0.0)
        if cfg.shots:
            # shot noise reuses the last party's chunk stream, offset so it
            # never collides with a unitary substream of any chunk
            shot_rng = RngStream(
                cfg.master_seed, (n_chunks + c) * n_parties
            ).generator()
            # plug-in: the exact-probability kernel on frequencies
            q = shot_rng.multinomial(cfg.shots, q) / (cfg.shots if cfg.plug_in else 1)
        samples = _class_sums(q.reshape((size,) + dims), order, kernel_shots) / class_counts
        mean = samples.mean(axis=0)
        dev = samples - mean
        return size, mean, dev.T @ dev

    # merged as the chunks arrive; one worker runs in this thread, because a
    # pool thread raised the peak RSS of order 3 at (5,5) by ~20%
    if cfg.workers == 1:
        n, mean, m2 = _merge_moments(map(one_chunk, range(n_chunks)))
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            n, mean, m2 = _merge_moments(pool.map(one_chunk, range(n_chunks)))
    if not np.all(np.isfinite(mean)):
        raise EstimationError("estimator produced non-finite values")
    return YEstimate(
        values=mean,
        covariance=m2 / ((n - 1) * n) if n > 1 else np.full(m2.shape, np.nan),
    )
