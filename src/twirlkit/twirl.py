"""Randomized-measurement simulation: sample local unitaries, measure in the
computational basis, and average outcome-probability products per equality
class.

``_class_sums`` is the one moment kernel for both orders and every shot mode:
one contraction per tuple of per-party set partitions pi of the rounds ("at
least this equal"), Moebius inversion on each party's partition lattice, and
pooling of the exact patterns into the y components.  For shot counts, the
U-statistic over ordered distinct shots sums the contractions on pi v rho
with weight mu(0, rho) over the partitions rho of coinciding shots.

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
from .reconstruct import YVector2, YVector3, _check_order3_dims, _pooling
from .states import DensityMatrix, DimsProfile
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born probabilities of computational-basis outcomes after local unitaries."""

    dims: DimsProfile
    probabilities: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class YEstimate:
    """A y-vector estimate and the covariance C of its mean (NaN for one
    unitary); x = A y has covariance A C A^T."""

    values: np.ndarray = field(repr=False)
    covariance: np.ndarray = field(repr=False)

    @property
    def std_error(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def outcome_distribution(rho: DensityMatrix, unitaries: list[np.ndarray]) -> OutcomeDistribution:
    """p(I) = <I| (U rho U^dag) |I> for one product unitary U = U_1 x ... x U_N."""
    if len(unitaries) != rho.dims.n_parties:
        raise ValueError("one unitary per subsystem is required")
    for l, ul in enumerate(unitaries):
        if ul.shape != (rho.dims[l], rho.dims[l]):
            raise ValueError(f"unitary {l} has shape {ul.shape}, expected {(rho.dims[l],) * 2}")
    p = _batched_probabilities(rho, [ul[None] for ul in unitaries])[0]
    if np.min(p) < -1e-14:
        raise EstimationError(f"negative probability {np.min(p):.3e}")
    return OutcomeDistribution(dims=rho.dims, probabilities=np.maximum(p, 0.0))


def _batched_probabilities(rho: DensityMatrix, locals_: list[np.ndarray]) -> np.ndarray:
    """(B, total) Born probabilities for a batch of product unitaries, unclipped."""
    u = locals_[0]
    for ul in locals_[1:]:
        # batched kron: (B, m, m) x (B, d, d) -> (B, m d, m d)
        b, m, _ = u.shape
        d = ul.shape[-1]
        u = np.einsum("bij,bkl->bikjl", u, ul).reshape(b, m * d, m * d)
    return np.einsum("bij,ik,bkj->bj", u.conj(), rho.entries, u).real


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


def _class_sums(q: np.ndarray, order: int, shots: int = 0) -> np.ndarray:
    """(B, n_components) sums of order-fold products of q over each class.

    ``q`` has shape (B, d_1, ..., d_N).  With ``shots = 0`` the products are
    of the entries of q (probabilities or frequencies).  With ``shots = M``,
    q holds the outcome counts of M shots and each product p_{I_1} ... p_{I_n}
    is replaced by its unbiased U-statistic over ordered distinct shots.
    """
    b, n_parties = q.shape[0], q.ndim - 1
    parts = _partitions(order)

    @lru_cache(maxsize=None)
    def marginal(keep: tuple[int, ...]) -> np.ndarray:
        # q summed over the parties not in keep, one party at a time
        if len(keep) == n_parties:
            return q
        drop = min(set(range(n_parties)) - set(keep))
        wider = tuple(sorted(keep + (drop,)))
        return marginal(wider).sum(axis=1 + wider.index(drop))

    @lru_cache(maxsize=None)
    def moment(rho: tuple[int, ...], pis: tuple[tuple[int, ...], ...]) -> np.ndarray:
        # one factor per block of rho; a party whose label no other factor
        # shares is summed out of its factor before the contraction, so at
        # orders 2 and 3 each einsum runs over at most one label per party
        reps = [rho.index(k) for k in range(max(rho) + 1)]
        operands = []
        for r in reps:
            keep = tuple(
                l for l, pi in enumerate(pis) if sum(pi[s] == pi[r] for s in reps) > 1
            )
            operands += [marginal(keep), [0] + [1 + l * order + pis[l][r] for l in keep]]
        return np.einsum(*operands, [0])

    mu = _mobius_matrix(order)
    # shot-coincidence partitions rho, weighted by mu(all-distinct, rho)
    coincidences = range(len(parts)) if shots else [len(parts) - 1]
    f = np.empty((b,) + (len(parts),) * n_parties)
    for idx in itertools.product(range(len(parts)), repeat=n_parties):
        f[(slice(None),) + idx] = sum(
            mu[-1, j] * moment(parts[j], tuple(_join(parts[i], parts[j]) for i in idx))
            for j in coincidences
        )
    for axis in range(1, n_parties + 1):
        f = np.moveaxis(np.tensordot(f, mu, axes=([axis], [1])), -1, axis)
    sums = f.reshape(b, -1) @ _pooling(order, n_parties)
    # counts give integer sums up to here, so the one division is the only rounding
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


def _run_chunks(rho: DensityMatrix, cfg: EstimatorConfig, order: int) -> YEstimate:
    dims = rho.dims.dims
    n_parties = rho.dims.n_parties
    n_chunks = -(-cfg.n_unitaries // cfg.batch_size)
    if cfg.shots and cfg.shots < order and not cfg.plug_in:
        raise EstimationError(
            f"unbiased order-{order} estimation needs at least {order} shots"
        )
    if cfg.plug_in and cfg.shots:
        warnings.warn(
            "plug-in estimator is biased at finite shots (O(1/shots))",
            stacklevel=3,
        )
    class_counts = _class_sums(np.ones((1,) + dims), order)[0]
    kernel_shots = 0 if cfg.plug_in else cfg.shots

    def one_chunk(c: int) -> tuple[int, np.ndarray, np.ndarray]:
        start = c * cfg.batch_size
        size = min(cfg.batch_size, cfg.n_unitaries - start)
        locals_ = []
        for l in range(n_parties):
            stream = RngStream(cfg.master_seed, c * n_parties + l)
            locals_.append(sample_haar_batch(rho.dims[l], size, stream))
        q = np.maximum(_batched_probabilities(rho, locals_), 0.0)
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


def estimate_y2(rho: DensityMatrix, cfg: EstimatorConfig) -> tuple[YVector2, YEstimate]:
    """Estimate the 2^N order-2 class averages for an N-partite state."""
    est = _run_chunks(rho, cfg, order=2)
    return YVector2(dims=rho.dims, values=est.values), est


def estimate_y3(rho: DensityMatrix, cfg: EstimatorConfig) -> tuple[YVector3, YEstimate]:
    """Estimate the ten order-3 class averages for a bipartite state."""
    _check_order3_dims(rho.dims.dims)
    d_a, d_b = rho.dims.dims
    est = _run_chunks(rho, cfg, order=3)
    return YVector3(d_a=d_a, d_b=d_b, values=est.values), est
