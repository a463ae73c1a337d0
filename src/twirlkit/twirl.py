"""Randomized-measurement simulation: sample local unitaries, measure in the
computational basis, and average outcome-probability products per equality
class.

Born probabilities never form the product unitary.  rho is factored once per
run as rho = c I + W^dag diag(s) W from its eigendecomposition: c is its most
degenerate eigenvalue, W = sqrt|lambda - c| V^dag runs over the eigenvalues
that differ from c, and s holds their signs.  U^dag I U = I, so c adds to
every probability, and each local unitary acts on its own tensor axis of W,
by one matmul that writes that party's axis first, so no step copies: the
last party's is one GEMM, since W is the same for the whole batch, and each
other party's one batched matmul.  B unitaries cost O(B r D sum_l d_l) time
and two complex arrays of B r D entries, which the steps alternate between,
with r = 1 for a Werner state and r = 0 for I/D.

``_class_sums`` is the one moment kernel for every order and both shot modes:
one contraction per tuple of per-party set partitions pi of the rounds ("at
least this equal"), Moebius inversion on each party's partition lattice, and
pooling of the exact patterns into the y components.  For shot counts, the
U-statistic over ordered distinct shots sums the contractions on pi v rho
with weight mu(0, rho) over the partitions rho of coinciding shots.  Which
contractions to run, the one matrix taking them to the components and the
class sizes are planned once per (order, dims, shots > 0) by ``_kernel_plan``.
The order and the shots are one ``EstimatorConfig``, so the rule that ties
them (the U-statistics need shots >= order) is checked once, when it is built.

Reproducibility: unitaries are drawn in blocks of ``DRAW_BLOCK``; block b for
party l uses the substream ``b * n_parties + l`` of the master seed, and its
shot noise ``(n_blocks + b) * n_parties``.  Each block inverts its per-unitary
class averages to invariants x, and its ``(n, mean, M2)`` triple of x, with
M2 the per-invariant sum of squared deviations, is merged in block order
(Chan, Golub and LeVeque), so x and its standard errors are bit-identical for
a given (state, config) at any worker count.  Only Born runs in row slices of
a block, sized by ``BORN_SLICE_BYTES``; it computes each row on its own, so
the slicing bounds memory without changing a bit.

Memory: each thread that runs blocks keeps one block's working set
(``_block_arrays``) for its later blocks and runs, so Haar and Born
allocate no array of a block's size; fresh ones took new pages, and page
faults, every block.  A run at another shape replaces the set, a pool
thread's goes when the pool shuts down, and nothing a block returns is a
view of it.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .haar import DEFAULT_SEED, RngStream, sample_haar_batch
from .reconstruct import _inverse, _pooling
from .states import DensityMatrix
from .weingarten import _partitions


# unitaries per draw block: the unit that keys the seeded substreams and the
# moment merge
DRAW_BLOCK = 512
# bytes allowed for the two complex arrays of rows r D entries of one Born slice
BORN_SLICE_BYTES = 8 * 2**20
# the most worker threads a run may ask for: min(workers, blocks) threads
# start, each holding one block's arrays
MAX_WORKERS = 64
# blocks submitted per worker ahead of the in-order merge, so a run of any
# length queues a bounded number of blocks
BLOCKS_AHEAD_PER_WORKER = 2


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of a simulated protocol run: the order n of the invariants
    it estimates and how they are sampled.

    shots = 0 means ideal statistics: exact Born probabilities per unitary,
    no multinomial sampling.  With finite shots the estimators are the
    unbiased U-statistics over ordered distinct shots, which need
    shots >= order.  Shots are at most 2**63 - 1, the largest count numpy's
    multinomial sampler takes.  Every setting is a Python or numpy integer.
    ``batch_size`` is not settable: it reads the draw block, ``DRAW_BLOCK``.
    """

    n_unitaries: int
    order: int
    shots: int = 0
    master_seed: int = DEFAULT_SEED
    workers: int = 1
    batch_size: ClassVar[int] = DRAW_BLOCK

    def __post_init__(self):
        for f in fields(self):
            try:
                operator.index(getattr(self, f.name))
            except TypeError:
                raise ValueError(f"{f.name} must be an integer") from None
        if self.n_unitaries < 1:
            raise ValueError("n_unitaries must be >= 1")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.shots > 2**63 - 1:
            raise ValueError("shots must be at most 2**63 - 1")
        if 0 < self.shots < self.order:
            raise ValueError(f"unbiased order-{self.order} estimation needs shots >= {self.order}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")


@dataclass(frozen=True)
class Estimate:
    """Invariants in the layout of ``reconstruct.invert`` and the standard
    error of each mean (NaN for one unitary)."""

    values: np.ndarray = field(repr=False)
    std_error: np.ndarray = field(repr=False)


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
    factor: tuple[float, np.ndarray, np.ndarray], locals_: list[np.ndarray], out=None, work=None
) -> np.ndarray:
    """(B, total) Born probabilities for a batch of product unitaries, unclipped.

    U^dag I U = I, so p_j = c + sum_r s_r |(W (U_1 x ... x U_N))_{rj}|^2
    with (c, W, s) from :func:`_eigen_factor`.  Parties are contracted last
    to first, each by one matmul that sums over the trailing axis and writes
    the party's output axis first, after the batch axis; no step copies.  W
    is the same for the whole batch, so the last party's step is one GEMM.
    After N steps the axes are in party order with r last, and one matvec
    sums |.|^2 over r.

    The probabilities go to ``out`` if given, a C-contiguous (B, total)
    array, else to a fresh array.  The steps alternate between two complex
    arrays of B r D entries, the two flat arrays ``work`` if given.
    """
    c, w, sign = factor
    b, r = locals_[0].shape[0], len(sign)
    dims = [u.shape[-1] for u in locals_]
    p = np.empty((b, math.prod(dims))) if out is None else out
    if not p.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if not r:
        p.fill(c)
        return p
    n = b * r * p.shape[1]
    x, y = (np.empty(n, dtype=complex) for _ in range(2)) if work is None else work
    d = dims[-1]
    # (B d_N, d_N) times (d_N, r D / d_N) into (B, d_N, r, d_1, ..., d_{N-1});
    # both are transposed views, the batch's when stored as (d_N, B, d_N)
    z = np.matmul(locals_[-1].transpose(0, 2, 1).reshape(-1, d), w.reshape(-1, d).T,
                  out=x[:n].reshape(b * d, -1))
    for l in reversed(range(len(dims) - 1)):
        x, y = y, x
        # U_l^T (B, d_l, d_l) times z^T (B, d_l, rest) into (B, d_l, rest)
        z = np.matmul(locals_[l].transpose(0, 2, 1),
                      z.reshape(b, -1, dims[l]).transpose(0, 2, 1),
                      out=x[:n].reshape(b, dims[l], -1))
    # z is (B, D, r): |.|^2 in place on its (re, im) pairs, then the signs
    z = z.view(float).reshape(b, p.shape[1], 2 * r)
    np.square(z, out=z)
    np.matmul(z, np.repeat(sign, 2), out=p)
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
    """Read-only mu(sigma, pi) on the partition lattice of n rounds: the
    inverse of the integer unitriangular zeta matrix [sigma <= pi]."""
    parts = _partitions(n)
    zeta = np.array([[_join(s, p) == p for p in parts] for s in parts], dtype=float)
    mu = np.round(np.linalg.inv(zeta))
    mu.setflags(write=False)
    return mu


@lru_cache(maxsize=None)
def _kernel_plan(order: int, dims: tuple[int, ...], shots: bool):
    """What ``_class_sums`` computes from the shape of q alone.

    Returns ``(schedule, moments, fold, counts)``:
    - ``schedule``: ``(keep, step, run, drop)`` depth first over the marginal
      tree.  The marginal of q on the parties ``keep`` is q itself for every
      party, else the one on ``wider`` summed over ``axis`` with
      ``step = (wider, axis)``; ``run`` lists the moments whose last operand
      it is, and ``drop`` the marginals used for the last time;
    - ``moments``: one einsum per distinct contraction, as the
      ``(keep, labels)`` pairs of its operands; (rho, pi-tuple) moments
      equal up to operand order and per-party label renaming share one;
    - ``fold``: the read-only (n_moments, n_components) integer matrix
      taking the moments to class sums.  It holds the coincidence weights
      mu(all-distinct, rho), the Moebius inversion on each party axis, the
      exact zeros of patterns with no index tuples, and the pooling of exact
      patterns into components;
    - ``counts``: the read-only number of index tuples in each component.
    """
    n_parties = len(dims)
    full = tuple(range(n_parties))
    parts = _partitions(order)
    steps: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    columns: dict[tuple, int] = {}
    moments: list[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = []

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
            operands.append((keep, (0, *(1 + l * order + pis[l][r] for l in keep))))
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
    # index tuples of each exact pattern, the product of (d_l)_k over parties
    # for its k blocks: none where a party has fewer outcomes than blocks, so
    # that sum is exactly 0, not the rounding the inversion leaves
    tuples = np.ones(())
    for d in dims:
        tuples = np.multiply.outer(tuples, [math.perm(d, max(s) + 1) for s in parts])
    weights[:, tuples == 0] = 0.0
    fold = weights.reshape(len(moments), -1) @ _pooling(order, n_parties)
    counts = tuples.reshape(-1) @ _pooling(order, n_parties)
    fold.setflags(write=False)
    counts.setflags(write=False)
    # a marginal's parent has its least missing party back, so preorder sorts
    # by the missing parties in descending order
    tree = sorted([full, *steps], key=lambda k: sorted(set(full) - set(k), reverse=True))
    at = {keep: i for i, keep in enumerate(tree)}
    last = dict(at)
    for keep, (wider, _) in steps.items():
        last[wider] = max(last[wider], at[keep])
    runs: list[list] = [[] for _ in tree]
    drops: list[list] = [[] for _ in tree]
    for k, operands in enumerate(moments):
        i = max(at[keep] for keep, _ in operands)
        runs[i].append(k)
        for keep, _ in operands:
            last[keep] = max(last[keep], i)
    for keep, i in last.items():
        drops[i].append(keep)
    schedule = tuple(
        (keep, steps.get(keep), tuple(runs[i]), tuple(drops[i])) for i, keep in enumerate(tree)
    )
    return schedule, tuple(moments), fold, counts


def _class_sums(q: np.ndarray, order: int, shots: int = 0) -> np.ndarray:
    """(B, n_components) sums of order-fold products of q over each class.

    ``q`` has shape (B, d_1, ..., d_N) and is read as float64.  With
    ``shots = 0`` the products are of the entries of q.  With ``shots = M``,
    q holds the outcome counts of M shots and each product p_{I_1} ... p_{I_n}
    is replaced by its unbiased U-statistic over ordered distinct shots.
    """
    # the estimator passes its counts as floats; integer counts are read as
    # float64, exact below 2**53, since einsum runs faster on them
    q = np.asarray(q, dtype=float)
    schedule, moments, fold, _ = _kernel_plan(order, q.shape[1:], shots > 0)
    # each moment runs once its last marginal exists, and each marginal is
    # held only until its last use
    marginals = {}
    m = np.empty((len(moments), q.shape[0]))
    for keep, step, run, drop in schedule:
        marginals[keep] = marginals[step[0]].sum(axis=step[1]) if step else q
        for k in run:
            np.einsum(*itertools.chain(*((marginals[x], labels) for x, labels in moments[k])),
                      [0], out=m[k])
        for x in drop:
            del marginals[x]
    # counts give integer moments and an integer fold, so the one division
    # is the only rounding
    sums = m.T @ fold
    return sums / math.perm(shots, order) if shots else sums


# ---------------------------------------------------------------------------
# the estimation loop
# ---------------------------------------------------------------------------

# each thread's block arrays, kept for its later blocks and runs
_thread_arrays = threading.local()


def _block_arrays(dims: tuple[int, ...], size: int, rows: int, rank: int):
    """The calling thread's arrays for blocks of up to ``size`` unitaries.

    Returns ``(work, unitaries, probabilities)``: two flat complex arrays that
    Haar's draws and Gram-Schmidt and then Born's slices of ``rows`` rows use
    in turn, one (d_l, size, d_l) unitary batch per party, laid out so that
    Born's GEMM reads the last party's without a copy, and the (size, D)
    probabilities.  A run at another shape replaces them, so a thread holds
    one block's working set at most.
    """
    total = math.prod(dims)
    n = max(max(dims) ** 2 * size, min(rows, size) * rank * total)
    key = (dims, size, n)
    if getattr(_thread_arrays, "key", None) != key:
        # the old set is released before the new one is allocated
        vars(_thread_arrays).clear()
        _thread_arrays.arrays = (
            (np.empty(n, dtype=complex), np.empty(n, dtype=complex)),
            [np.empty((d, size, d), dtype=complex) for d in dims],
            np.empty((size, total)),
        )
        _thread_arrays.key = key
    return _thread_arrays.arrays


def _merge_moments(parts):
    """Merge an in-order iterable of (n, mean, M2) triples, M2 the per-column
    sum of squared deviations (Chan, Golub and LeVeque)."""
    parts = iter(parts)
    n, mean, m2 = next(parts)
    for n_b, mean_b, m2_b in parts:
        delta = mean_b - mean
        mean = mean + delta * (n_b / (n + n_b))
        m2 = m2 + m2_b + delta * delta * (n * n_b / (n + n_b))
        n += n_b
    return n, mean, m2


def _map_ahead(pool, fn, n_items: int, ahead: int):
    """``map(fn, range(n_items))`` on ``pool``, in order, with at most ``ahead``
    items submitted and not yet returned (``Executor.map`` submits every item
    before it returns)."""
    pending = deque()
    for i in range(n_items):
        pending.append(pool.submit(fn, i))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def estimate_y(rho: DensityMatrix, cfg: EstimatorConfig) -> Estimate:
    """Estimate the order-``cfg.order`` invariants of a run, at any number of
    parties, in the layout of ``invert``.  The inverse of (order, dims) is
    built and checked before any unitary is drawn, so dimensions it cannot
    invert raise first, and each block applies it to its y as ``invert`` does.
    """
    order, dims = cfg.order, rho.dims.dims
    inverse = _inverse(order, dims)
    n_parties = rho.dims.n_parties
    n_blocks = -(-cfg.n_unitaries // DRAW_BLOCK)
    class_counts = _kernel_plan(order, dims, cfg.shots > 0)[3]
    factor = _eigen_factor(rho)
    # Born rows per slice: a row has r D complex entries in each of the two arrays
    rows = max(1, BORN_SLICE_BYTES // max(1, 2 * 16 * len(factor[2]) * rho.total))
    cap = min(DRAW_BLOCK, cfg.n_unitaries)

    def one_block(b: int) -> tuple[int, np.ndarray, np.ndarray]:
        size = min(DRAW_BLOCK, cfg.n_unitaries - b * DRAW_BLOCK)
        # generators first: a process's first one imports numpy.random, and
        # its transients then come and go before the block arrays exist
        rngs = [RngStream(cfg.master_seed, b * n_parties + l).generator() for l in range(n_parties)]
        work, unitaries, probabilities = _block_arrays(dims, cap, rows, len(factor[2]))
        locals_ = [
            sample_haar_batch(d, size, rng, out=u[:, :size].transpose(1, 0, 2), work=work)
            for d, rng, u in zip(dims, rngs, unitaries)
        ]
        q = probabilities[:size]
        for s in range(0, size, rows):
            _batched_probabilities(factor, [u[s : s + rows] for u in locals_],
                                   out=q[s : s + rows], work=work)
        np.maximum(q, 0.0, out=q)
        if cfg.shots:
            # shot noise has its own substream, past every unitary substream
            # of every block
            shot_rng = RngStream(
                cfg.master_seed, (n_blocks + b) * n_parties
            ).generator()
            # the counts as floats, which the kernel reads, replace the
            # probabilities they were drawn from
            q[...] = shot_rng.multinomial(cfg.shots, q)
        y = _class_sums(q.reshape((size,) + dims), order, cfg.shots) / class_counts
        samples = y @ inverse
        mean = samples.mean(axis=0)
        dev = samples - mean
        return size, mean, np.square(dev).sum(axis=0)

    # merged as the blocks arrive; one worker runs in this thread, because a
    # pool thread raised the peak RSS of 400 order-3 shot runs at (5,5) by 2 MiB
    if cfg.workers == 1:
        n, mean, m2 = _merge_moments(map(one_block, range(n_blocks)))
    else:
        # imported here, so a one-worker process never loads it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            n, mean, m2 = _merge_moments(_map_ahead(
                pool, one_block, n_blocks, BLOCKS_AHEAD_PER_WORKER * cfg.workers
            ))
    return Estimate(
        values=mean,
        std_error=np.sqrt(m2 / ((n - 1) * n)) if n > 1 else np.full(m2.shape, np.nan),
    )
