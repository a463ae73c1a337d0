"""Hand-derived reconstruction forms, kept as independent test oracles.

The package reconstructs invariants with one mechanically derived inverse
(``twirlkit.reconstruct.invert``).  The forms below were derived by hand and
transcribed; they share no code with that inverse, so agreement between the
two is evidence for both.

``wg`` gives the closed-form Weingarten value of a conjugacy class of S_n
(n <= 3) as an exact rational, against which ``twirlkit.weingarten.w_matrix``
(the inverse of the Gram matrix) is checked.

``INVARIANT_ID`` is the hand table of which bipartite order-3 invariant each
(tau_A, tau_B) wiring contracts to, in the paper's order of S3, against which
the orbit numbering of ``twirlkit.reconstruct._invariants`` is checked;
``invariant_id`` looks a wiring up in it by its images.  ``invariants_loops`` and
``pooling_loops`` number the invariant and y-component orbits by loops over
tuples, against which the array numberings of ``_invariants`` and
``_pooling`` are checked at every order and party count.

``compose``, ``inverse``, ``cycle_type`` and ``gram_entry`` work on image
tuples by loops, independent of the integer group tables of
``twirlkit.weingarten``.

``haar_from_ginibre`` is the phase-fixed QR of a Ginibre batch, one LAPACK
factorisation per matrix, against which the batch Gram-Schmidt of
``twirlkit.haar.sample_haar_batch`` is checked.

``born_kron`` is the Born rule on the full Kronecker product of the local
unitaries, an independent check of the per-party route.

``mub_unitaries`` gives the d + 1 mutually unbiased bases of a qubit or of a
prime d, one unitary per basis with the basis vectors as its columns.  A
complete set of MUBs is a unitary 2-design (Klappenecker and Roetteler,
arXiv:quant-ph/0502031), so averaging over every tuple of one basis per
party gives the order-2 twirl exactly, with no Weingarten matrix.

``wiring_einsum`` contracts one wiring per party with a freshly planned
einsum, complex values included, and ``invariant_values`` gives every
N-party invariant from it, so the N-party estimates are checked against
values that no package contraction produced.

``diagram_contract_loops`` evaluates the einsum diagram contraction of
``twirlkit.weingarten`` term by term, and ``purity_loops`` evaluates
Tr rho_P^2, which ``twirlkit.checks.x2_oracle`` reads off an operator-basis
expansion, as a direct sum; both loop over every index tuple.

``pattern_rows`` is the forward row of every tuple of exact per-party
patterns, the full Kronecker product of the per-party rows, against which the
one-row-per-component ``twirlkit.reconstruct.forward_matrix`` is checked.

``partial_trace``, ``partial_transpose`` and ``trace_power`` are the
textbook reduced state, partial transpose and Tr(m^k), by ``np.trace``,
``np.swapaxes`` and repeated matmuls; ``subset_mask`` is the order-2 subset
bitmask (subsystem 0 the most significant bit).  The package reads marginal
purities off one depth-first walk and order-3 invariants off tensor views
instead, so these check it from outside.

``purity_criterion`` and ``third_order_criterion`` are the criteria as
first transcribed, by bitmask walk and by reading the slots x8, x9 and x10,
against which the wiring rows of ``twirlkit.criteria.criterion`` are
checked bit for bit.

``matrix_from_pairs`` is the complex matrix of a state file's ``matrix``
by numpy's own nesting inference and two slices, against which the one walk
of ``twirlkit.stateio`` is checked bit for bit.

``per_unitary_samples`` rebuilds the estimator's per-unitary class averages
one unitary at a time, so two-pass statistics on them
(``std_error_of_mean``) check the streamed moment merge and give the
standard error of any linear functional of the invariants.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from twirlkit.criteria import TIE_TOL, CriterionReport
from twirlkit.haar import RngStream, sample_haar_batch
from twirlkit.reconstruct import _invariants, exact_x2, exact_x3, forward_matrix
from twirlkit.states import DensityMatrix, DimensionMismatchError, DimsProfile, make_state
from twirlkit.twirl import (
    DRAW_BLOCK,
    EstimatorConfig,
    _batched_probabilities,
    _class_sums,
    _eigen_factor,
)
from twirlkit.weingarten import (
    SingularDimensionError,
    _partitions,
    permutations_of_order,
    s_matrix,
    w_matrix,
)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the subsystems in ``keep`` (order preserved as in rho).

    An empty ``keep`` returns the scalar 1 as a 1x1 matrix on a trivial
    profile.
    """
    dims = rho.dims.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    for k in keep:
        if not 0 <= k < n:
            raise DimensionMismatchError(f"subsystem index {k} out of range 0..{n - 1}")
    if not keep:
        return make_state(np.array([[1.0 + 0j]]), DimsProfile(()))
    t = rho.entries.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        remaining.pop(idx)
    total = int(np.prod(remaining))
    return DensityMatrix(dims=DimsProfile(remaining), entries=t.reshape(total, total))


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem only, as a raw matrix: the
    result may have negative eigenvalues, so it is never validated as a state."""
    dims = rho.dims.dims
    n = len(dims)
    if not 0 <= subsystem < n:
        raise DimensionMismatchError(f"subsystem index {subsystem} out of range 0..{n - 1}")
    t = np.swapaxes(rho.entries.reshape(dims + dims), subsystem, subsystem + n)
    return t.reshape(rho.total, rho.total)


def trace_power(m, k: int) -> float:
    """Re Tr(m^k) by k - 1 matmuls."""
    if k < 1:
        raise ValueError("power k must be >= 1")
    a = np.asarray(m, dtype=complex)
    acc = a
    for _ in range(k - 1):
        acc = acc @ a
    return float(acc.trace().real)


def subset_mask(subsystems, n_parties: int) -> int:
    """The order-2 bitmask of a subset of subsystems, subsystem 0 the most
    significant bit."""
    mask = 0
    for s in subsystems:
        if not 0 <= s < n_parties:
            raise ValueError(f"subsystem {s} out of range")
        mask |= 1 << (n_parties - 1 - s)
    return mask


def compose(p, q) -> tuple[int, ...]:
    """The images of p after q: (p q)(k) = p(q(k))."""
    return tuple(p[q[k]] for k in range(len(q)))


def inverse(p) -> tuple[int, ...]:
    return tuple(list(p).index(k) for k in range(len(p)))


def cycle_type(p) -> tuple[int, ...]:
    """Partition of n, sorted in decreasing order, of the permutation with
    images p."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            length += 1
            k = p[k]
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def gram_entry(sigma, tau, d: int) -> float:
    """Gram matrix entry d^(#cycles of sigma tau^-1), from the images."""
    return float(d ** len(cycle_type(compose(sigma, inverse(tau)))))


def _normalize_cycle_type(ct, n: int | None) -> tuple[int, ...]:
    # every part of a cycle type is positive, and the images of a
    # permutation contain 0
    if 0 in ct:
        ct = cycle_type(ct)
    else:
        ct = tuple(sorted((int(c) for c in ct), reverse=True))
    if n is not None and sum(ct) != n:
        raise ValueError(f"cycle type {ct} is not a partition of n={n}")
    return ct


def wg(ct, d: int, n: int | None = None) -> float:
    """Weingarten value for a conjugacy class of S_n at dimension d (n <= 3),
    given as a cycle type or as the images of one member.

    Computed from the closed forms; exact rationals evaluated in floats.
    """
    ct = _normalize_cycle_type(ct, n)
    n = sum(ct)
    d = int(d)
    if n == 1:
        return 1.0 / d
    if n == 2:
        denom = d * (d * d - 1)
        return float(Fraction(d if ct == (1, 1) else -1, denom))
    if n == 3:
        if d < 3:
            raise SingularDimensionError(
                "order-3 Weingarten values are singular at d=2 (denominator d^2-4)"
            )
        denom = d * (d * d - 1) * (d * d - 4)
        num = {(1, 1, 1): d * d - 2, (2, 1): -d, (3,): 2}[ct]
        return float(Fraction(num, denom))
    raise ValueError(f"unsupported order n={n} (only n <= 3)")


# Which invariant each (tau_A, tau_B) pair of S3 x S3 contracts to, indexed in
# the paper's order PAPER_S3 = {e,(12),(23),(13),(312),(231)} on both axes,
# the 3-cycles in one-line notation on {1,2,3}.  Ids 0..8 are the
# mixed-marginal traces; 9 is Tr rho^3 (matching cycles) and 10 is
# Tr (rho^Gamma)^3 (opposite cycles), which the diagram contraction resolves.
PAPER_S3 = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0))
INVARIANT_ID = (
    (0, 1, 1, 1, 2, 2),
    (3, 5, 4, 4, 6, 6),
    (3, 4, 5, 4, 6, 6),
    (3, 4, 4, 5, 6, 6),
    (7, 8, 8, 8, 9, 10),
    (7, 8, 8, 8, 10, 9),
)


def invariant_id(tau_a, tau_b) -> int:
    """The ``INVARIANT_ID`` entry of the (tau_A, tau_B) wiring, each given by
    its images."""
    a, b = (PAPER_S3.index(tuple(map(int, tau))) for tau in (tau_a, tau_b))
    return INVARIANT_ID[a][b]


def invariants_loops(order: int, n_parties: int) -> np.ndarray:
    """``reconstruct._invariants`` by pure-Python loops over tuples: the
    group tables from composing image tuples, one conjugate tuple per group
    element, orbits keyed by their least member and sorted as documented."""
    group = [tuple(p) for p in permutations_of_order(order).tolist()]
    index = {p: i for i, p in enumerate(group)}
    mul = [[index[compose(p, q)] for q in group] for p in group]
    inv = [index[inverse(p)] for p in group]
    conj = [[mul[mul[s][t]][inv[s]] for t in range(len(group))] for s in range(len(group))]
    cycles = [len(cycle_type(p)) for p in group]
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
    return np.array([rank[k] for k in keys])


def pooling_loops(order: int, n_parties: int) -> np.ndarray:
    """``reconstruct._pooling`` by pure-Python loops over tuples: each
    pattern tuple keyed by the least of its relabellings, each pattern
    written as first-occurrence positions, numbered by first appearance."""
    ids: dict[tuple, int] = {}
    comps = [
        ids.setdefault(min(
            tuple(tuple(map(p.index, p)) for p in ([s[r] for r in perm] for s in t))
            for perm in itertools.permutations(range(order))
        ), len(ids))
        for t in itertools.product(_partitions(order), repeat=n_parties)
    ]
    return np.eye(len(ids))[comps]


def exact_y(rho: DensityMatrix, order: int) -> np.ndarray:
    """The exact per-class averages: the forward matrix on the invariants."""
    x = exact_x2(rho).purities if order == 2 else np.array(exact_x3(rho).values)
    return forward_matrix(order, rho.dims.dims) @ x


def pattern_rows(order: int, dims) -> np.ndarray:
    """(P^N, n_invariants) forward rows of every tuple of exact per-party
    patterns, in ``itertools.product`` order with party 0 slowest: the
    Kronecker product over parties of ``s_matrix @ w_matrix``, its columns
    (tuples of permutations) summed per invariant by a one-hot matmul."""
    rows = np.ones((1, 1))
    for d in dims:
        rows = np.kron(rows, s_matrix(order) @ w_matrix(order, d))
    ids = _invariants(order, len(dims))
    return rows @ np.eye(ids.max() + 1)[ids]


def wiring_einsum(rho: DensityMatrix, taus) -> complex:
    """The contraction of n copies of rho along one wiring per party, as one
    complex einsum: copy k has row label l n + tau_l(k) and column label
    l n + k on party l."""
    n, parties = len(taus[0]), range(rho.dims.n_parties)
    t = rho.entries.reshape(rho.dims.dims * 2)
    operands = []
    for k in range(n):
        operands += [t, [l * n + taus[l][k] for l in parties] + [l * n + k for l in parties]]
    return complex(np.einsum(*operands, [], optimize=True))


def invariant_values(rho: DensityMatrix, order: int) -> np.ndarray:
    """Every invariant of ``_invariants(order, N)``, complex where it is, as
    the einsum of the first wiring of its orbit."""
    perms = permutations_of_order(order).tolist()
    n_parties = rho.dims.n_parties
    first = np.unique(_invariants(order, n_parties), return_index=True)[1]
    digits = np.unravel_index(first, (len(perms),) * n_parties)
    return np.array([wiring_einsum(rho, [perms[d] for d in w]) for w in zip(*digits)])


def diagram_contract_loops(rho: DensityMatrix, tau_a, tau_b) -> float:
    """Contract n copies of a bipartite rho along the (tau_A, tau_B) wiring,
    each given by its images.

    Row index p_k of copy k is tied to column index q_{tau(k)} on each side,
    by explicit loops over all column-index tuples.
    """
    if len(tau_a) != len(tau_b):
        raise ValueError("permutation order mismatch")
    if rho.dims.n_parties != 2:
        raise ValueError("diagram contraction is defined for bipartite states")
    n = len(tau_a)
    d_a, d_b = rho.dims.dims
    m = rho.entries
    total = 0.0 + 0.0j
    for qa in itertools.product(range(d_a), repeat=n):
        for qb in itertools.product(range(d_b), repeat=n):
            term = 1.0 + 0.0j
            for k in range(n):
                row = qa[tau_a[k]] * d_b + qb[tau_b[k]]
                col = qa[k] * d_b + qb[k]
                term *= m[row, col]
            total += term
    if abs(total.imag) > 1e-12:
        raise ArithmeticError(f"contraction has nonzero imaginary part {total.imag:.3e}")
    return float(total.real)


def purity_loops(rho: DensityMatrix, subset: tuple[int, ...]) -> float:
    """Tr rho_P^2 by explicit index loops, independent of partial_trace."""
    dims = rho.dims.dims
    n = len(dims)
    t = rho.entries.reshape(dims + dims)
    total = 0.0 + 0.0j
    for i1 in itertools.product(*(range(d) for d in dims)):
        for i2 in itertools.product(*(range(d) for d in dims)):
            # first factor: row i1, column agreeing with i2 on P, i1 elsewhere
            j1 = tuple(i2[l] if l in subset else i1[l] for l in range(n))
            j2 = tuple(i1[l] if l in subset else i2[l] for l in range(n))
            total += t[i1 + j1] * t[i2 + j2]
    return float(total.real)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    # QR alone is not Haar: the R-diagonal phases must be divided out.
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[..., None, :]


def born_kron(rho: DensityMatrix, locals_: list[np.ndarray]) -> np.ndarray:
    """(B, total) Born probabilities from the full (B, D, D) product unitaries."""
    u = locals_[0]
    for ul in locals_[1:]:
        # batched kron: (B, m, m) x (B, d, d) -> (B, m d, m d)
        b, m, _ = u.shape
        d = ul.shape[-1]
        u = np.einsum("bij,bkl->bikjl", u, ul).reshape(b, m * d, m * d)
    return np.einsum("bij,ik,bkj->bj", u.conj(), rho.entries, u).real


def mub_unitaries(d: int) -> np.ndarray:
    """(d + 1, d, d): the Z, X and Y bases for d = 2; for prime d >= 3 the
    computational basis and, for a = 0..d-1, the basis whose vector b has
    amplitudes omega^(a j^2 + b j) / sqrt(d), omega = exp(2 pi i / d)."""
    if d == 2:
        h = np.array([[1, 1], [1, -1]]) / 2**0.5
        return np.array([np.eye(2), h, np.diag([1, 1j]) @ h])
    if d < 2 or any(d % k == 0 for k in range(2, d)):
        raise ValueError("the quadratic-phase construction needs d = 2 or a prime d")
    j = np.arange(d)
    phases = [np.exp(2j * np.pi * (a * j[:, None] ** 2 + j[:, None] * j[None, :]) / d) / d**0.5
              for a in range(d)]
    return np.array([np.eye(d, dtype=complex), *phases])


def matrix_from_pairs(matrix) -> np.ndarray:
    """(D, D) complex matrix of nested ``[re, im]`` pairs, re + 1j * im."""
    arr = np.array(matrix)
    return arr[..., 0] + 1j * arr[..., 1]


def per_unitary_samples(rho: DensityMatrix, cfg: EstimatorConfig) -> np.ndarray:
    """(n_unitaries, n_components) order-``cfg.order`` class averages at exact
    probabilities, drawn from the same seeded substreams as the estimator's
    draw blocks."""
    order, dims, n = cfg.order, rho.dims.dims, rho.dims.n_parties
    counts = _class_sums(np.ones((1,) + dims), order)[0]
    factor = _eigen_factor(rho)
    rows = []
    for start in range(0, cfg.n_unitaries, DRAW_BLOCK):
        c, size = start // DRAW_BLOCK, min(DRAW_BLOCK, cfg.n_unitaries - start)
        locals_ = [
            sample_haar_batch(d, size, RngStream(cfg.master_seed, c * n + l))
            for l, d in enumerate(dims)
        ]
        for k in range(size):
            p = np.maximum(_batched_probabilities(factor, [u[k : k + 1] for u in locals_]), 0.0)
            rows.append(_class_sums(p.reshape((1,) + dims), order)[0] / counts)
    return np.array(rows)


def std_error_of_mean(samples: np.ndarray) -> np.ndarray:
    """Two-pass standard error of the mean of each column of ``samples``."""
    return np.std(samples, axis=0, ddof=1) / np.sqrt(len(samples))


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


def pair_class_counts(dims) -> np.ndarray:
    """Number of index pairs (I1, I2) in each inequality class Q."""
    n = len(dims)
    counts = np.ones(2**n)
    for q in range(2**n):
        c = 1
        for l, d in enumerate(dims):
            c *= d * (d - 1) if _in_mask(q, l, n) else d
        counts[q] = c
    return counts


def purity_marginal_hamming(dims, y, subsystems) -> float:
    """Equal-dimension Hamming-distance form of the marginal purity.

    Sums d^{#P} (-d)^{-D(I1, I2)} over all pairs of P-restricted indices,
    using the order-2 class averages ``y`` as the per-pair expectations.
    """
    n = len(dims)
    d = dims[0]
    if any(dl != d for dl in dims):
        raise ValueError("Hamming form requires equal local dimensions")
    p_list = sorted(set(subsystems))
    subset_mask(p_list, n)  # range check
    counts = pair_class_counts(dims)
    # per-pair expectation of the P-marginal product, by P-restricted class
    total = 0.0
    for i1 in itertools.product(range(d), repeat=len(p_list)):
        for i2 in itertools.product(range(d), repeat=len(p_list)):
            hamming = sum(a != b for a, b in zip(i1, i2))
            # marginal pair value: sum of full-pair class sums consistent
            # with this restriction, i.e. complement subsystems unconstrained
            marg = 0.0
            for q in range(2**n):
                consistent = all(
                    _in_mask(q, l, n) == (i1[j] != i2[j]) for j, l in enumerate(p_list)
                )
                if consistent:
                    marg += counts[q] * y[q]
            # marg now counts every complement completion; divide by the
            # number of completions of the restricted pair in its class
            restricted = 1.0
            for j, l in enumerate(p_list):
                restricted *= d * (d - 1) if i1[j] != i2[j] else d
            total += d ** len(p_list) * (-float(d)) ** (-hamming) * marg / restricted
    return total


_KEPT_ROWS = (0, 1, 2, 3, 5, 6, 7, 8, 9)  # drop y4: equal to y5 after merging x4


def _closed_form_factor(d: int) -> np.ndarray:
    return np.array(
        [
            [(d - 2) * (d - 1), 3 * (d - 1), 1],
            [-(d - 2) * (d - 1), (d - 2) * (d - 1), d],
            [(d - 2) * (d - 1), -1.5 * (d - 1) ** 2, 0.5 * (d * d + 1)],
        ]
    )


def _delta_correction(d_a: int, d_b: int) -> np.ndarray:
    """Coefficient vector of the x5 = x4 - Delta substitution on the kept rows.

    This is the image of the y5 forward column (rescaled by the per-side
    c_K = 1/((d^2-1)(d^2-4)) constants) before applying the tensor factors.
    """
    diag9 = np.kron(
        [1.0, d_a - 2.0, (d_a - 2.0) * (d_a - 1.0)],
        [1.0, d_b - 2.0, (d_b - 2.0) * (d_b - 1.0)],
    )
    v5 = np.array(
        [
            3.0 * d_a * d_b,
            d_a * (1.0 - d_b),
            -3.0 * d_a,
            d_b * (1.0 - d_a),
            float(d_a * d_b + d_a + d_b + 3),
            d_a - 1.0,
            -3.0 * d_b,
            d_b - 1.0,
            3.0,
        ]
    )
    c_a = 1.0 / ((d_a**2 - 1) * (d_a**2 - 4))
    c_b = 1.0 / ((d_b**2 - 1) * (d_b**2 - 4))
    return c_a * c_b * (diag9 * v5)


def invert_3_closed_form(dims, y) -> np.ndarray:
    """Closed-form inversion: Delta rescaling plus the tensor-product solve.

    y is in the hand layout, A-pattern major over {all-distinct, one pair,
    all-equal}: the derived layout of ``reconstruct._pooling`` reversed.
    Delta = (y4 - y5) d_A(d_A^2-1) d_B(d_B^2-1), then the nine remaining
    unknowns come from the explicit 3x3 tensor factors and the Delta
    correction vector.  Returns x0..x8 with x_S in both the x9 and x10 slots.
    """
    d_a, d_b = dims
    vals = np.asarray(y, dtype=float)
    delta = (vals[4] - vals[5]) * d_a * (d_a**2 - 1) * d_b * (d_b**2 - 1)
    mm = np.kron(_closed_form_factor(d_a), _closed_form_factor(d_b))
    x9 = d_a * d_b * (mm @ vals[list(_KEPT_ROWS)])
    x9 += delta * (mm @ _delta_correction(d_a, d_b))
    x0, x1, x2, x3, x4, x6, x7, x8, x_s = x9
    return np.array([x0, x1, x2, x3, x4, x4 - delta, x6, x7, x8, x_s, x_s])
