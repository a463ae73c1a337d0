"""Hand-derived reconstruction forms, kept as independent test oracles.

The package reconstructs invariants with one mechanically derived inverse
(``twirlkit.reconstruct.invert``).  The forms below were derived by hand and
transcribed; they share no code with that inverse, so agreement between the
two is evidence for both.

``wg`` gives the closed-form Weingarten value of a conjugacy class of S_n
(n <= 3) as an exact rational, against which ``twirlkit.weingarten.w_matrix``
(the inverse of the Gram matrix) is checked.

``haar_from_ginibre`` is the phase-fixed QR of a Ginibre batch, one LAPACK
factorisation per matrix, against which the batch Gram-Schmidt of
``twirlkit.haar.sample_haar_batch`` is checked.

``born_kron`` is the Born rule on the full Kronecker product of the local
unitaries, an independent check of the per-party route.

``diagram_contract_loops`` evaluates the einsum diagram contraction of
``twirlkit.weingarten`` term by term, and ``purity_loops`` evaluates
Tr rho_P^2, which ``twirlkit.checks.x2_oracle`` reads off an operator-basis
expansion, as a direct sum; both loop over every index tuple.

``per_unitary_samples`` rebuilds the estimator's per-unitary class averages
one unitary at a time, so two-pass statistics on them check the streamed
moment merge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from twirlkit.haar import RngStream, sample_haar_batch
from twirlkit.reconstruct import _in_mask, exact_x2, exact_x3, forward_matrix, subset_mask
from twirlkit.states import DensityMatrix
from twirlkit.twirl import EstimatorConfig, _batched_probabilities, _class_sums, _eigen_factor
from twirlkit.weingarten import Permutation, SingularDimensionError


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Partition of n, sorted in decreasing order."""
    return tuple(sorted((len(c) for c in p.cycles()), reverse=True))


def _normalize_cycle_type(ct, n: int | None) -> tuple[int, ...]:
    if isinstance(ct, Permutation):
        ct = cycle_type(ct)
    else:
        ct = tuple(sorted((int(c) for c in ct), reverse=True))
    if n is not None and sum(ct) != n:
        raise ValueError(f"cycle type {ct} is not a partition of n={n}")
    return ct


def wg(ct, d: int, n: int | None = None) -> float:
    """Weingarten value for a conjugacy class of S_n at dimension d (n <= 3).

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


def measurable_x(rho: DensityMatrix, order: int) -> np.ndarray:
    """The exact invariants in the layout ``invert`` returns: the 2^N
    purities, or x0..x8 with x_S in both the x9 and x10 slots."""
    if order == 2:
        return exact_x2(rho).purities
    x = exact_x3(rho)
    return np.array(x.values[:9] + (x.x_s, x.x_s))


def exact_y(rho: DensityMatrix, order: int) -> np.ndarray:
    """The exact per-class averages: the forward matrix on the invariants."""
    x = measurable_x(rho, order)
    return forward_matrix(order, rho.dims.dims) @ (x if order == 2 else x[:10])


def diagram_contract_loops(
    rho: DensityMatrix, tau_a: Permutation, tau_b: Permutation
) -> float:
    """Contract n copies of a bipartite rho along the (tau_A, tau_B) wiring.

    Row index p_k of copy k is tied to column index q_{tau(k)} on each side,
    by explicit loops over all column-index tuples.
    """
    if tau_a.n != tau_b.n:
        raise ValueError("permutation order mismatch")
    if rho.dims.n_parties != 2:
        raise ValueError("diagram contraction is defined for bipartite states")
    n = tau_a.n
    d_a, d_b = rho.dims.dims
    m = rho.entries
    total = 0.0 + 0.0j
    for qa in itertools.product(range(d_a), repeat=n):
        for qb in itertools.product(range(d_b), repeat=n):
            term = 1.0 + 0.0j
            for k in range(n):
                row = qa[tau_a(k)] * d_b + qb[tau_b(k)]
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


def per_unitary_samples(rho: DensityMatrix, cfg: EstimatorConfig, order: int) -> np.ndarray:
    """(n_unitaries, n_components) class averages at exact probabilities,
    drawn from the same seeded substreams as the estimator's chunks."""
    dims, n = rho.dims.dims, rho.dims.n_parties
    counts = _class_sums(np.ones((1,) + dims), order)[0]
    factor = _eigen_factor(rho)
    rows = []
    for start in range(0, cfg.n_unitaries, cfg.batch_size):
        c, size = start // cfg.batch_size, min(cfg.batch_size, cfg.n_unitaries - start)
        locals_ = [
            sample_haar_batch(d, size, RngStream(cfg.master_seed, c * n + l))
            for l, d in enumerate(dims)
        ]
        for k in range(size):
            p = np.maximum(_batched_probabilities(factor, [u[k : k + 1] for u in locals_]), 0.0)
            rows.append(_class_sums(p.reshape((1,) + dims), order)[0] / counts)
    return np.array(rows)


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
