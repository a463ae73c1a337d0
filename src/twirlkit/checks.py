"""The oracle checks behind the ``invariants`` and ``selftest`` commands.

The order-3 oracle is one diagram contraction of three copies of the state
per invariant class; the order-2 oracle reads every marginal purity off the
state's expansion in a product operator basis.  Neither shares code with the
partial-trace route of ``reconstruct.exact_x2`` and ``exact_x3``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import criteria, reconstruct, weingarten
from .states import DensityMatrix, make_state, max_entangled_projector, random_density

# the largest oracle residual ``invariant_table`` accepts
RESIDUAL_LIMIT = 1e-8


@functools.cache
def _weyl_basis(d: int) -> np.ndarray:
    """Read-only (d^2, d, d) table of conj(X^a Z^b) / sqrt(d), row a d + b,
    identity first: an orthonormal operator basis under Tr(A^dagger B)."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    table = np.array([
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d) for b in range(d)
    ]).conj() / np.sqrt(d)
    table.setflags(write=False)
    return table


def x2_oracle(rho: DensityMatrix) -> np.ndarray:
    """Tr rho_P^2 for every subset P, indexed by mask, from one operator-basis pass.

    rho = sum_a c_a B_a in the product Weyl-Heisenberg basis, one tensordot
    per party.  Tracing out party l keeps only terms with the identity there,
    scaled by sqrt(d_l), so
    Tr rho_P^2 = (prod_{l not in P} d_l) sum_{S subset of P} A_S
    with A_S the weight sum_a |c_a|^2 of the terms whose support is S.  The
    sum over subsets is one cumsum per party axis of the (2,)*N grid of A_S.
    No partial trace is taken.  The empty marginal has purity 1 by convention.
    """
    dims = rho.dims.dims
    n = len(dims)
    # axes (i_0, j_0, i_1, j_1, ...): each tensordot contracts the leading row
    # and column axes of one party and appends its basis axis at the end
    c = rho.entries.reshape(dims * 2).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    for d in dims:
        c = np.tensordot(c, _weyl_basis(d), axes=([0, 1], [1, 2]))
    grid = c.real**2 + c.imag**2
    for l, d in enumerate(dims):
        # weights with the identity on l (index 0) and without it (index 1);
        # the cumsum sums over S for P containing l, and d_l scales P without l
        grid = np.cumsum(np.add.reduceat(grid, [0, 1], axis=l), axis=l)
        grid *= np.array([d, 1.0]).reshape((2,) + (1,) * (n - 1 - l))
    # party 0 is the leading axis, so the C-order index of the grid is the mask
    purities = grid.ravel()
    purities[0] = 1.0
    return purities


# the first (tau_A, tau_B) of each bipartite invariant in wiring order; every
# wiring of one invariant is the same contraction with the copies relabelled,
# so one wiring per invariant gives all eleven values
_X3_WIRINGS = tuple(
    tuple(map(tuple, weingarten.permutations_of_order(3)[list(divmod(k, 6))].tolist()))
    for k in np.unique(reconstruct._invariants(3, 2), return_index=True)[1]
)


def x3_oracle(rho: DensityMatrix) -> np.ndarray:
    """All eleven invariants, one diagram contraction per invariant class."""
    return np.array([weingarten.diagram_contract(rho, ta, tb) for ta, tb in _X3_WIRINGS])


def invariant_table(
    rho: DensityMatrix, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact values, oracle values and residuals of the order-2 or order-3
    invariants x0, x1, ...; raises ReconstructionError when a residual exceeds
    ``RESIDUAL_LIMIT`` or is NaN."""
    if order == 2:
        exact, oracle = reconstruct.exact_x2(rho).purities, x2_oracle(rho)
    else:
        exact, oracle = reconstruct.exact_x3(rho).values, x3_oracle(rho)
    residuals = np.abs(exact - oracle)
    # np.max keeps a NaN, and the negated test fails on it
    worst = np.max(residuals)
    if not worst <= RESIDUAL_LIMIT:
        raise reconstruct.ReconstructionError(
            f"oracle residual {worst:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
        )
    return exact, oracle, residuals


def run_selftest() -> list[tuple[str, bool, str]]:
    """All internal consistency checks as (name, passed, detail) triples."""
    checks = []

    def gram_ok(n: int, d: int) -> float:
        w = weingarten.w_matrix(n, d)
        return float(np.max(np.abs(w @ weingarten.gram_matrix(n, d) - np.eye(len(w)))))

    worst = max(gram_ok(2, d) for d in range(2, 7))
    worst = max(worst, max(gram_ok(3, d) for d in range(3, 7)))
    checks.append(("gram-weingarten identity (n=2 d=2..6, n=3 d=3..6)",
                   worst < 1e-9, f"max residual {worst:.3e}"))

    rng = np.random.default_rng(2024)
    worst2 = 0.0
    for dims in [(2, 2), (3, 4), (2, 2, 3)]:
        rho = random_density(dims, rank=3, seed=rng)
        x = reconstruct.exact_x2(rho).purities
        xr = reconstruct.invert(2, dims, reconstruct.forward_matrix(2, dims) @ x)
        worst2 = max(worst2, float(np.max(np.abs(xr - x))))
    checks.append(("order-2 forward/invert round trip", worst2 < 1e-10,
                   f"max error {worst2:.3e}"))

    worst3 = 0.0
    for dims in [(3, 3), (3, 4), (4, 4)]:
        rho = random_density(dims, rank=4, seed=rng)
        x = reconstruct.exact_x3(rho)
        xr = reconstruct.invert(3, dims, reconstruct.forward_matrix(3, dims) @ x.values)
        worst3 = max(worst3, float(np.max(np.abs(xr - x.measurable))))
    checks.append(("order-3 forward/invert round trip", worst3 < 1e-10,
                   f"max error {worst3:.3e}"))

    rho = random_density((3, 3), rank=2, seed=rng)
    worst_o = float(np.max(np.abs(x3_oracle(rho) - reconstruct.exact_x3(rho).values)))
    checks.append(("diagram oracle vs closed-form traces", worst_o < 1e-10,
                   f"max residual {worst_o:.3e}"))

    # x9/x10 identification on the maximally entangled state:
    # matching 3-cycles give Tr rho^3 = 1, opposite 3-cycles give
    # Tr (rho^Gamma)^3 = 1/d^2 (= 1/4 at d=2)
    bell = make_state(max_entangled_projector(2), (2, 2))
    same = weingarten.diagram_contract(bell, criteria.C3, criteria.C3)
    opp = weingarten.diagram_contract(bell, criteria.C3, criteria.C3_INV)
    ident_ok = abs(same - 1.0) < 1e-12 and abs(opp - 0.25) < 1e-12
    checks.append((
        "x9 = Tr rho^3 (matching cycles), x10 = Tr (rho^Gamma)^3 (opposite cycles)",
        ident_ok,
        f"bell state: matching={same!r} (Tr rho^3 = 1), opposite={opp!r}"
        " (Tr (rho^Gamma)^3 = 1/4)",
    ))

    thr_ok = True
    detail = []
    for d in (3, 4, 5, 10):
        t = criteria.werner_threshold_3(d)
        thr_ok &= abs(criteria.werner_poly_3(d, t)) < 1e-9
        detail.append(f"d={d}: {t:.6f}")
    checks.append(("order-3 Werner thresholds (Cardano vs polynomial)",
                   thr_ok, ", ".join(detail)))
    return checks
