"""The oracle checks behind the ``invariants`` and ``selftest`` commands.

Each oracle is one einsum over copies of the state and shares no code with
the partial-trace route of ``reconstruct.exact_x2`` and ``exact_x3``.
"""

from __future__ import annotations

import numpy as np

from . import criteria, reconstruct, weingarten
from .states import DensityMatrix, DimsProfile, make_state, max_entangled_projector, random_density

# the largest oracle residual ``invariant_table`` accepts
RESIDUAL_LIMIT = 1e-8


def purity_oracle(rho: DensityMatrix, subset: tuple[int, ...]) -> float:
    """Tr rho_P^2 as one einsum of rho with itself, independent of partial_trace.

    The first copy has row labels i1 and column labels j1, which take i2's
    labels on P and i1's elsewhere; the second copy has row labels i2 and
    column labels j2, which take the reverse.
    """
    dims = rho.dims.dims
    n = len(dims)
    t = rho.entries.reshape(dims + dims)
    i1, i2 = list(range(n)), list(range(n, 2 * n))
    j1 = [i2[l] if l in subset else i1[l] for l in range(n)]
    j2 = [i1[l] if l in subset else i2[l] for l in range(n)]
    return float(np.einsum(t, i1 + j1, t, i2 + j2, [], optimize=True).real)


def x3_oracle(rho: DensityMatrix) -> np.ndarray:
    """All eleven invariants via the diagram contraction, class-averaged."""
    s3 = weingarten.S3
    ids = [k for row in weingarten.INVARIANT_ID for k in row]
    vals = [weingarten.diagram_contract(rho, ta, tb) for ta in s3 for tb in s3]
    return np.bincount(ids, vals) / np.bincount(ids)


def invariant_table(
    rho: DensityMatrix, order: int
) -> tuple[list[float], list[float], list[float]]:
    """Exact values, oracle values and residuals of the order-2 or order-3
    invariants x0, x1, ...; raises ReconstructionError when a residual exceeds
    ``RESIDUAL_LIMIT``."""
    if order == 2:
        n = rho.dims.n_parties
        exact = reconstruct.exact_x2(rho).purities.tolist()
        oracle = [1.0] + [
            purity_oracle(rho, tuple(l for l in range(n) if reconstruct._in_mask(mask, l, n)))
            for mask in range(1, 2**n)
        ]
    else:
        exact = list(reconstruct.exact_x3(rho).values)
        oracle = x3_oracle(rho).tolist()
    residuals = [abs(a - b) for a, b in zip(exact, oracle)]
    worst = max(residuals)
    if worst > RESIDUAL_LIMIT:
        raise reconstruct.ReconstructionError(
            f"oracle residual {worst:.3e} exceeds {RESIDUAL_LIMIT:.0e}"
        )
    return exact, oracle, residuals


def run_selftest(perturb_w: float = 0.0) -> list[tuple[str, bool, str]]:
    """All internal consistency checks as (name, passed, detail) triples.

    ``perturb_w`` is a debug hook that offsets one Weingarten-matrix entry
    to confirm the Gram-identity check is sensitive.
    """
    checks = []

    def gram_ok(n: int, d: int) -> float:
        w = weingarten.w_matrix(n, d).copy()
        w[0, 0] += perturb_w
        return float(np.max(np.abs(w @ weingarten.gram_matrix(n, d) - np.eye(len(w)))))

    worst = max(gram_ok(2, d) for d in range(2, 7))
    worst = max(worst, max(gram_ok(3, d) for d in range(3, 7)))
    checks.append(("gram-weingarten identity (n=2 d=2..6, n=3 d=3..6)",
                   worst < 1e-9, f"max residual {worst:.3e}"))

    rng = np.random.default_rng(2024)
    worst2 = 0.0
    for dims in [(2, 2), (3, 4), (2, 2, 3)]:
        rho = random_density(dims, rank=3, seed=rng)
        x = reconstruct.exact_x2(rho)
        xr = reconstruct.invert_2(reconstruct.forward_2(x))
        worst2 = max(worst2, float(np.max(np.abs(xr.purities - x.purities))))
    checks.append(("order-2 forward/invert round trip", worst2 < 1e-10,
                   f"max error {worst2:.3e}"))

    worst3 = 0.0
    for (da, db) in [(3, 3), (3, 4), (4, 4)]:
        rho = random_density((da, db), rank=4, seed=rng)
        x = reconstruct.exact_x3(rho)
        y = reconstruct.forward_3(x, da, db)
        target = np.array(x.values[:9] + (x.x_s, x.x_s))
        xr = np.array(reconstruct.invert_3(y).values)
        worst3 = max(worst3, float(np.max(np.abs(xr - target))))
    checks.append(("order-3 forward/invert round trip", worst3 < 1e-10,
                   f"max error {worst3:.3e}"))

    rho = random_density((3, 3), rank=2, seed=rng)
    ox = x3_oracle(rho)
    ex = np.array(reconstruct.exact_x3(rho).values)
    worst_o = float(np.max(np.abs(ox - ex)))
    checks.append(("diagram oracle vs closed-form traces", worst_o < 1e-10,
                   f"max residual {worst_o:.3e}"))

    # x9/x10 identification on the maximally entangled state:
    # matching 3-cycles give Tr rho^3 = 1, opposite 3-cycles give
    # Tr (rho^Gamma)^3 = 1/d^2 (= 1/4 at d=2)
    bell = make_state(max_entangled_projector(2), DimsProfile((2, 2)))
    c3, c3i = weingarten.S3[4], weingarten.S3[5]
    same = weingarten.diagram_contract(bell, c3, c3)
    opp = weingarten.diagram_contract(bell, c3, c3i)
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
