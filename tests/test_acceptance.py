"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import dataclasses
import itertools

import numpy as np
import pytest

from twirlkit.criteria import (
    criterion,
    werner_poly_2,
    werner_poly_3,
    werner_threshold_2,
    werner_threshold_3,
)
from oracles import (
    gram_entry,
    invariant_id,
    measurable_x,
    partial_transpose,
    per_unitary_samples,
    purity_marginal_hamming,
    std_error_of_mean,
    subset_mask,
    trace_power,
)
from twirlkit.haar import RngStream
from twirlkit.reconstruct import exact_x2, exact_x3, forward_matrix, invert
from twirlkit.states import (
    BellDiagonalSpectrum,
    DimsProfile,
    bell_diagonal,
    make_state,
    max_entangled_projector,
    random_density,
    werner_state,
)
from twirlkit.twirl import EstimatorConfig, estimate_y
from twirlkit.weingarten import diagram_contract, permutations_of_order, w_matrix


def _report(number: int, title: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number} ({title}): {detail}"
    print(line)
    assert ok, line


def test_acceptance_1_weingarten_gram_identity():
    worst = 0.0
    for n, d_range in ((2, range(2, 7)), (3, range(3, 7))):
        perms = permutations_of_order(n).tolist()
        for d in d_range:
            w = w_matrix(n, d)
            g = np.array([[gram_entry(t, m, d) for m in perms] for t in perms])
            worst = max(worst, float(np.max(np.abs(w @ g - np.eye(len(perms))))))
    _report(1, "Weingarten correctness", worst < 1e-12, f"max residual {worst:.3e}")


def test_acceptance_2_oracle_equivalence_and_round_trip():
    dims_cycle = [(3, 3), (3, 4), (4, 4)]
    rng = np.random.default_rng(314159)
    worst_oracle = 0.0
    worst_rt = 0.0
    for k in range(20):
        dims = dims_cycle[k % 3]
        rho = random_density(dims, rank=rng.integers(1, dims[0] * dims[1] + 1), seed=rng)
        x = exact_x3(rho)
        sums = np.zeros(11)
        counts = np.zeros(11)
        for ta in permutations_of_order(3):
            for tb in permutations_of_order(3):
                idx = invariant_id(ta, tb)
                sums[idx] += diagram_contract(rho, ta, tb)
                counts[idx] += 1
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(sums / counts - np.array(x.values))))
        )
        xr = invert(3, dims, forward_matrix(3, dims) @ np.array(x.values))
        worst_rt = max(worst_rt, float(np.max(np.abs(xr - measurable_x(rho, 3)))))
    ok = worst_oracle < 1e-10 and worst_rt < 1e-9
    _report(2, "oracle equivalence", ok,
            f"20 states: oracle residual {worst_oracle:.3e}, round trip {worst_rt:.3e}")


def test_acceptance_3_second_order_pipeline():
    rng = np.random.default_rng(27182)
    worst_rt = 0.0
    worst_h = 0.0
    for dims in [(2, 2), (3, 4), (2, 5), (4, 3)]:
        rho = random_density(dims, rank=4, seed=rng)
        x = exact_x2(rho).purities
        xr = invert(2, dims, forward_matrix(2, dims) @ x)
        worst_rt = max(worst_rt, float(np.max(np.abs(xr - x))))
    for dims in [(2, 2), (3, 3), (2, 2, 2), (4, 4)]:
        rho = random_density(dims, rank=3, seed=rng)
        y = forward_matrix(2, dims) @ exact_x2(rho).purities
        subsets = [[0], [0, 1], list(range(len(dims)))]
        for p in subsets:
            worst_h = max(
                worst_h,
                abs(invert(2, dims, y)[subset_mask(p, len(dims))]
                    - purity_marginal_hamming(dims, y, p)),
            )
    ok = worst_rt < 1e-12 and worst_h < 1e-12
    _report(3, "second-order pipeline", ok,
            f"round trip {worst_rt:.3e}, hamming vs product {worst_h:.3e}")


def _bell_purities(n_unitaries: int, seed: int):
    rho = make_state(max_entangled_projector(2), (2, 2))
    cfg = EstimatorConfig(n_unitaries=n_unitaries, order=2, master_seed=seed)
    est = estimate_y(rho, cfg)
    return est.values, est.std_error


def test_acceptance_4_monte_carlo_convergence():
    x_hat, se = _bell_purities(5000, seed=20240917)
    target = np.array([1.0, 0.5, 0.5, 1.0])
    dev = np.abs(x_hat - target)
    within = bool(np.all(dev <= 5 * np.maximum(se, 1e-15)))

    seeds = range(12)
    ns = [500, 5000, 50000]
    variances = []
    for n in ns:
        runs = np.array([_bell_purities(n, seed=1000 + s)[0][3] for s in seeds])
        variances.append(np.var(runs, ddof=1))
    slope = np.polyfit(np.log(ns), np.log(variances), 1)[0]
    ok = within and abs(slope + 1.0) <= 0.1
    _report(4, "Monte Carlo convergence", ok,
            f"max |dev|/se {np.max(dev / np.maximum(se, 1e-15)):.2f}, "
            f"variance log-log slope {slope:.3f}")


def test_acceptance_5_analytic_thresholds():
    checks = [
        abs(werner_threshold_2(2) - 1 / np.sqrt(3)) < 1e-9,
        werner_threshold_2(3) == 0.5,
        werner_poly_2(3, 0.5) == 0.0,
        abs(werner_threshold_3(3) - 10 ** (-1 / 3)) < 1e-9,
    ]
    worst_root = 0.0
    for d in range(3, 11):
        t = werner_threshold_3(d)
        coeffs = [-(d * d - 4) * (d + 1), 2 * (d + 1) * (d - 3), 0.0, 2.0]
        roots = [z.real for z in np.roots(coeffs) if abs(z.imag) < 1e-9 and 0 < z.real <= 1]
        worst_root = max(worst_root, abs(t - min(roots)))
    checks.append(worst_root < 1e-9)
    _report(5, "analytic thresholds", all(checks),
            f"p*2(2)={werner_threshold_2(2):.9f}, p*3(3)={werner_threshold_3(3):.9f}, "
            f"max Cardano-vs-numeric {worst_root:.2e} over d=3..10")


def test_acceptance_6_end_to_end_werner_detection():
    rho = werner_state(3, 0.48)
    cfg = EstimatorConfig(n_unitaries=20000, order=3, master_seed=20240917)
    est3 = estimate_y(rho, cfg)
    rep3, _ = criterion(3, 2, est3.values)
    # the margin 2 x8 - x9 - x10 is linear in x, so its standard error is
    # that of its per-unitary values, rebuilt from the same substreams
    g = np.zeros(11)
    g[8], g[9], g[10] = 2.0, -1.0, -1.0
    se_margin = std_error_of_mean(invert(3, (3, 3), per_unitary_samples(rho, cfg)) @ g)
    sigma = -rep3.margin / se_margin

    est2 = estimate_y(rho, dataclasses.replace(cfg, order=2))
    rep2, _ = criterion(2, 2, est2.values)
    ok = rep3.detected and sigma >= 3.0 and not rep2.detected
    _report(6, "end-to-end detection", ok,
            f"third-order margin {rep3.margin:.4e} ({sigma:.1f} sigma), "
            f"second-order margin {rep2.margin:.4e} (not detected: {not rep2.detected})")


def _random_separable(rng) -> np.ndarray:
    n_terms = int(rng.integers(1, 6))
    weights = rng.dirichlet(np.ones(n_terms))
    m = np.zeros((9, 9), dtype=complex)
    for w in weights:
        a = random_density((3,), rank=int(rng.integers(1, 4)), seed=rng)
        b = random_density((3,), rank=int(rng.integers(1, 4)), seed=rng)
        m += w * np.kron(a.entries, b.entries)
    return m


def test_acceptance_7_no_false_positives_on_separable_states():
    rng = np.random.default_rng(161803)
    false_pos = 0
    for _ in range(1000):
        rho = make_state(_random_separable(rng), (3, 3))
        rep2, _ = criterion(2, 2, exact_x2(rho).purities)
        rep3, _ = criterion(3, 2, exact_x3(rho).values)
        if rep2.detected or rep3.detected:
            false_pos += 1
    _report(7, "no false positives", false_pos == 0,
            f"{false_pos} detections out of 1000 separable states")


def test_acceptance_8_bell_diagonal_geometry():
    grid = np.linspace(0.0, 1.0, 50)
    mismatch_purity = mismatch_npt = mismatch_third = 0
    n_points = 0
    for l1, l2, l3 in itertools.product(grid, repeat=3):
        l4 = 1.0 - l1 - l2 - l3
        if l4 < 0.0:
            continue
        n_points += 1
        lam = (l1, l2, l3, max(l4, 0.0))
        rho = bell_diagonal(BellDiagonalSpectrum(lam))
        ball = sum(v * v for v in lam) > 0.5
        npt = max(lam) > 0.5

        rep2, _ = criterion(2, 2, exact_x2(rho).purities)
        if rep2.detected != ball:
            mismatch_purity += 1
        pt_negative = bool(np.linalg.eigvalsh(partial_transpose(rho, 1))[0] < 0.0)
        if pt_negative != npt:
            mismatch_npt += 1
        rep3, _ = criterion(3, 2, exact_x3(rho).values)
        if rep3.detected != rep2.detected:
            mismatch_third += 1
    ok = mismatch_purity == 0 and mismatch_npt == 0 and mismatch_third == 0
    _report(8, "Bell-diagonal geometry", ok,
            f"{n_points} grid points: purity-set mismatches {mismatch_purity}, "
            f"NPT mismatches {mismatch_npt}, third-vs-purity mismatches {mismatch_third}")
