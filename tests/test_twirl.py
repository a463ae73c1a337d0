import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import born_kron, exact_y, pair_class_counts, per_unitary_samples
from twirlkit.haar import RngStream, sample_haar_batch
from twirlkit.reconstruct import invert
from twirlkit.states import (
    DimsProfile,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
    werner_state,
)
from twirlkit.twirl import (
    EstimationError,
    EstimatorConfig,
    _batched_probabilities,
    _class_sums,
    _eigen_factor,
    _kernel_plan,
    _merge_moments,
    estimate_y,
)
from twirlkit.weingarten import SingularDimensionError


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=1, shots=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=1, workers=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=1, master_seed=-1)


def test_born_probabilities_are_a_probability_vector():
    rho = random_density((2, 3), rank=4, seed=0)
    us = [sample_haar_batch(2, 1, RngStream(1, 0)), sample_haar_batch(3, 1, RngStream(1, 1))]
    p = _batched_probabilities(_eigen_factor(rho), us)
    assert p.shape == (1, 6)
    assert np.all(p > -1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_born_identity_unitaries_give_the_diagonal():
    rho = random_density((2, 2), rank=3, seed=1)
    p = _batched_probabilities(_eigen_factor(rho), [np.eye(2)[None], np.eye(2)[None]])
    assert np.allclose(p[0], np.diag(rho.entries).real, atol=1e-14)


def _haar_locals(dims, batch, seed):
    return [sample_haar_batch(d, batch, RngStream(seed, l)) for l, d in enumerate(dims)]


@pytest.mark.parametrize("dims", [(5,), (3, 3), (3, 4), (2, 2, 3), (2, 2, 2, 2)])
def test_born_matches_kron_oracle_at_every_rank(dims):
    locals_ = _haar_locals(dims, 16, seed=5)
    total = math.prod(dims)
    # the shift by the most degenerate eigenvalue leaves a rank-r state its
    # r nonzero eigenvalues, and a full-rank one all but the smallest of its
    # distinct eigenvalues; a state proportional to I leaves none
    cases = [
        (random_density(dims, rank=rank, seed=rank), min(rank, total - 1))
        for rank in range(1, total + 1)
    ] + [(maximally_mixed(dims), 0)]
    for rho, factor_rank in cases:
        factor = _eigen_factor(rho)
        assert len(factor[2]) == factor_rank
        p = _batched_probabilities(factor, locals_)
        assert np.max(np.abs(p - born_kron(rho, locals_))) <= 1e-14


def test_born_matches_kron_oracle_on_werner_state():
    rho = werner_state(5, 0.15)
    locals_ = _haar_locals((5, 5), 16, seed=6)
    factor = _eigen_factor(rho)
    # p P_+ plus a multiple of I: one eigenvalue differs from the other 24
    assert factor[1].shape == (1, 25)
    p = _batched_probabilities(factor, locals_)
    assert np.max(np.abs(p - born_kron(rho, locals_))) <= 1e-14


def test_born_keeps_negative_probabilities_within_psd_tolerance():
    # (1 + eps)|00><00| - eps|01><01| is a valid state under PSD_TOL; local
    # permutations with phases keep |01> a basis state, so an outcome has
    # probability -eps, which the route must report as the oracle does
    eps = 1e-10
    entries = np.zeros((9, 9), dtype=complex)
    entries[0, 0], entries[1, 1] = 1.0 + eps, -eps
    rho = make_state(entries, DimsProfile((3, 3)))
    rng = np.random.default_rng(8)
    perms = [
        np.stack([np.eye(3)[rng.permutation(3)] * np.exp(1j * rng.uniform(0, 6.3, 3))
                  for _ in range(4)])
        for _ in range(2)
    ]
    locals_ = [np.concatenate([p, h]) for p, h in zip(perms, _haar_locals((3, 3), 4, seed=9))]
    p = _batched_probabilities(_eigen_factor(rho), locals_)
    assert np.max(np.abs(p - born_kron(rho, locals_))) <= 1e-14
    assert np.min(p[:4], axis=1) == pytest.approx(-eps, rel=1e-4)


def test_born_memory_stays_far_below_the_product_unitary():
    # the (512, 1024, 1024) product unitary alone would take 8 GiB
    dims = (2,) * 10
    factor = _eigen_factor(random_density(dims, rank=2, seed=0))
    locals_ = _haar_locals(dims, 512, seed=3)
    tracemalloc.start()
    try:
        p = _batched_probabilities(factor, locals_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.shape == (512, 1024)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert peak < 64 * 2**20


def test_class_matrix_2_columns_average_over_classes():
    for dims in [(2, 2), (2, 3), (2, 2, 3)]:
        # the kernel on ones counts the index pairs of each class
        counts = _class_sums(np.ones((1,) + dims), order=2)[0]
        assert np.array_equal(counts, pair_class_counts(DimsProfile(dims)))
        # a uniform p has the same product on every pair, so every class
        # average is that product
        t = math.prod(dims)
        sums = _class_sums(np.full((1,) + dims, 1.0 / t), order=2)[0]
        assert np.allclose(sums / counts, 1.0 / t**2, rtol=1e-13)


def test_kernel_plan_is_built_once_per_run():
    # one plan for the class counts and one for the shot chunks, reused by
    # every chunk after the first
    _kernel_plan.cache_clear()
    cfg = EstimatorConfig(n_unitaries=40, shots=5, batch_size=8, master_seed=4)
    estimate_y(werner_state(3, 0.5), cfg, 3)
    info = _kernel_plan.cache_info()
    assert info.misses <= 2
    assert info.hits + info.misses == 1 + 5


def _same_contraction(a, b):
    """Whether two planned moments are one einsum up to operand order and a
    renaming of each party's labels."""
    for perm in itertools.permutations(b):
        if len(a) != len(perm) or [k for k, _ in a] != [k for k, _ in perm]:
            continue
        fwd, back = {}, {}
        if all(fwd.setdefault(x, y) == y and back.setdefault(y, x) == x
               for (_, la), (_, lb) in zip(a, perm) for x, y in zip(la, lb)):
            return True
    return False


def test_kernel_plan_runs_each_distinct_contraction_once():
    # 38 shot and 25 exact moments at order 3 are 15 and 10 distinct einsums
    for shots, count in ((True, 15), (False, 10)):
        _, moments, fold = _kernel_plan(3, (5, 5), shots)
        assert len(moments) == count
        assert not any(_same_contraction(a, b) for a, b in itertools.combinations(moments, 2))
        assert np.array_equal(fold, np.round(fold))


def test_class_matrix_3_counts():
    for d_a, d_b in [(3, 3), (3, 4), (8, 8)]:
        counts = _class_sums(np.ones((1, d_a, d_b)), order=3)[0]
        assert counts.shape == (10,)
        assert counts.sum() == (d_a * d_b) ** 3
        assert counts[0] == d_a * (d_a - 1) * (d_a - 2) * d_b * (d_b - 1) * (d_b - 2)
        assert counts[9] == d_a * d_b
        # three pairs of rounds on A, two other pairs on B
        assert counts[4] == 2 * counts[5]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_analytic_estimate_y2_is_unbiased(dims):
    rho = random_density(dims, rank=2, seed=5)
    cfg = EstimatorConfig(n_unitaries=4000, master_seed=101)
    est = estimate_y(rho, cfg, 2)
    z = np.abs(est.values - exact_y(rho, 2)) / est.std_error
    assert np.max(z) < 5.0


def test_analytic_estimate_y3_is_unbiased():
    rho = random_density((3, 3), rank=2, seed=6)
    cfg = EstimatorConfig(n_unitaries=4000, master_seed=102)
    est = estimate_y(rho, cfg, 3)
    z = np.abs(est.values - exact_y(rho, 3)) / est.std_error
    assert np.max(z) < 5.0


def test_estimate_y3_rejects_qubits():
    rho = maximally_mixed((2, 2))
    with pytest.raises(SingularDimensionError):
        estimate_y(rho, EstimatorConfig(n_unitaries=10), 3)


def test_reproducible_and_worker_independent():
    rho = random_density((2, 2), rank=3, seed=7)
    cfg1 = EstimatorConfig(n_unitaries=1500, shots=20, master_seed=9, workers=1)
    cfg4 = EstimatorConfig(n_unitaries=1500, shots=20, master_seed=9, workers=4)
    e1 = estimate_y(rho, cfg1, 2)
    e4 = estimate_y(rho, cfg4, 2)
    assert np.array_equal(e1.values, e4.values)
    assert np.array_equal(e1.covariance, e4.covariance)
    assert np.array_equal(e1.values, estimate_y(rho, cfg1, 2).values)


def test_different_seeds_differ():
    rho = random_density((2, 2), rank=3, seed=7)
    ya = estimate_y(rho, EstimatorConfig(n_unitaries=200, master_seed=1), 2)
    yb = estimate_y(rho, EstimatorConfig(n_unitaries=200, master_seed=2), 2)
    assert not np.array_equal(ya.values, yb.values)


def test_unbiased_shot_estimator_needs_enough_shots():
    rho = maximally_mixed((2, 2))
    with pytest.raises(EstimationError):
        estimate_y(rho, EstimatorConfig(n_unitaries=10, shots=1), 2)
    with pytest.raises(EstimationError):
        estimate_y(maximally_mixed((3, 3)), EstimatorConfig(n_unitaries=10, shots=2), 3)


def test_plug_in_estimator_warns():
    rho = maximally_mixed((2, 2))
    with pytest.warns(UserWarning):
        estimate_y(rho, EstimatorConfig(n_unitaries=10, shots=5, plug_in=True), 2)


def _exhaustive_expectation(p, shots, func):
    """Exact expectation of a count statistic over the multinomial law.

    ``p`` has shape (1, d_1, ..., d_N); ``func`` maps a (K, d_1, ..., d_N)
    stack of count arrays to K rows of statistics.
    """
    flat = p.reshape(-1)
    outcomes = list(itertools.combinations_with_replacement(range(flat.size), shots))
    counts = np.array([np.bincount(o, minlength=flat.size) for o in outcomes])
    weights = np.array(
        [
            math.factorial(shots)
            * math.prod(pi**ci / math.factorial(ci) for pi, ci in zip(flat, c))
            for c in counts
        ]
    )
    return weights @ func(counts.reshape((-1,) + p.shape[1:]).astype(float))


@st.composite
def _distributions(draw, shapes):
    dims = draw(st.sampled_from(shapes))
    t = math.prod(dims)
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=t, max_size=t)))
    return (w / w.sum()).reshape((1,) + dims)


@settings(max_examples=20, deadline=None)
@given(p=_distributions([(3,), (2, 2), (2, 3), (2, 2, 2)]), shots=st.integers(2, 4))
def test_pair_u_statistic_is_exactly_unbiased(p, shots):
    # E over the multinomial law equals the class sums of p_i p_j
    exp = _exhaustive_expectation(p, shots, lambda c: _class_sums(c, 2, shots))
    assert np.allclose(exp, _class_sums(p, 2)[0], rtol=1e-12, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(p=_distributions([(2, 2), (2, 3), (3, 3)]), shots=st.integers(3, 4))
def test_triple_u_statistic_is_exactly_unbiased(p, shots):
    exp = _exhaustive_expectation(p, shots, lambda c: _class_sums(c, 3, shots))
    assert np.allclose(exp, _class_sums(p, 3)[0], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("dims,empty", [((2, 2), [0, 1, 2, 3, 7]), ((2, 3), [0, 1, 2])])
def test_kernel_sums_empty_classes_to_exact_zero(dims, empty):
    # at d = 2 three rounds are never all distinct, so every class with an
    # all-distinct pattern on a qubit party has no index tuples
    p = np.random.default_rng(3).random((4,) + dims)
    p /= p.sum(axis=(1, 2), keepdims=True)
    assert np.array_equal(_class_sums(p, 3)[:, empty], np.zeros((4, len(empty))))


def test_plug_in_estimator_is_biased():
    p = np.array([[0.5, 0.5]])
    shots = 3
    exp = _exhaustive_expectation(p, shots, lambda c: _class_sums(c / shots, 2))
    assert np.max(np.abs(exp - _class_sums(p, 2)[0])) > 1e-3


def _oracle_component(idx):
    """y index of the index tuples idx[r][l] (round r, party l), by rule."""
    n_parties = len(idx[0])
    if len(idx) == 2:
        return sum(1 << (n_parties - 1 - l) for l in range(n_parties) if idx[0][l] != idx[1][l])
    kinds, equal_pairs = [], []
    for l in range(2):
        a, b, c = (idx[r][l] for r in range(3))
        kinds.append({3: 0, 2: 1, 1: 2}[len({a, b, c})])
        equal_pairs.append((a == b, b == c, a == c))
    if kinds == [1, 1]:
        return 5 if equal_pairs[0] == equal_pairs[1] else 4
    return {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 3, (1, 2): 6,
            (2, 0): 7, (2, 1): 8, (2, 2): 9}[tuple(kinds)]


def _oracle_class_sums(q, order, shots):
    """Class sums of one unitary's q by explicit loops over index tuples."""
    n_comp = 10 if order == 3 else 2 ** q.ndim
    sums = np.zeros(n_comp)
    for idx in itertools.product(np.ndindex(*q.shape), repeat=order):
        c = [q[i] for i in idx]
        if shots == 0:
            value = math.prod(c)
        elif order == 2:
            value = c[0] * (c[1] - (idx[0] == idx[1])) / (shots * (shots - 1))
        else:
            i, j, k = idx
            value = (
                c[0] * (c[1] - (i == j)) * (c[2] - (i == k) - (j == k))
                / (shots * (shots - 1) * (shots - 2))
            )
        sums[_oracle_component(idx)] += value
    return sums


@pytest.mark.parametrize("shots", [0, 3, 5])
@pytest.mark.parametrize(
    "dims,order", [((3, 3), 3), ((3, 4), 3), ((3, 4), 2), ((2, 2, 3), 2)]
)
def test_kernel_matches_explicit_loop_oracle(dims, order, shots):
    rng = np.random.default_rng(17)
    p = rng.dirichlet(np.ones(math.prod(dims)), size=2)
    q = rng.multinomial(shots, p).astype(float) if shots else p
    q = q.reshape((2,) + dims)
    got = _class_sums(q, order, shots)
    want = np.array([_oracle_class_sums(qi, order, shots) for qi in q])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_shot_estimates_converge_to_analytic():
    rho = make_state(max_entangled_projector(2), (2, 2))
    cfg = EstimatorConfig(n_unitaries=3000, shots=200, master_seed=55)
    est = estimate_y(rho, cfg, 2)
    z = np.abs(est.values - exact_y(rho, 2)) / est.std_error
    assert np.max(z) < 5.0
    # and the reconstruction recovers purity 1 within a loose band
    x = invert(2, (2, 2), est.values)
    assert x[-1] == pytest.approx(1.0, abs=0.05)


def test_maximally_mixed_y2_components_are_exact():
    # p is uniform for every unitary, so all components are (1/4)^2 = 1/16
    rho = maximally_mixed((2, 2))
    y = estimate_y(rho, EstimatorConfig(n_unitaries=50, master_seed=3), 2)
    assert np.allclose(y.values, 1.0 / 16, atol=1e-14)


def test_maximally_mixed_y3_components_are_exact():
    for dims in [(3, 3), (8, 8)]:
        rho = maximally_mixed(dims)
        y = estimate_y(rho, EstimatorConfig(n_unitaries=50, master_seed=3), 3)
        assert np.allclose(y.values, (1.0 / rho.total) ** 3, atol=1e-14)


def test_product_state_delta_statistic_vanishes():
    a = random_density((3,), rank=2, seed=1)
    b = random_density((3,), rank=2, seed=2)
    rho = make_state(np.kron(a.entries, b.entries), (3, 3))
    est = estimate_y(rho, EstimatorConfig(n_unitaries=3000, master_seed=21), 3)
    delta_hat = (est.values[4] - est.values[5]) * 3 * 8 * 3 * 8
    se = np.sqrt(est.std_error[4] ** 2 + est.std_error[5] ** 2) * 3 * 8 * 3 * 8
    assert abs(delta_hat) < 5 * se


def test_basis_permutation_leaves_y_expectation_unchanged():
    # conjugating one subsystem by a basis permutation is a local unitary,
    # so the twirl averages must agree statistically
    rho = random_density((2, 3), rank=3, seed=12)
    perm = np.eye(3)[[2, 0, 1]]
    u = np.kron(np.eye(2), perm)
    rho_p = make_state(u @ rho.entries @ u.T, (2, 3))
    ea = estimate_y(rho, EstimatorConfig(n_unitaries=5000, master_seed=31), 2)
    eb = estimate_y(rho_p, EstimatorConfig(n_unitaries=5000, master_seed=32), 2)
    z = np.abs(ea.values - eb.values) / np.sqrt(ea.std_error**2 + eb.std_error**2)
    assert np.max(z) < 5.0


def test_std_error_matches_two_pass_reference():
    # two chunks of 512, rebuilt one unitary at a time from the same substreams
    rho = werner_state(5, 0.002)
    cfg = EstimatorConfig(n_unitaries=1024, master_seed=3)
    est = estimate_y(rho, cfg, 3)
    samples = per_unitary_samples(rho, cfg, order=3)
    ref = np.std(samples, axis=0, ddof=1) / np.sqrt(cfg.n_unitaries)
    # the samples spread over ~1e-7 of their value, so ~9 digits of each
    # deviation are significant; the one-pass formula was off by up to 1%
    np.testing.assert_allclose(est.std_error, ref, rtol=1e-8)
    ref_cov = np.cov(samples, rowvar=False) / cfg.n_unitaries
    np.testing.assert_allclose(
        est.covariance, ref_cov, rtol=0, atol=1e-8 * np.max(np.diag(ref_cov))
    )
    assert np.array_equal(est.covariance, est.covariance.T)


def test_moment_merge_on_uneven_chunks():
    rng = np.random.default_rng(0)
    # a large offset makes the one-pass (sum y y^T - n mean mean^T) formula lose digits
    x = 1e6 + rng.normal(size=(1000, 3)) @ np.array([[1, 0, 0], [0.5, 1, 0], [0, -0.3, 2]])
    chunks = np.split(x, [1, 3, 503, 510, 810])  # sizes 1, 2, 500, 7, 300, 190
    parts = (
        (len(c), c.mean(axis=0), (c - c.mean(axis=0)).T @ (c - c.mean(axis=0)))
        for c in chunks
    )
    n, mean, m2 = _merge_moments(parts)
    assert n == 1000
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-14)
    ref = np.cov(x, rowvar=False)
    np.testing.assert_allclose(m2 / (n - 1), ref, rtol=1e-10, atol=1e-10 * np.max(ref))
