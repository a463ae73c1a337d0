import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    born_kron,
    exact_y,
    invariant_id,
    invariant_values,
    invariants_loops,
    inverse,
    invert_3_closed_form,
    measurable_x,
    mub_unitaries,
    pair_class_counts,
    partial_trace,
    partial_transpose,
    pattern_rows,
    per_unitary_samples,
    pooling_loops,
    purity_marginal_hamming,
    std_error_of_mean,
    subset_mask,
    trace_power,
)
from twirlkit.haar import RngStream, sample_haar_batch
from twirlkit.reconstruct import (
    ReconstructionError,
    XVector3,
    _invariants,
    _inverse,
    _pooling,
    exact_x2,
    exact_x3,
    forward_matrix,
    invert,
)
from twirlkit.states import (
    DimsProfile,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
    werner_state,
)
from twirlkit.twirl import EstimatorConfig, _class_sums, _kernel_plan, estimate_y
from twirlkit.weingarten import (
    SingularDimensionError,
    diagram_contract,
    permutations_of_order,
    w_matrix,
)


# ---------------------------------------------------------------------------
# order 2
# ---------------------------------------------------------------------------

def test_exact_x2_component_order():
    # subsystem 0 is the most significant bit: (1, TrB^2, TrA^2, Tr^2)
    rho = werner_state(2, 0.8)
    x = exact_x2(rho)
    assert x.purities[0] == pytest.approx(1.0)
    assert x.purities[1] == pytest.approx(0.5, abs=1e-12)  # Tr rho_B^2
    assert x.purities[2] == pytest.approx(0.5, abs=1e-12)  # Tr rho_A^2
    assert x.purities[3] == pytest.approx(0.73, abs=1e-12)  # (1 + 3 p^2)/4


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 4), (2,) * 6])
def test_exact_x2_matches_partial_traces_on_every_subset(dims):
    rho = random_density(dims, rank=3, seed=11)
    n = len(dims)
    purities = exact_x2(rho).purities
    assert purities[0] == 1.0
    for mask in range(2**n):
        keep = [l for l in range(n) if mask >> (n - 1 - l) & 1]
        want = trace_power(partial_trace(rho, keep).entries, 2)
        assert purities[mask] == pytest.approx(want, rel=1e-12)


def test_exact_x2_holds_one_chain_of_marginals_at_ten_qubits():
    # every marginal at once would take ~156 MiB; the state itself is 16 MiB
    rho = random_density((2,) * 10, rank=2, seed=5)
    tracemalloc.start()
    try:
        exact_x2(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (2, 3, 2), (2, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order2_round_trip(dims, seed):
    rho = random_density(dims, rank=3, seed=seed)
    x = exact_x2(rho).purities
    xr = invert(2, dims, forward_matrix(2, dims) @ x)
    assert np.max(np.abs(xr - x)) < 1e-12


def _mub_residual(rho, a: np.ndarray) -> float:
    """Max |mean class average - A x| at order 2 when every tuple of one
    mutually unbiased basis per party is measured once, exactly."""
    dims = rho.dims.dims
    settings = itertools.product(*(mub_unitaries(d) for d in dims))
    p = born_kron(rho, [np.array(u) for u in zip(*settings)])
    y = _class_sums(p.reshape((-1,) + dims), 2) / _kernel_plan(2, dims, False)[3]
    return float(np.max(np.abs(y.mean(axis=0) - a @ exact_x2(rho).purities)))


MUB_DIMS = [(2, 3), (3, 5), (2, 2, 3)]


@pytest.mark.parametrize("dims", MUB_DIMS)
def test_mutually_unbiased_bases_give_the_order2_forward_model_exactly(dims):
    # a complete set of MUBs is a 2-design: a deterministic check of A,
    # with no Haar sampling and no statistical band
    rho = random_density(dims, rank=3, seed=len(dims))
    assert _mub_residual(rho, forward_matrix(2, dims)) <= 1e-14


@pytest.mark.parametrize("dims", MUB_DIMS)
def test_mutually_unbiased_bases_see_one_weingarten_entry_off_by_1e_3(dims, monkeypatch):
    def perturbed(n, d):
        w = w_matrix(n, d).copy()
        w[0, 0] += 1e-3
        return w

    rho = random_density(dims, rank=3, seed=len(dims))
    monkeypatch.setattr("twirlkit.reconstruct.w_matrix", perturbed)
    # the uncached builder, so the cached forward matrices keep the true tables
    assert _mub_residual(rho, forward_matrix.__wrapped__(2, dims)) > 1e-6


def test_pair_class_counts_sum_to_all_pairs():
    dims = DimsProfile((2, 3))
    assert pair_class_counts(dims).sum() == 36  # (2*3)^2 ordered pairs


@pytest.mark.parametrize("seed", [0, 1])
def test_purity_marginal_product_formula(seed):
    rho = random_density((2, 3, 2), rank=4, seed=seed)
    x = invert(2, (2, 3, 2), exact_y(rho, 2))
    for subset in ([0], [1], [0, 2], [0, 1, 2]):
        direct = trace_power(partial_trace(rho, subset).entries, 2)
        assert x[subset_mask(subset, 3)] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_hamming_form_agrees_on_equal_dims(dims, seed):
    rho = random_density(dims, rank=2, seed=seed)
    y = exact_y(rho, 2)
    for subset in ([0], [0, 1], list(range(len(dims)))):
        assert purity_marginal_hamming(dims, y, subset) == pytest.approx(
            invert(2, dims, y)[subset_mask(subset, len(dims))], abs=1e-12
        )


def test_hamming_form_rejects_unequal_dims():
    rho = random_density((2, 3), rank=2, seed=0)
    y = exact_y(rho, 2)
    with pytest.raises(ValueError):
        purity_marginal_hamming((2, 3), y, [0])


# ---------------------------------------------------------------------------
# order 3
# ---------------------------------------------------------------------------

def test_exact_x3_on_maximally_mixed():
    rho = maximally_mixed((3, 3))
    x = exact_x3(rho).values
    # every invariant of I/9 is a power of 1/3 or 1/9
    assert x[0] == pytest.approx(1.0)
    assert x[5] == pytest.approx(1.0 / 9)
    assert x[9] == pytest.approx(1.0 / 81)
    assert x[10] == pytest.approx(1.0 / 81)


def test_exact_x3_partial_transpose_component():
    rho = make_state(max_entangled_projector(3), (3, 3))
    x = exact_x3(rho).values
    assert x[9] == pytest.approx(1.0, abs=1e-12)  # Tr rho^3, pure state
    pt = partial_transpose(rho, 1)
    assert x[10] == pytest.approx(trace_power(pt, 3), abs=1e-12)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_x3_matches_diagram_oracle(dims, seed):
    rho = random_density(dims, rank=4, seed=seed)
    x = exact_x3(rho)
    sums = np.zeros(11)
    counts = np.zeros(11)
    s3 = permutations_of_order(3)
    for ta in s3:
        for tb in s3:
            k = invariant_id(ta, tb)
            sums[k] += diagram_contract(rho, ta, tb)
            counts[k] += 1
    assert np.max(np.abs(sums / counts - np.array(x.values))) < 1e-10


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4), (3, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order3_round_trip_closed_form(dims, seed):
    rho = random_density(dims, rank=4, seed=seed)
    y = exact_y(rho, 3)
    for xr in (invert(3, dims, y), invert_3_closed_form(dims, y[::-1])):
        assert np.max(np.abs(xr - measurable_x(rho, 3))) < 1e-9


@pytest.mark.parametrize("dims", [(3, 3), (4, 3), (5, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_agrees_with_numeric_solve(dims, seed):
    rho = random_density(dims, rank=3, seed=seed)
    y = exact_y(rho, 3)
    a = invert_3_closed_form(dims, y[::-1])
    b = invert(3, dims, y)
    assert np.max(np.abs(a - b)) < 1e-9


def test_delta_recovers_x4_minus_x5():
    rho = random_density((3, 4), rank=5, seed=9)
    x = exact_x3(rho).values
    y = exact_y(rho, 3)[::-1]  # the hand layout, the derived one reversed
    d_a, d_b = 3, 4
    delta = (y[4] - y[5]) * d_a * (d_a**2 - 1) * d_b * (d_b**2 - 1)
    assert delta == pytest.approx(x[4] - x[5], abs=1e-12)


def test_forward_model_is_invertible_for_d_at_least_3():
    for dims in [(3, 3), (3, 6), (5, 5)]:
        # ten components on eleven invariants: full row rank, so every y has
        # an exact preimage
        assert np.linalg.matrix_rank(forward_matrix(3, dims)) == 10


def test_order3_rejects_qubit_dimensions():
    with pytest.raises(SingularDimensionError):
        forward_matrix(3, (2, 3))
    with pytest.raises(SingularDimensionError):
        invert(3, (3, 2), np.zeros(10))


def test_noisy_y_still_inverts_consistently():
    # A has full row rank, so noisy data maps to an exact preimage:
    # forward(invert(y)) reproduces y to machine precision
    rho = random_density((3, 3), rank=2, seed=4)
    y = exact_y(rho, 3)
    y += 1e-3 * np.random.default_rng(0).normal(size=10) * np.abs(y)
    x = invert(3, (3, 3), y)
    back = forward_matrix(3, (3, 3)) @ x
    assert np.max(np.abs(back - y)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order,dims", [(3, (3, 3)), (2, (2, 3))])
def test_invert_rejects_non_finite_y(order, dims, bad):
    rho = random_density(dims, rank=2, seed=4)
    y = exact_y(rho, order)
    invert(order, dims, y)
    y[1] = bad
    with pytest.raises(ReconstructionError, match="non-finite"):
        invert(order, dims, y)
    with pytest.raises(ReconstructionError, match="non-finite"):
        invert(order, dims, np.stack([y, y]))


def test_warm_invert_reads_no_forward_matrix(monkeypatch):
    # the inverse's residual is checked once per shape, so a block of 512
    # unitaries is one matmul
    dims = (3, 3)
    y = np.tile(exact_y(random_density(dims, rank=2, seed=4), 3), (512, 1))
    invert(3, dims, y)
    reads = []

    def spy(*args):
        reads.append(args)
        return forward_matrix(*args)

    monkeypatch.setattr("twirlkit.reconstruct.forward_matrix", spy)
    assert invert(3, dims, y).shape == (512, 11)
    assert reads == []


def test_an_inverse_failing_its_residual_check_raises_before_any_unitary_is_drawn(monkeypatch):
    # nearly equal last rows: A A^T has condition ~4e14, so the solve
    # succeeds but A M^T misses the identity by far more than RESIDUAL_TOL
    a = np.eye(4)
    a[3] = a[2] + 1e-7 * np.array([0.3, 0.7, 0.1, 1.0])
    drawn = []
    monkeypatch.setattr("twirlkit.reconstruct.forward_matrix", lambda order, dims: a)
    monkeypatch.setattr("twirlkit.twirl.sample_haar_batch", lambda *args: drawn.append(args))
    _inverse.cache_clear()
    try:
        with pytest.raises(ReconstructionError, match="inversion residual"):
            estimate_y(maximally_mixed((2, 2)), EstimatorConfig(n_unitaries=10, order=2))
    finally:
        _inverse.cache_clear()
    assert drawn == []


def test_reconstruction_error_exists_for_numerical_failures():
    assert issubclass(ReconstructionError, ArithmeticError)


def test_xvector3_requires_eleven_components():
    with pytest.raises(ValueError):
        XVector3(range(10))


def test_forward_3_on_maximally_mixed_is_uniform():
    y = exact_y(maximally_mixed((3, 3)), 3)
    assert np.allclose(y, (1.0 / 9) ** 3, atol=1e-14)


def test_product_state_has_zero_delta_on_exact_y():
    a = random_density((3,), rank=2, seed=5)
    b = random_density((3,), rank=3, seed=6)
    rho = make_state(np.kron(a.entries, b.entries), (3, 3))
    x = invert(3, (3, 3), exact_y(rho, 3))
    assert abs(x[4] - x[5]) < 1e-10


def test_invert_2_output_obeys_purity_bounds():
    for seed in range(5):
        rho = random_density((2, 3), rank=4, seed=seed)
        x = invert(2, (2, 3), exact_y(rho, 2))
        assert x[-1] <= 1.0 + 1e-9
        assert x[subset_mask([0], 2)] >= 1.0 / 2 - 1e-9
        assert x[subset_mask([1], 2)] >= 1.0 / 3 - 1e-9


def test_forward_model_exposes_coefficients():
    # row 4 minus row 5 isolates x4 - x5 with coefficient
    # 1 / (d_A(d_A^2-1) d_B(d_B^2-1)) and is zero on every other invariant
    d_a, d_b = 3, 4
    m = forward_matrix(3, (d_a, d_b))[::-1]  # rows in the hand layout
    c = 1.0 / (d_a * (d_a**2 - 1) * d_b * (d_b**2 - 1))
    diff = m[4] - m[5]
    assert diff[4] == pytest.approx(c)
    assert diff[5] == pytest.approx(-c)
    assert np.max(np.abs(np.delete(diff, [4, 5]))) < 1e-12 * c


# ---------------------------------------------------------------------------
# the one forward matrix and its inverse
# ---------------------------------------------------------------------------

_DIMS_2 = st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple)
_DIMS_3 = st.tuples(st.integers(3, 8), st.integers(3, 8))


@settings(max_examples=40, deadline=None)
@given(
    order_dims=st.one_of(_DIMS_2.map(lambda d: (2, d)), _DIMS_3.map(lambda d: (3, d))),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_of_invert_is_identity_and_batches_row_for_row(order_dims, k, seed):
    order, dims = order_dims
    m = forward_matrix(order, dims)
    ys = np.random.default_rng(seed).normal(size=(k, m.shape[0])) * np.abs(m).max()
    xs = invert(order, dims, ys)
    assert np.allclose(xs @ m.T, ys, rtol=1e-12, atol=1e-12 * np.abs(ys).max())
    for y, x in zip(ys, xs):
        assert np.max(np.abs(invert(order, dims, y) - x)) <= 1e-13 * np.abs(xs).max()


@pytest.mark.parametrize(
    "order, dims",
    [(2, (2, 2)), (2, (3, 4)), (2, (2, 2, 3)), (3, (3, 3)), (3, (3, 4)), (3, (5, 5)),
     (3, (3, 3, 3)), (3, (3, 4, 5))],
)
def test_pooled_pattern_rows_agree_within_each_component(order, dims):
    rows = pattern_rows(order, dims)
    pool = _pooling(order, len(dims))
    m = forward_matrix(order, dims)
    for comp in range(pool.shape[1]):
        members = rows[pool[:, comp] == 1]
        assert len(members) >= 1
        assert np.max(np.abs(members - m[comp])) <= 1e-12 * np.abs(rows).max()


def test_bipartite_invariant_numbering_equals_the_hand_table():
    ids = _invariants(3, 2)
    s3 = permutations_of_order(3)
    assert ids.tolist() == [invariant_id(ta, tb) for ta, tb in itertools.product(s3, repeat=2)]
    # x9 = Tr rho^3 and x10 = Tr (rho^Gamma)^3 have equal columns, and the rank
    # is 10, so e9 - e10 spans the null space and invert puts x_S in both
    m = forward_matrix(3, (3, 4))
    assert np.array_equal(m[:, 9], m[:, 10])
    assert np.linalg.matrix_rank(m) == 10
    x = invert(3, (3, 4), np.random.default_rng(1).normal(size=10))
    assert x[9] == pytest.approx(x[10], rel=1e-13)


@pytest.mark.parametrize(
    "order, n_parties",
    [(2, n) for n in range(1, 7)] + [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)],
)
def test_orbit_numberings_equal_the_loop_oracles(order, n_parties):
    ids = _invariants(order, n_parties)
    want = invariants_loops(order, n_parties)
    assert ids.dtype == want.dtype and np.array_equal(ids, want)
    pool = _pooling(order, n_parties)
    want = pooling_loops(order, n_parties)
    assert pool.dtype == want.dtype and np.array_equal(pool, want)


@pytest.mark.parametrize("n_parties", [1, 2, 3, 4, 5])
def test_order2_invariant_numbering_is_the_subset_bitmask(n_parties):
    assert _invariants(2, n_parties).tolist() == list(range(2**n_parties))
    # every purity is measurable on its own: A is square and full rank
    m = forward_matrix(2, (2,) * n_parties)
    assert m.shape == (2**n_parties, 2**n_parties)
    assert np.linalg.matrix_rank(m) == 2**n_parties


@pytest.mark.parametrize("n_parties, n_ids, rank", [(3, 49, 37), (4, 251, 150)])
def test_multipartite_order3_invariant_and_column_counts(n_parties, n_ids, rank):
    ids = _invariants(3, n_parties)
    assert sorted(set(ids.tolist())) == list(range(n_ids))
    # as many measurable combinations of the invariants as there are y components
    pool = _pooling(3, n_parties)
    rows = pattern_rows(3, (3,) * n_parties)[pool.argmax(axis=0)]
    assert np.linalg.matrix_rank(rows) == rank == pool.shape[1]


@pytest.mark.parametrize("dims", [(3, 3, 3), (3, 4, 5)])
def test_three_party_order3_forward_rows_have_full_row_rank_and_are_pooled(dims):
    rows = pattern_rows(3, dims)
    pool = _pooling(3, len(dims))
    rep = rows[pool.argmax(axis=0)]
    assert rep.shape == (37, 49)
    assert np.linalg.matrix_rank(rep) == 37
    for comp in range(pool.shape[1]):
        members = rows[pool[:, comp] == 1]
        assert np.max(np.abs(members - members[0])) <= 1e-12 * np.abs(rows).max()


@pytest.mark.parametrize(
    "dims,shape", [((3, 3, 3), (37, 49)), ((3, 4, 5), (37, 49)), ((3, 3, 3, 3), (150, 251))]
)
def test_multipartite_order3_forward_matrix_has_full_row_rank_and_inverse_wirings_share_columns(
    dims, shape
):
    a = forward_matrix(3, dims)
    assert a.shape == shape
    assert np.linalg.matrix_rank(a) == shape[0]
    # no equality pattern tells a permutation from its inverse, so inverting
    # one party's wiring keeps the column; inverting every party's gives the
    # complex conjugate invariant, so A x is real
    perms = [tuple(p) for p in permutations_of_order(3).tolist()]
    ids = _invariants(3, len(dims))
    for flip in [{l} for l in range(len(dims))] + [set(range(len(dims)))]:
        other = ids[[
            np.ravel_multi_index(
                [perms.index(inverse(perms[k])) if l in flip else k for l, k in enumerate(w)],
                (6,) * len(dims),
            )
            for w in itertools.product(range(6), repeat=len(dims))
        ]]
        assert np.any(other != ids)
        np.testing.assert_allclose(a[:, other], a[:, ids], rtol=0, atol=1e-12 * np.abs(a).max())


@pytest.mark.parametrize("shots,n_unitaries", [(0, 2048), (20, 4096)])
def test_three_party_order3_estimate_is_near_the_minimum_norm_x(shots, n_unitaries):
    # x is one complex einsum per invariant; conjugate invariants share a
    # column of A, so A x is real, and the estimate targets the least-norm
    # preimage of A x
    dims = (3, 3, 3)
    rho = random_density(dims, rank=2, seed=21)
    y = forward_matrix(3, dims) @ invariant_values(rho, 3)
    assert np.max(np.abs(y.imag)) < 1e-12
    want = invert(3, dims, y.real)
    cfg = EstimatorConfig(n_unitaries=n_unitaries, order=3, shots=shots, master_seed=22)
    est = estimate_y(rho, cfg)
    # a state-constant invariant such as x0 has a rounding-level error bar
    sigma = np.maximum(est.std_error, 1e-12)
    assert np.max(np.abs(est.values - want) / sigma) < 5


# ---------------------------------------------------------------------------
# order 4, a library route
# ---------------------------------------------------------------------------

def test_order4_bipartite_forward_matrix_has_full_row_rank():
    m = forward_matrix(4, (4, 4))
    assert m.shape == (33, 43)
    assert np.linalg.matrix_rank(m) == 33
    rows = pattern_rows(4, (4, 4))
    pool = _pooling(4, 2)
    for comp in range(pool.shape[1]):
        members = rows[pool[:, comp] == 1]
        assert np.max(np.abs(members - m[comp])) <= 1e-12 * np.abs(rows).max()


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_order4_werner_class_averages_match_the_diagram_contractions(p):
    # x from one contraction per wiring pair, averaged per invariant; every
    # wiring of an invariant is the same contraction with the copies relabelled
    rho = werner_state(4, p)
    perms = permutations_of_order(4)
    wired = np.array([diagram_contract(rho, ta, tb) for ta in perms for tb in perms])
    ids = _invariants(4, 2)
    x = np.bincount(ids, wired) / np.bincount(ids)
    assert np.allclose(wired, x[ids], rtol=1e-12, atol=1e-15)
    m = forward_matrix(4, (4, 4))
    cfg = EstimatorConfig(n_unitaries=4096, order=4)
    est = estimate_y(rho, cfg)
    # A x_hat is the mean class average y_bar, so its error bars are those
    # of the per-unitary class averages
    sigma = std_error_of_mean(per_unitary_samples(rho, cfg))
    z = (m @ est.values - m @ x) / sigma
    assert np.max(np.abs(z)) < 5


def test_order4_three_party_forward_matrix_builds_in_bounded_memory():
    # the full Kronecker product would be 3375 x 13824 float64, 373 MB
    for f in (forward_matrix, _invariants, _pooling):
        f.cache_clear()
    tracemalloc.start()
    try:
        m = forward_matrix(4, (4, 4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert m.shape == (285, 681)
    assert np.linalg.matrix_rank(m) == 285


def _random_local_unitary(dims, seed):
    u = np.ones((1, 1))
    for l, d in enumerate(dims):
        u = np.kron(u, sample_haar_batch(d, 1, RngStream(seed, l))[0])
    return u


@settings(max_examples=20, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4)]),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_invariants_are_local_unitary_invariant(dims, rank, seed):
    rho = random_density(dims, rank=rank, seed=seed)
    u = _random_local_unitary(dims, seed)
    rotated = make_state(u @ rho.entries @ u.conj().T, dims)
    assert np.allclose(exact_x2(rotated).purities, exact_x2(rho).purities, atol=1e-12)
    if len(dims) == 2 and min(dims) >= 3:
        assert np.allclose(exact_x3(rotated).values, exact_x3(rho).values, atol=1e-12)
