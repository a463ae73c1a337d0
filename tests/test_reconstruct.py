import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    exact_y,
    invert_3_closed_form,
    measurable_x,
    pair_class_counts,
    purity_marginal_hamming,
)
from twirlkit.haar import RngStream, sample_haar_batch
from twirlkit.reconstruct import (
    ReconstructionError,
    XVector3,
    _pattern_rows,
    _pooling,
    exact_x2,
    exact_x3,
    forward_matrix,
    invert,
    subset_mask,
)
from twirlkit.states import (
    DimsProfile,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    random_density,
    trace_power,
    werner_state,
)
from twirlkit.weingarten import INVARIANT_ID, S3, SingularDimensionError, diagram_contract


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
    for i, ta in enumerate(S3):
        for j, tb in enumerate(S3):
            k = INVARIANT_ID[i][j]
            sums[k] += diagram_contract(rho, ta, tb)
            counts[k] += 1
    assert np.max(np.abs(sums / counts - np.array(x.values))) < 1e-10


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4), (3, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order3_round_trip_closed_form(dims, seed):
    rho = random_density(dims, rank=4, seed=seed)
    y = exact_y(rho, 3)
    for xr in (invert(3, dims, y), invert_3_closed_form(dims, y)):
        assert np.max(np.abs(xr - measurable_x(rho, 3))) < 1e-9


@pytest.mark.parametrize("dims", [(3, 3), (4, 3), (5, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_agrees_with_numeric_solve(dims, seed):
    rho = random_density(dims, rank=3, seed=seed)
    y = exact_y(rho, 3)
    a = invert_3_closed_form(dims, y)
    b = invert(3, dims, y)
    assert np.max(np.abs(a - b)) < 1e-9


def test_delta_recovers_x4_minus_x5():
    rho = random_density((3, 4), rank=5, seed=9)
    x = exact_x3(rho).values
    y = exact_y(rho, 3)
    d_a, d_b = 3, 4
    delta = (y[4] - y[5]) * d_a * (d_a**2 - 1) * d_b * (d_b**2 - 1)
    assert delta == pytest.approx(x[4] - x[5], abs=1e-12)


def test_forward_model_is_invertible_for_d_at_least_3():
    for dims in [(3, 3), (3, 6), (5, 5)]:
        # ten components on x0..x8 and x_S: the square system is full rank
        assert np.linalg.matrix_rank(forward_matrix(3, dims)) == 10


def test_order3_rejects_qubit_dimensions():
    with pytest.raises(SingularDimensionError):
        forward_matrix(3, (2, 3))
    with pytest.raises(SingularDimensionError):
        invert(3, (3, 2), np.zeros(10))


def test_noisy_y_still_inverts_consistently():
    # the reduced system is a bijection, so noisy data maps to an exact
    # preimage: forward(invert(y)) reproduces y to machine precision
    rho = random_density((3, 3), rank=2, seed=4)
    y = exact_y(rho, 3)
    y += 1e-3 * np.random.default_rng(0).normal(size=10) * np.abs(y)
    x = invert(3, (3, 3), y)
    back = forward_matrix(3, (3, 3)) @ x[:10]
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
    m = forward_matrix(3, (d_a, d_b))
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
    x10 = xs if order == 2 else xs[:, :10]  # x9 and x10 slots both hold x_S
    assert np.allclose(x10 @ m.T, ys, rtol=1e-12, atol=1e-12 * np.abs(ys).max())
    for y, x in zip(ys, xs):
        assert np.max(np.abs(invert(order, dims, y) - x)) <= 1e-13 * np.abs(xs).max()


@pytest.mark.parametrize(
    "order, dims", [(2, (2, 2)), (2, (3, 4)), (2, (2, 2, 3)), (3, (3, 3)), (3, (3, 4)), (3, (5, 5))]
)
def test_pooled_pattern_rows_agree_within_each_component(order, dims):
    rows = _pattern_rows(order, dims)
    pool = _pooling(order, len(dims))
    for comp in range(pool.shape[1]):
        members = rows[pool[:, comp] == 1]
        assert len(members) >= 1
        assert np.max(np.abs(members - members[0])) <= 1e-12 * np.abs(rows).max()


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
