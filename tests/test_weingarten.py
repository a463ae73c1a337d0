import itertools
import warnings

import numpy as np
import pytest

from oracles import cycle_type, diagram_contract_loops, wg
from twirlkit.reconstruct import forward_matrix
from twirlkit.states import (
    DensityMatrix,
    DimsProfile,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
)
from twirlkit.twirl import EstimatorConfig, estimate_y
from twirlkit.weingarten import (
    INVARIANT_ID,
    Permutation,
    S2,
    S3,
    SingularDimensionError,
    diagram_contract,
    _partitions,
    gram,
    gram_matrix,
    permutations_of_order,
    s_matrix,
    w_matrix,
)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_compose_and_inverse():
    p = Permutation((1, 2, 0))
    assert p.compose(p.inverse()).images == (0, 1, 2)
    q = Permutation((1, 0, 2))
    # (p.q)(k) = p(q(k))
    assert p.compose(q).images == tuple(p(q(k)) for k in range(3))


@pytest.mark.parametrize(
    "images,ct",
    [((0, 1, 2), (1, 1, 1)), ((1, 0, 2), (2, 1)), ((2, 0, 1), (3,)), ((1, 0), (2,))],
)
def test_cycle_types(images, ct):
    assert cycle_type(Permutation(images)) == ct


def test_s3_contains_all_six_permutations():
    assert sorted(p.images for p in S3) == sorted(itertools.permutations(range(3)))


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_wg_order2_values(d):
    denom = d * (d * d - 1)
    assert wg((1, 1), d) == pytest.approx(d / denom)
    assert wg((2,), d) == pytest.approx(-1.0 / denom)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_wg_order3_values(d):
    denom = d * (d * d - 1) * (d * d - 4)
    assert wg((1, 1, 1), d) == pytest.approx((d * d - 2) / denom)
    assert wg((2, 1), d) == pytest.approx(-d / denom)
    assert wg((3,), d) == pytest.approx(2.0 / denom)


def test_wg_order3_singular_at_d2():
    with pytest.raises(SingularDimensionError):
        wg((3,), 2)


@pytest.mark.parametrize("n,d", [(2, d) for d in range(2, 9)] + [(3, d) for d in range(3, 9)])
def test_w_matrix_matches_the_closed_form_oracle(n, d):
    perms = permutations_of_order(n)
    want = np.array([[wg(s.compose(t.inverse()), d) for t in perms] for s in perms])
    np.testing.assert_allclose(w_matrix(n, d), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: w_matrix(3, 2),
        lambda: forward_matrix(3, (2, 3)),
        lambda: estimate_y(maximally_mixed((2, 2)), EstimatorConfig(n_unitaries=10), 3),
    ],
    ids=["w_matrix", "forward_matrix", "estimate_y"],
)
def test_a_singular_gram_matrix_raises_without_a_warning(call):
    # gram_matrix(3, 2) has rank 5 of 6, so order 3 has no qubit inverse
    assert np.linalg.matrix_rank(gram_matrix(3, 2)) == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularDimensionError, match="rank 5 of 6"):
            call()


@pytest.mark.parametrize("n,d", [(2, d) for d in range(2, 7)] + [(3, d) for d in range(3, 7)])
def test_gram_inverse_identity(n, d):
    # sum_tau Wg(sigma tau^-1, d) d^{#cycles(tau mu^-1)} = delta_{sigma mu}
    perms = permutations_of_order(n)
    w = w_matrix(n, d)
    g = np.array([[gram(t, m, d) for m in perms] for t in perms])
    assert np.max(np.abs(w @ g - np.eye(len(perms)))) < 1e-12


def test_s_matrix_order2():
    # equal outcomes survive both permutations, distinct only the identity
    assert np.array_equal(s_matrix(2), [[1, 1], [1, 0]])


def test_s_matrix_order3_row_sums():
    s = s_matrix(3)
    # all-equal keeps all 6 permutations, pairs keep 2, all-distinct keeps 1
    assert list(s.sum(axis=1)) == [6, 2, 2, 2, 1]
    pats = _partitions(3)
    assert pats[0] == (0, 0, 0)
    assert pats[4] == (0, 1, 2)


@pytest.mark.parametrize("seed", [0, 1])
def test_diagram_contract_order1_is_trace(seed):
    rho = random_density((2, 3), rank=3, seed=seed)
    e = Permutation((0,))
    assert diagram_contract(rho, e, e) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diagram_contract_order2_gives_marginal_purities(seed):
    from twirlkit.states import partial_trace, trace_power

    rho = random_density((2, 3), rank=4, seed=seed)
    e, swap = S2
    pur_a = trace_power(partial_trace(rho, [0]).entries, 2)
    pur_b = trace_power(partial_trace(rho, [1]).entries, 2)
    assert diagram_contract(rho, swap, e) == pytest.approx(pur_a, abs=1e-12)
    assert diagram_contract(rho, e, swap) == pytest.approx(pur_b, abs=1e-12)
    assert diagram_contract(rho, swap, swap) == pytest.approx(
        trace_power(rho.entries, 2), abs=1e-12
    )


def test_invariant_table_resolves_x9_vs_x10_on_bell_state():
    # matching 3-cycles contract to Tr rho^3 (=1 on a pure state), opposite
    # 3-cycles to Tr (rho^Gamma)^3 (=1/d^2 on the maximally entangled state)
    rho = make_state(max_entangled_projector(2), (2, 2))
    c3, c3i = S3[4], S3[5]
    assert diagram_contract(rho, c3, c3) == pytest.approx(1.0, abs=1e-12)
    assert diagram_contract(rho, c3, c3i) == pytest.approx(0.25, abs=1e-12)
    assert INVARIANT_ID[4][4] == 9 and INVARIANT_ID[4][5] == 10


def test_invariant_table_is_symmetric_under_simultaneous_inversion():
    # contracting with (tau_A^-1, tau_B^-1) gives the same invariant
    inv_index = {p.images: i for i, p in enumerate(S3)}
    for i, pa in enumerate(S3):
        for j, pb in enumerate(S3):
            ii = inv_index[pa.inverse().images]
            jj = inv_index[pb.inverse().images]
            assert INVARIANT_ID[i][j] == INVARIANT_ID[ii][jj]


@pytest.mark.parametrize("dims", [(3, 3), (3, 4)])
def test_diagram_contract_matches_loop_oracle_on_every_wiring(dims):
    rho = random_density(dims, rank=3, seed=7)
    wirings = [(p, q) for perms in ((Permutation((0,)),), S2, S3) for p in perms for q in perms]
    assert len(wirings) == 1 + 4 + 36
    got = [diagram_contract(rho, p, q) for p, q in wirings]
    want = [diagram_contract_loops(rho, p, q) for p, q in wirings]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_diagram_contract_rejects_a_complex_contraction():
    m = np.diag([0.5 + 0.5j, 0.5, 0.0, 0.0])  # not Hermitian, so its trace is complex
    e = Permutation((0,))
    with pytest.raises(ArithmeticError, match="imaginary part"):
        diagram_contract(DensityMatrix(DimsProfile((2, 2)), m), e, e)
    with pytest.raises(ArithmeticError, match="imaginary part"):
        diagram_contract_loops(DensityMatrix(DimsProfile((2, 2)), m), e, e)


def test_cached_permutation_tables_are_read_only():
    assert not w_matrix(3, 4).flags.writeable
    assert not gram_matrix(3, 4).flags.writeable


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", range(2, 7))
def test_gram_matrix_equals_the_gram_comprehension(n, d):
    perms = permutations_of_order(n)
    want = np.array([[gram(s, t, d) for t in perms] for s in perms])
    assert np.array_equal(gram_matrix(n, d), want)


@pytest.mark.parametrize("dims", [(4, 4), (3, 5)])
def test_diagram_contract_equals_a_freshly_planned_einsum(dims):
    # the stored path is the one optimize=True plans, so values are bit-equal
    rho = random_density(dims, rank=3, seed=2)
    t = rho.entries.reshape(dims * 2)
    for p in S3:
        for q in S3:
            operands = []
            for k in range(3):
                operands += [t, [p(k), 3 + q(k), k, 3 + k]]
            want = complex(np.einsum(*operands, [], optimize=True)).real
            assert diagram_contract(rho, p, q) == want
