import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import (
    compose,
    cycle_type,
    diagram_contract_loops,
    gram_entry,
    invariant_id,
    inverse,
    partial_trace,
    trace_power,
    wg,
    wiring_einsum,
)
from twirlkit.criteria import _table
from twirlkit.reconstruct import _pooling, forward_matrix
from twirlkit.states import (
    DensityMatrix,
    DimsProfile,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
)
from twirlkit.twirl import EstimatorConfig, _kernel_plan, _mobius_matrix, estimate_y
from twirlkit.weingarten import (
    SingularDimensionError,
    diagram_contract,
    _group_tables,
    _partitions,
    _wiring_plan,
    gram_matrix,
    permutations_of_order,
    s_matrix,
    w_matrix,
)


S3 = [tuple(p) for p in permutations_of_order(3).tolist()]


def test_permutation_rejects_non_bijection():
    rho = random_density((2, 2), rank=2, seed=0)
    with pytest.raises(ValueError, match="not a bijection"):
        diagram_contract(rho, (0, 0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="not a bijection"):
        diagram_contract(rho, (0, 1, 2), (0, 0, 1))
    with pytest.raises(ValueError, match="order mismatch"):
        diagram_contract(rho, (0, 1, 2), (1, 0))
    with pytest.raises(ValueError, match="one wiring per party"):
        diagram_contract(rho, (0, 1, 2), (0, 1, 2), (0, 1, 2))
    with pytest.raises(ValueError, match="one wiring per party"):
        diagram_contract(DensityMatrix(DimsProfile(()), np.ones((1, 1))))


def test_compose_and_inverse():
    # the group tables satisfy the group axioms and agree with composing
    # image rows: mul[s, t] is s after t
    for n in range(1, 6):
        perms = permutations_of_order(n).tolist()
        mul, inv, _ = _group_tables(n)
        g = len(perms)
        assert perms[0] == list(range(n))
        assert np.array_equal(mul[0], np.arange(g)) and np.array_equal(mul[:, 0], np.arange(g))
        assert np.all(mul[np.arange(g), inv] == 0) and np.all(mul[inv, np.arange(g)] == 0)
        assert np.array_equal(mul[mul, :], mul[:, mul])  # (s t) u == s (t u)
        for s in range(g):
            for t in range(g):
                assert tuple(perms[mul[s, t]]) == compose(perms[s], perms[t])
            assert tuple(perms[inv[s]]) == inverse(perms[s])


def test_group_table_cycle_counts_match_the_cycle_type_loop():
    for n in range(1, 6):
        perms = permutations_of_order(n).tolist()
        assert _group_tables(n)[2].tolist() == [len(cycle_type(p)) for p in perms]


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_permutations_beyond_s3_are_lexicographic_with_the_documented_s2_and_s3(n):
    perms = permutations_of_order(n)
    assert perms.shape == (np.prod(range(1, n + 1)), n)
    assert list(map(tuple, perms.tolist())) == list(itertools.permutations(range(n)))
    assert permutations_of_order(2).tolist() == [[0, 1], [1, 0]]
    # S3 too: {e, (23), (12), (123), (132), (13)} in cycle notation
    assert S3 == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@pytest.mark.parametrize(
    "images,ct",
    [((0, 1, 2), (1, 1, 1)), ((1, 0, 2), (2, 1)), ((2, 0, 1), (3,)), ((1, 0), (2,))],
)
def test_cycle_types(images, ct):
    assert cycle_type(images) == ct


def test_s3_contains_all_six_permutations():
    assert sorted(S3) == sorted(itertools.permutations(range(3)))


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
    perms = permutations_of_order(n).tolist()
    want = np.array([[wg(compose(s, inverse(t)), d) for t in perms] for s in perms])
    np.testing.assert_allclose(w_matrix(n, d), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: w_matrix(3, 2),
        lambda: forward_matrix(3, (2, 3)),
        lambda: estimate_y(maximally_mixed((2, 2)), EstimatorConfig(n_unitaries=10, order=3)),
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


def test_an_invertible_gram_matrix_takes_no_rank(monkeypatch):
    # the SVD behind matrix_rank runs only to word the singular-case error
    def no_rank(*args, **kwargs):
        raise AssertionError("matrix_rank called on an invertible Gram matrix")

    monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
    w_matrix.cache_clear()
    for n, d in [(2, 2), (3, 3), (3, 5)]:
        assert np.allclose(w_matrix(n, d) @ gram_matrix(n, d), np.eye(len(gram_matrix(n, d))))


@pytest.mark.parametrize(
    "n,d", [(2, d) for d in range(2, 7)] + [(3, d) for d in range(3, 7)] + [(4, 4), (4, 6)]
)
def test_gram_inverse_identity(n, d):
    # sum_tau Wg(sigma tau^-1, d) d^{#cycles(tau mu^-1)} = delta_{sigma mu}
    perms = permutations_of_order(n).tolist()
    w = w_matrix(n, d)
    g = np.array([[gram_entry(t, m, d) for m in perms] for t in perms])
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
    e = (0,)
    assert diagram_contract(rho, e, e) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diagram_contract_order2_gives_marginal_purities(seed):
    rho = random_density((2, 3), rank=4, seed=seed)
    e, swap = (0, 1), (1, 0)
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
    c3, c3i = (2, 0, 1), (1, 2, 0)
    assert diagram_contract(rho, c3, c3) == pytest.approx(1.0, abs=1e-12)
    assert diagram_contract(rho, c3, c3i) == pytest.approx(0.25, abs=1e-12)
    assert invariant_id(c3, c3) == 9 and invariant_id(c3, c3i) == 10


def test_invariant_table_is_symmetric_under_simultaneous_inversion():
    # contracting with (tau_A^-1, tau_B^-1) gives the same invariant
    for pa in S3:
        for pb in S3:
            assert invariant_id(pa, pb) == invariant_id(inverse(pa), inverse(pb))


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (2, 2), (2, 3)])
def test_diagram_contract_matches_loop_oracle_on_every_wiring(dims):
    rho = random_density(dims, rank=3, seed=7)
    wirings = [
        (p, q) for n in (1, 2, 3) for perms in [permutations_of_order(n).tolist()]
        for p in perms for q in perms
    ]
    assert len(wirings) == 1 + 4 + 36
    got = [diagram_contract(rho, p, q) for p, q in wirings]
    want = [diagram_contract_loops(rho, p, q) for p, q in wirings]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_diagram_contract_matches_loop_oracle_on_sampled_order4_wirings(dims):
    # the sample has fixed points (traced inside a copy) on either side, and
    # two wirings whose plans pair copies out of slot order and, at (2, 2),
    # join two step results
    perms = [tuple(p) for p in permutations_of_order(4).tolist()]
    wirings = [(p, q) for p in perms[::5] for q in perms[::7]] + [
        ((1, 0, 3, 2), (2, 3, 1, 0)),
        ((3, 2, 1, 0), (1, 3, 0, 2)),
    ]
    assert any(p[k] == k for p, _ in wirings for k in range(4))
    assert any(q[k] == k for _, q in wirings for k in range(4))
    rho = random_density(dims, rank=3, seed=8)
    got = [diagram_contract(rho, p, q) for p, q in wirings]
    want = [diagram_contract_loops(rho, p, q) for p, q in wirings]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _largest_step(taus, dims) -> int:
    # planned uncached, so sweeping every wiring leaves the process cache alone
    return max(math.prod(step[5]) for step in _wiring_plan.__wrapped__(taus, dims)[1])


@pytest.mark.parametrize("dims, bound", [((3, 4), 2), ((2, 3, 4), 8)])
def test_every_order4_plan_keeps_each_step_within_a_few_copies_of_the_state(dims, bound):
    perms = [tuple(p) for p in permutations_of_order(4).tolist()]
    worst = max(_largest_step(taus, dims) for taus in itertools.product(perms, repeat=len(dims)))
    assert worst <= bound * math.prod(dims) ** 2


def test_an_order4_wiring_once_planned_at_144_copies_of_the_state_stays_within_two():
    # numpy's greedy path took this wiring as one four-copy step, whose first
    # pair built a 144 D^2 intermediate
    dims = (2, 3, 4)
    assert _largest_step(((1, 2, 3, 0), (3, 2, 1, 0), (2, 3, 0, 1)), dims) <= 2 * 24**2


def test_diagram_contract_rejects_a_complex_contraction():
    m = np.diag([0.5 + 0.5j, 0.5, 0.0, 0.0])  # not Hermitian, so its trace is complex
    e = (0,)
    with pytest.raises(ArithmeticError, match="imaginary part"):
        diagram_contract(DensityMatrix(DimsProfile((2, 2)), m), e, e)
    with pytest.raises(ArithmeticError, match="imaginary part"):
        diagram_contract_loops(DensityMatrix(DimsProfile((2, 2)), m), e, e)


def test_cached_permutation_tables_are_read_only():
    # every call shares these arrays, so a write would corrupt later runs
    assert not w_matrix(3, 4).flags.writeable
    assert not gram_matrix(3, 4).flags.writeable
    assert not _pooling(3, 2).flags.writeable
    assert not _kernel_plan(3, (3, 3), False)[2].flags.writeable
    assert not _kernel_plan(3, (3, 3), False)[3].flags.writeable
    # the schedule and einsum labels are nested tuples, ints and None
    nested = [_kernel_plan(order, dims, shots)[:2] for order, dims, shots in
              [(2, (2, 2, 3), False), (3, (3, 3), True), (3, (2, 3, 4), False)]]
    while nested:
        part = nested.pop()
        assert part is None or type(part) in (int, tuple)
        if type(part) is tuple:
            nested.extend(part)
    assert not _mobius_matrix(3).flags.writeable
    for table in _table(2, 3)[2:] + _table(3, 2)[2:]:
        assert not table.flags.writeable
    for n in (1, 3, 4):
        assert not permutations_of_order(n).flags.writeable
        for table in _group_tables(n):
            assert not table.flags.writeable


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", range(2, 7))
def test_gram_matrix_equals_the_gram_comprehension(n, d):
    perms = permutations_of_order(n).tolist()
    want = np.array([[gram_entry(s, t, d) for t in perms] for s in perms])
    assert np.array_equal(gram_matrix(n, d), want)


@pytest.mark.parametrize("dims", [(4, 4), (3, 5), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_diagram_contract_equals_a_freshly_planned_einsum(dims):
    # the plan runs each pair of copies as a matmul in its own summation
    # order, so values agree with one einsum to rounding; beyond
    # two parties a wiring that is not conjugate to its inverse is complex
    # (six order-3 wirings per orbit, three conjugate pairs of orbits)
    rho = random_density(dims, rank=3, seed=2)
    for order in {2: (3,), 3: (2, 3), 4: (2,)}[len(dims)]:
        perms = permutations_of_order(order).tolist()
        n_complex = 0
        for taus in itertools.product(perms, repeat=len(dims)):
            want = wiring_einsum(rho, taus)
            if abs(want.imag) > 1e-12:
                n_complex += 1
                with pytest.raises(ArithmeticError, match="imaginary part"):
                    diagram_contract(rho, *taus)
            else:
                assert diagram_contract(rho, *taus) == pytest.approx(want.real, rel=1e-13)
        assert n_complex == (36 if order == 3 and len(dims) == 3 else 0)
