import concurrent.futures
import dataclasses
import gc
import itertools
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    born_kron,
    measurable_x,
    pair_class_counts,
    per_unitary_samples,
    std_error_of_mean,
)
from twirlkit.haar import RngStream, sample_haar_batch
from twirlkit.reconstruct import _pooling, exact_x2, exact_x3, invert
from twirlkit.states import (
    DimsProfile,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
    werner_state,
)
from twirlkit.twirl import (
    BLOCKS_AHEAD_PER_WORKER,
    BORN_SLICE_BYTES,
    DRAW_BLOCK,
    EstimatorConfig,
    _batched_probabilities,
    _block_arrays,
    _class_sums,
    _eigen_factor,
    _kernel_plan,
    _merge_moments,
    _thread_arrays,
    estimate_y,
)
from twirlkit.weingarten import SingularDimensionError, _partitions


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=0, order=2)
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=1, order=2, shots=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=1, order=2, workers=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_unitaries=1, order=2, master_seed=-1)
    # order 1 estimates x = [Tr rho]; below it there is no permutation group
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            EstimatorConfig(n_unitaries=1, order=order)
    assert EstimatorConfig(n_unitaries=1, order=1).order == 1
    # the shot count is an int64 for numpy's multinomial sampler
    assert EstimatorConfig(n_unitaries=1, order=2, shots=2**63 - 1).shots == 2**63 - 1
    with pytest.raises(ValueError, match="at most 2\\*\\*63 - 1"):
        EstimatorConfig(n_unitaries=1, order=2, shots=2**63)
    # every setting is an integer; a float refused here would fail later in
    # the run, or (workers) start a pool
    for name, value in [("n_unitaries", 2.5), ("order", 2.5), ("shots", 2.5),
                        ("master_seed", 1.5), ("workers", 1.5), ("shots", 4.0)]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EstimatorConfig(**{"n_unitaries": 1, "order": 2, name: value})
    cfg = EstimatorConfig(n_unitaries=np.int64(3), order=np.int32(2), shots=np.uint8(4),
                          master_seed=np.int64(5), workers=np.int16(2))
    assert (cfg.n_unitaries, cfg.order, cfg.shots, cfg.master_seed, cfg.workers) == (3, 2, 4, 5, 2)


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


def _drop_block_arrays():
    """Release this thread's block arrays, so a traced run allocates its own."""
    vars(_thread_arrays).clear()


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


@pytest.mark.parametrize("out", [np.empty((9, 4)).T, np.empty((8, 9))[::2]], ids=["F", "strided"])
def test_born_refuses_an_out_that_is_not_c_contiguous(out):
    # a flat view of such an out would be a copy, and the call would write
    # its probabilities there
    locals_ = _haar_locals((3, 3), 4, seed=7)
    with pytest.raises(ValueError, match="C-contiguous"):
        _batched_probabilities(_eigen_factor(werner_state(3, 0.5)), locals_, out=out)


@pytest.mark.parametrize(
    "rho",
    [werner_state(5, 0.3), random_density((2, 2, 3), rank=3, seed=2),
     random_density((2,) * 6, rank=64, seed=3)],
    ids=["werner-5", "2-2-3-rank-3", "6-qubits-rank-64"],
)
def test_a_warm_born_call_with_its_arrays_allocates_under_8_kib(rho):
    # every step writes into out or work, so what is left is numpy's small
    # per-call objects; rotation copies through iterator buffers took 50-67 KB
    dims, factor = rho.dims.dims, _eigen_factor(rho)
    # the rows of one Born slice of a block
    batch = min(DRAW_BLOCK, BORN_SLICE_BYTES // (2 * 16 * len(factor[2]) * rho.total))
    # each party's batch stored as (d, B, d), as the block arrays hold it
    locals_ = [np.ascontiguousarray(u.transpose(1, 0, 2)).transpose(1, 0, 2)
               for u in _haar_locals(dims, batch, seed=4)]
    n = batch * len(factor[2]) * rho.total
    work = (np.empty(n, dtype=complex), np.empty(n, dtype=complex))
    out = np.empty((batch, rho.total))
    _batched_probabilities(factor, locals_, out=out, work=work)
    tracemalloc.start()
    try:
        _batched_probabilities(factor, locals_, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**10
    assert np.max(np.abs(out - born_kron(rho, locals_))) <= 1e-14


def test_born_memory_stays_far_below_the_product_unitary():
    # the (512, 1024, 1024) product unitary alone would take 8 GiB
    dims = (2,) * 10
    factor = _eigen_factor(random_density(dims, rank=2, seed=0))
    locals_ = _haar_locals(dims, 512, seed=3)
    _drop_block_arrays()
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
        # the plan counts the index pairs of each class
        counts = _kernel_plan(2, dims, False)[3]
        assert np.array_equal(counts, pair_class_counts(DimsProfile(dims)))
        # a uniform p has the same product on every pair, so every class
        # average is that product
        t = math.prod(dims)
        sums = _class_sums(np.full((1,) + dims, 1.0 / t), order=2)[0]
        assert np.allclose(sums / counts, 1.0 / t**2, rtol=1e-13)


def test_kernel_plan_is_built_once_per_run():
    # one shot plan gives the class counts and is reused by every block
    _kernel_plan.cache_clear()
    cfg = EstimatorConfig(n_unitaries=5 * DRAW_BLOCK, order=3, shots=5, master_seed=4)
    estimate_y(werner_state(3, 0.5), cfg)
    info = _kernel_plan.cache_info()
    assert info.misses == 1
    assert info.hits + info.misses == 1 + 5


@pytest.mark.parametrize(
    "order, dims, zero_classes",
    [
        (2, (2, 2), 0), (2, (2, 3, 2), 0), (2, (2,) * 6, 0),
        (3, (3, 3), 0), (3, (5, 5), 0), (3, (3, 3, 3), 0), (3, (2, 3), 3),
        (4, (4, 4), 0), (4, (2, 3), 17), (4, (3, 3, 3), 85),
    ],
)
def test_kernel_plan_counts_are_the_kernel_on_ones(order, dims, zero_classes):
    # on all-ones input every product is 1, so each class sum counts its
    # index tuples; both are exact integers, so they agree bit for bit
    ones = _class_sums(np.ones((1,) + dims), order)[0]
    for shots in (False, True):
        counts = _kernel_plan(order, dims, shots)[3]
        assert counts.tobytes() == ones.tobytes()
        assert not counts.flags.writeable
    assert np.count_nonzero(ones == 0) == zero_classes


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
        _, moments, fold, _ = _kernel_plan(3, (5, 5), shots)
        assert len(moments) == count
        assert not any(_same_contraction(a, b) for a, b in itertools.combinations(moments, 2))
        assert np.array_equal(fold, np.round(fold))


def test_class_matrix_3_counts():
    for d_a, d_b in [(3, 3), (3, 4), (8, 8)]:
        # indexed in the hand layout, the derived one reversed
        counts = _class_sums(np.ones((1, d_a, d_b)), order=3)[0][::-1]
        assert counts.shape == (10,)
        assert counts.sum() == (d_a * d_b) ** 3
        assert counts[0] == d_a * (d_a - 1) * (d_a - 2) * d_b * (d_b - 1) * (d_b - 2)
        assert counts[9] == d_a * d_b
        # three pairs of rounds on A, two other pairs on B
        assert counts[4] == 2 * counts[5]


def _assert_unbiased(est, x, constant=(0,)):
    """z < 5 on the invariants that vary across unitaries.  An invariant
    constant on every unitary (x0 = 1, or a Werner marginal) has a rounding-
    noise error bar, so its estimate is held to the exact value instead."""
    constant = list(constant)
    varying = np.setdiff1d(np.arange(len(x)), constant)
    np.testing.assert_allclose(est.values[constant], x[constant], rtol=0, atol=1e-12)
    z = np.abs(est.values[varying] - x[varying]) / est.std_error[varying]
    assert np.max(z) < 5.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_analytic_estimate_y2_is_unbiased(dims):
    rho = random_density(dims, rank=2, seed=5)
    cfg = EstimatorConfig(n_unitaries=4000, order=2, master_seed=101)
    _assert_unbiased(estimate_y(rho, cfg), measurable_x(rho, 2))


def test_analytic_estimate_y3_is_unbiased():
    rho = random_density((3, 3), rank=2, seed=6)
    cfg = EstimatorConfig(n_unitaries=4000, order=3, master_seed=102)
    _assert_unbiased(estimate_y(rho, cfg), measurable_x(rho, 3))


def test_estimate_y3_rejects_qubits():
    rho = maximally_mixed((2, 2))
    with pytest.raises(SingularDimensionError):
        estimate_y(rho, EstimatorConfig(n_unitaries=10, order=3))


def test_reproducible_and_worker_independent():
    rho = random_density((2, 2), rank=3, seed=7)
    cfg1 = EstimatorConfig(n_unitaries=1500, order=2, shots=20, master_seed=9, workers=1)
    cfg4 = EstimatorConfig(n_unitaries=1500, order=2, shots=20, master_seed=9, workers=4)
    e1 = estimate_y(rho, cfg1)
    e4 = estimate_y(rho, cfg4)
    # one error bar per invariant, and no covariance matrix
    assert [f.name for f in dataclasses.fields(e1)] == ["values", "std_error"]
    assert e1.std_error.shape == e1.values.shape
    assert np.array_equal(e1.values, e4.values)
    assert np.array_equal(e1.std_error, e4.std_error)
    assert np.array_equal(e1.values, estimate_y(rho, cfg1).values)


def test_a_pool_gets_a_bounded_number_of_blocks_ahead_of_the_merge(monkeypatch):
    # Executor.map would submit all forty blocks before the first merge
    submitted, at_first_merge = [], []
    real_submit = concurrent.futures.ThreadPoolExecutor.submit

    def submit(pool, fn, *args):
        submitted.append(args)
        return real_submit(pool, fn, *args)

    def merge(parts):
        parts = iter(parts)
        first = next(parts)
        at_first_merge.append(len(submitted))
        return _merge_moments(itertools.chain([first], parts))

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", submit)
    monkeypatch.setattr("twirlkit.twirl._merge_moments", merge)
    monkeypatch.setattr("twirlkit.twirl.DRAW_BLOCK", 4)
    rho = random_density((2, 2), rank=3, seed=7)
    cfg = EstimatorConfig(n_unitaries=160, order=2, shots=20, master_seed=9, workers=2)
    got = estimate_y(rho, cfg)
    assert at_first_merge == [BLOCKS_AHEAD_PER_WORKER * cfg.workers]
    assert submitted == [(b,) for b in range(40)]
    want = estimate_y(rho, dataclasses.replace(cfg, workers=1))
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.std_error, want.std_error)


@pytest.mark.parametrize("order,shots", [(2, 0), (2, 6), (3, 0), (3, 6)])
def test_born_slices_leave_estimates_bit_identical(order, shots, monkeypatch):
    # rank 5 on (3, 4): r = 5 rows of W, and two blocks, the second partial
    rho = random_density((3, 4), rank=5, seed=17)
    row_bytes = 2 * 16 * len(_eigen_factor(rho)[2]) * rho.total
    seen = []

    def spy(factor, locals_, *args, **kwargs):
        seen.append(locals_[0].shape[0])
        return _batched_probabilities(factor, locals_, *args, **kwargs)

    monkeypatch.setattr("twirlkit.twirl._batched_probabilities", spy)
    results = []
    _drop_block_arrays()
    for rows in (DRAW_BLOCK, 1, 7):
        monkeypatch.setattr("twirlkit.twirl.BORN_SLICE_BYTES", rows * row_bytes)
        for workers in (1, 2):
            seen.clear()
            cfg = EstimatorConfig(n_unitaries=DRAW_BLOCK + 90, order=order, shots=shots,
                                  master_seed=5, workers=workers)
            results.append(estimate_y(rho, cfg))
            assert max(seen) == rows and sum(seen) == cfg.n_unitaries
    for est in results[1:]:
        assert np.array_equal(est.values, results[0].values)
        assert np.array_equal(est.std_error, results[0].std_error)


def test_born_slices_bound_the_peak_of_a_full_rank_block():
    # 7 qubits at full rank: Born on a whole 512-unitary block would hold two
    # 127 MiB complex arrays; the slices hold at most BORN_SLICE_BYTES, and
    # everything else in the block (probabilities, kernel, inversion, merge)
    # fits in the slack
    rho = random_density((2,) * 7, rank=2**7, seed=3)
    cfg = EstimatorConfig(n_unitaries=DRAW_BLOCK, order=2, master_seed=1)
    _drop_block_arrays()
    tracemalloc.start()
    try:
        estimate_y(rho, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BORN_SLICE_BYTES + 8 * 2**20


def test_block_arrays_carry_nothing_from_one_run_to_the_next():
    # runs at three shapes, interleaved in one thread, each equal to its own
    # first run; then the same sequence at two workers, one pool per run
    runs = {
        "A": (werner_state(5, 0.3),
              EstimatorConfig(n_unitaries=600, order=3, shots=100, master_seed=3)),
        "B": (random_density((3, 4), rank=5, seed=4),
              EstimatorConfig(n_unitaries=600, order=3, master_seed=4)),
        "C": (random_density((2, 2, 3), rank=2, seed=5),
              EstimatorConfig(n_unitaries=600, order=2, shots=7, master_seed=5)),
    }
    _drop_block_arrays()
    first = {}
    for workers in (1, 2):
        for name in "ABCAB":
            rho, cfg = runs[name]
            est = estimate_y(rho, dataclasses.replace(cfg, workers=workers))
            want = first.setdefault(name, est)
            assert np.array_equal(est.values, want.values), (name, workers)
            assert np.array_equal(est.std_error, want.std_error), (name, workers)


def test_pool_threads_release_their_block_arrays_when_the_pool_shuts_down(monkeypatch):
    pool_arrays = []

    def spy(*args):
        arrays = _block_arrays(*args)
        if threading.current_thread() is not threading.main_thread():
            pool_arrays.append(weakref.ref(arrays[2]))
        return arrays

    monkeypatch.setattr("twirlkit.twirl._block_arrays", spy)
    rho = random_density((2, 3), rank=2, seed=6)
    estimate_y(rho, EstimatorConfig(n_unitaries=4 * DRAW_BLOCK, order=2, workers=2))
    gc.collect()
    assert len(pool_arrays) == 4 and all(ref() is None for ref in pool_arrays)


def test_a_warm_sampling_loop_allocates_no_block_arrays():
    # every block array of a warm run is the thread's own, reused: what the
    # run still allocates is the multinomial counts and the kernel's and the
    # inversion's small arrays, well under half of the 1007 KiB that a warm
    # run traced when each block allocated its arrays afresh
    rho = werner_state(5, 0.3)
    cfg = EstimatorConfig(n_unitaries=2048, order=3, shots=100, master_seed=1)
    estimate_y(rho, cfg)
    tracemalloc.start()
    try:
        estimate_y(rho, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1007 * 2**10 / 2


def test_kernel_holds_each_marginal_only_until_its_last_use():
    # 8 qubits, one 512-row order-2 block: the 3^8 marginals of q held at
    # once would be about 26 MiB; a depth-first chain of them is about 2 MiB
    dims = (2,) * 8
    q = np.random.default_rng(8).dirichlet(np.ones(2**8), size=DRAW_BLOCK).reshape((-1,) + dims)
    schedule, moments, fold, _ = _kernel_plan(2, dims, False)  # planned once per run
    tracemalloc.start()
    try:
        sums = _class_sums(q, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    # bit-equal to the same einsums with every marginal held at once
    marginals = {}
    for keep, step, _, _ in schedule:
        marginals[keep] = marginals[step[0]].sum(axis=step[1]) if step else q
    m = np.array([
        np.einsum(*itertools.chain(*((marginals[x], labels) for x, labels in operands)), [0])
        for operands in moments
    ])
    assert np.array_equal(sums, m.T @ fold)


def test_different_seeds_differ():
    rho = random_density((2, 2), rank=3, seed=7)
    ya = estimate_y(rho, EstimatorConfig(n_unitaries=200, order=2, master_seed=1))
    yb = estimate_y(rho, EstimatorConfig(n_unitaries=200, order=2, master_seed=2))
    assert not np.array_equal(ya.values, yb.values)


def test_unbiased_shot_estimator_needs_enough_shots():
    # the U-statistics need order distinct shots; the rule is the config's,
    # so it fails before any state is read
    for order in (2, 3):
        with pytest.raises(ValueError, match=f"order-{order} estimation needs shots >= {order}"):
            EstimatorConfig(n_unitaries=10, order=order, shots=order - 1)
        assert EstimatorConfig(n_unitaries=10, order=order, shots=order).shots == order
        # exact probabilities have no such bound
        assert EstimatorConfig(n_unitaries=10, order=order).shots == 0


def test_the_config_has_two_shot_modes_and_five_settable_fields():
    # finite shots always mean the U-statistics: there is no plug-in field
    with pytest.raises(TypeError):
        EstimatorConfig(n_unitaries=10, order=2, shots=1, plug_in=True)
    assert [f.name for f in dataclasses.fields(EstimatorConfig)] == [
        "n_unitaries", "order", "shots", "master_seed", "workers"
    ]


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
    # all-distinct pattern on a qubit party has no index tuples; ``empty``
    # indexes the hand layout, the derived one reversed
    p = np.random.default_rng(3).random((4,) + dims)
    p /= p.sum(axis=(1, 2), keepdims=True)
    assert np.array_equal(_class_sums(p, 3)[:, ::-1][:, empty], np.zeros((4, len(empty))))


def test_plug_in_estimator_is_biased():
    p = np.array([[0.5, 0.5]])
    shots = 3
    exp = _exhaustive_expectation(p, shots, lambda c: _class_sums(c / shots, 2))
    assert np.max(np.abs(exp - _class_sums(p, 2)[0])) > 1e-3


def _oracle_component(idx):
    """y index of the index tuples idx[r][l] (round r, party l), by rule.

    The hand layout: at order 3, A-pattern major over {all-distinct, one
    pair, all-equal}, which is the derived layout of ``_pooling`` reversed.
    """
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


def _loop_terms(q, order, shots):
    """(idx, term) for every index tuple of one unitary's q, by explicit loops."""
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
        yield idx, value


def _oracle_class_sums(q, order, shots):
    """Class sums of one unitary's q in the hand layout of ``_oracle_component``."""
    sums = np.zeros(10 if order == 3 else 2 ** q.ndim)
    for idx, value in _loop_terms(q, order, shots):
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
    if order == 3:
        got = got[:, ::-1]  # the oracle's hand layout
    want = np.array([_oracle_class_sums(qi, order, shots) for qi in q])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dims,order", [((3, 4), 2), ((2, 2, 3), 2), ((3, 4), 3)])
def test_kernel_reads_integer_counts_as_float64(dims, order):
    # the estimator passes the multinomial counts as they come, int64
    rng = np.random.default_rng(29)
    counts = rng.multinomial(100, rng.dirichlet(np.ones(math.prod(dims)), size=4))
    counts = counts.reshape((4,) + dims)
    assert counts.dtype == np.int64
    got = _class_sums(counts, order, 100)
    want = _class_sums(counts.astype(float), order, 100)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order,n_parties", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_derived_grouping_equals_the_hand_rule(order, n_parties):
    # a tuple of exact patterns is its own index tuple: idx[r][l] = t[l][r]
    derived, hand = {}, {}
    for t, row in zip(itertools.product(_partitions(order), repeat=n_parties),
                      _pooling(order, n_parties)):
        c, c_hand = int(row.argmax()), _oracle_component(tuple(zip(*t)))
        derived.setdefault(c, set()).add(t)
        hand.setdefault(c_hand, set()).add(t)
        # numbered as the hand rule (the class bitmask) at order 2 and in
        # reverse at order 3
        assert c == (9 - c_hand if order == 3 else c_hand)
    assert {frozenset(g) for g in derived.values()} == {frozenset(g) for g in hand.values()}


def test_multipartite_order3_component_counts():
    for n_parties, count in ((3, 37), (4, 150)):
        pool = _pooling(3, n_parties)
        assert pool.shape == (5**n_parties, count)
        assert np.array_equal(pool.sum(axis=1), np.ones(5**n_parties))


def _round_orbit(idx):
    """The per-party pattern tuples of idx under every relabelling of its rounds."""
    def pattern(values):
        first = {}
        return tuple(first.setdefault(v, len(first)) for v in values)

    return frozenset(
        tuple(pattern([idx[r][l] for r in perm]) for l in range(len(idx[0])))
        for perm in itertools.permutations(range(len(idx)))
    )


@pytest.mark.parametrize("shots", [0, 4])
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2), (2, 2, 2)])
def test_three_party_order3_kernel_matches_explicit_loop(dims, shots):
    rng = np.random.default_rng(23)
    p = rng.dirichlet(np.ones(math.prod(dims)), size=2)
    q = (rng.multinomial(shots, p).astype(float) if shots else p).reshape((2,) + dims)
    tuples = list(itertools.product(_partitions(3), repeat=len(dims)))
    pool = _pooling(3, len(dims))
    got = _class_sums(q, 3, shots)
    want = np.zeros_like(got)
    for u, qu in enumerate(q):
        sums = {}
        for idx, value in _loop_terms(qu, 3, shots):
            key = _round_orbit(idx)
            sums[key] = sums.get(key, 0.0) + value
        # one member tuple of each orbit names its column; classes with no
        # index triples stay 0
        cols = [int(pool[tuples.index(next(iter(key)))].argmax()) for key in sums]
        assert len(set(cols)) == len(cols)
        want[u, cols] = list(sums.values())
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_shot_estimates_converge_to_analytic():
    rho = make_state(max_entangled_projector(2), (2, 2))
    cfg = EstimatorConfig(n_unitaries=3000, order=2, shots=200, master_seed=55)
    est = estimate_y(rho, cfg)
    _assert_unbiased(est, measurable_x(rho, 2))
    # and the reconstruction recovers purity 1 within a loose band
    assert est.values[-1] == pytest.approx(1.0, abs=0.05)


def test_maximally_mixed_y2_components_are_exact():
    # p is uniform for every unitary, so every unitary gives the exact purities
    rho = maximally_mixed((2, 2))
    est = estimate_y(rho, EstimatorConfig(n_unitaries=50, order=2, master_seed=3))
    assert np.allclose(est.values, measurable_x(rho, 2), atol=1e-14)


def test_maximally_mixed_y3_components_are_exact():
    for dims in [(3, 3), (8, 8)]:
        rho = maximally_mixed(dims)
        est = estimate_y(rho, EstimatorConfig(n_unitaries=50, order=3, master_seed=3))
        assert np.allclose(est.values, measurable_x(rho, 3), atol=1e-14)


def test_product_state_delta_statistic_vanishes():
    a = random_density((3,), rank=2, seed=1)
    b = random_density((3,), rank=2, seed=2)
    rho = make_state(np.kron(a.entries, b.entries), (3, 3))
    est = estimate_y(rho, EstimatorConfig(n_unitaries=3000, order=3, master_seed=21))
    # x4 - x5 = (y4 - y5) d_A(d_A^2-1) d_B(d_B^2-1), and the outcome
    # probabilities factorise on every product unitary, so the delta is 0 on
    # each unitary up to rounding
    assert abs(est.values[4] - est.values[5]) <= 1e-12


def test_entangled_state_delta_statistic_matches_exact():
    # on Werner (3, 3) the delta varies per unitary; its exact value is
    # x4 - x5 = -(8/9) p^2
    p = 0.9
    rho, cfg = werner_state(3, p), EstimatorConfig(n_unitaries=2000, order=3, master_seed=21)
    est = estimate_y(rho, cfg)
    g = np.zeros(len(est.values))
    g[4], g[5] = 1.0, -1.0
    # the delta's own per-unitary spread, from the same substreams
    sigma = std_error_of_mean(invert(3, (3, 3), per_unitary_samples(rho, cfg)) @ g)
    assert sigma > 0
    assert abs(g @ est.values + 8 / 9 * p**2) < 5 * sigma


def test_basis_permutation_leaves_y_expectation_unchanged():
    # conjugating one subsystem by a basis permutation is a local unitary,
    # so the twirl averages must agree statistically
    rho = random_density((2, 3), rank=3, seed=12)
    perm = np.eye(3)[[2, 0, 1]]
    u = np.kron(np.eye(2), perm)
    rho_p = make_state(u @ rho.entries @ u.T, (2, 3))
    ea = estimate_y(rho, EstimatorConfig(n_unitaries=5000, order=2, master_seed=31))
    eb = estimate_y(rho_p, EstimatorConfig(n_unitaries=5000, order=2, master_seed=32))
    # x0 = 1 on every unitary; the purities x1..x3 vary
    assert abs(ea.values[0] - eb.values[0]) <= 1e-12
    z = np.abs(ea.values[1:] - eb.values[1:]) / np.sqrt(ea.std_error[1:]**2 + eb.std_error[1:]**2)
    assert np.max(z) < 5.0


def test_std_error_matches_two_pass_reference():
    # two draw blocks of 512, rebuilt one unitary at a time from the same substreams
    rho = werner_state(5, 0.002)
    cfg = EstimatorConfig(n_unitaries=1024, order=3, master_seed=3)
    est = estimate_y(rho, cfg)
    samples = invert(3, (5, 5), per_unitary_samples(rho, cfg))
    ref = std_error_of_mean(samples)
    # the samples spread over ~1e-7 of their value, so ~9 digits of each
    # deviation are significant; the one-pass formula was off by up to 1%.
    # x0..x4 and x7 are 1 and the maximally mixed marginals on every
    # unitary, so both of their error bars are rounding noise
    varying = [5, 6, 8, 9, 10]
    np.testing.assert_allclose(est.std_error[varying], ref[varying], rtol=1e-8)
    np.testing.assert_allclose(
        est.std_error**2, ref**2, rtol=0, atol=1e-8 * np.max(ref**2)
    )


_COVERAGE_CASES = {
    "order3-werner-exact": (3, lambda: werner_state(3, 0.4), 0),
    "order3-werner-20-shots": (3, lambda: werner_state(3, 0.4), 20),
    "order2-random-3x4-exact": (2, lambda: random_density((3, 4), rank=2, seed=0), 0),
    "order2-random-2x2x3-10-shots": (2, lambda: random_density((2, 2, 3), rank=3, seed=0), 10),
}


@pytest.mark.parametrize("case", list(_COVERAGE_CASES))
def test_standard_errors_cover_the_exact_invariants(case):
    # 300 seeds of 200 unitaries.  Bands fixed from the binomial law at 4 sd
    # before any run: |x - exact| <= 2 sigma holds with p = 0.9545, so on
    # 286.4 +- 3.6 seeds, and <= 1 sigma with p = 0.6827, on 204.8 +- 8.1
    order, state, shots = _COVERAGE_CASES[case]
    rho = state()
    exact = exact_x3(rho).measurable if order == 3 else exact_x2(rho).purities
    runs = [
        estimate_y(rho, EstimatorConfig(n_unitaries=200, order=order, shots=shots, master_seed=s))
        for s in range(1000, 1300)
    ]
    values = np.array([e.values for e in runs])
    sigma = np.array([e.std_error for e in runs])
    # a state-constant invariant has a rounding-level sigma, which no band
    # describes
    live = (sigma > 1e-12).all(axis=0)
    assert live.any()
    z = np.abs(values[:, live] - exact[live]) / sigma[:, live]
    within_2 = np.count_nonzero(z <= 2, axis=0)
    within_1 = np.count_nonzero(z <= 1, axis=0)
    assert np.all(within_2 >= 272), within_2
    assert np.all((within_1 >= 172) & (within_1 <= 238)), within_1


@pytest.fixture(scope="module")
def werner3_exact_estimate():
    return estimate_y(werner_state(3, 0.5), EstimatorConfig(n_unitaries=700, order=3))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7])
def test_state_constant_invariants_have_no_rounding_noise_error_bar(werner3_exact_estimate, k):
    # x0 = 1 and the Werner marginals take one value on every unitary, so the
    # spread of the per-unitary invariants is only their last-digit rounding
    assert werner3_exact_estimate.std_error[k] <= 1e-14


def test_moment_merge_on_uneven_chunks():
    rng = np.random.default_rng(0)
    # a large offset makes the one-pass (sum y^2 - n mean^2) formula lose digits
    x = 1e6 + rng.normal(size=(1000, 3)) @ np.array([[1, 0, 0], [0.5, 1, 0], [0, -0.3, 2]])
    chunks = np.split(x, [1, 3, 503, 510, 810])  # sizes 1, 2, 500, 7, 300, 190
    parts = ((len(c), c.mean(axis=0), np.square(c - c.mean(axis=0)).sum(axis=0)) for c in chunks)
    n, mean, m2 = _merge_moments(parts)
    assert n == 1000 and m2.shape == (3,)
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-14)
    ref = np.var(x, axis=0, ddof=1)
    np.testing.assert_allclose(m2 / (n - 1), ref, rtol=1e-10, atol=1e-10 * np.max(ref))
