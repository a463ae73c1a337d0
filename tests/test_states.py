import numpy as np
import pytest

from oracles import partial_trace, partial_transpose, trace_power
from twirlkit.criteria import werner_threshold_2, werner_threshold_3
from twirlkit.reconstruct import exact_x3
from twirlkit.states import (
    BellDiagonalSpectrum,
    DimensionMismatchError,
    DimsProfile,
    HermiticityError,
    PositivityError,
    TraceError,
    bell_diagonal,
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
    werner_state,
)
from twirlkit.weingarten import permutations_of_order


def test_make_state_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        make_state(np.ones((2, 3)), (2,))


def test_make_state_rejects_wrong_total_dimension():
    with pytest.raises(DimensionMismatchError):
        make_state(np.eye(4) / 4, (2, 3))


def test_make_state_rejects_non_hermitian():
    m = np.eye(2) / 2
    m = m.astype(complex)
    m[0, 1] = 1e-6
    with pytest.raises(HermiticityError):
        make_state(m, (2,))


def test_make_state_rejects_bad_trace():
    with pytest.raises(TraceError):
        make_state(np.eye(2), (2,))


def test_make_state_rejects_negative_eigenvalue():
    with pytest.raises(PositivityError):
        make_state(np.diag([1.5, -0.5]), (2,))


def test_make_state_keeps_its_own_read_only_copy():
    # a later write to the caller's array (complex, so no dtype conversion
    # copies it) or nested list leaves the state as it was
    for raw in (np.eye(2, dtype=complex) / 2, [[0.5, 0.0], [0.0, 0.5]]):
        rho = make_state(raw, (2,))
        assert not rho.entries.flags.writeable
        raw[0][0] = 9.0
        assert np.array_equal(rho.entries, np.eye(2) / 2)


def test_make_state_takes_a_dims_profile_or_any_iterable_of_ints():
    for dims in [DimsProfile((2, 3)), (2, 3), [2, 3], iter((2, 3))]:
        assert make_state(np.eye(6) / 6, dims).dims == DimsProfile((2, 3))


def test_dims_profile_rejects_dimension_one():
    with pytest.raises(DimensionMismatchError):
        DimsProfile((2, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DimsProfile((2.5, 3)),
        lambda: DimsProfile((3.0, 2)),
        lambda: DimsProfile((np.float64(3), 2)),
        lambda: DimsProfile(("3", "4")),
        lambda: maximally_mixed((2.5, 3)),
        lambda: random_density((2.7, 2), rank=2, seed=0),
    ],
    ids=["float", "integral-float", "numpy-float", "strings", "maximally-mixed", "random"],
)
def test_a_dimension_that_is_not_an_integer_is_refused(build):
    with pytest.raises(DimensionMismatchError, match="is not an integer"):
        build()


def test_dims_profile_takes_numpy_integers_as_ints():
    dims = DimsProfile((np.int64(3), np.int32(2), np.uint8(4))).dims
    assert dims == (3, 2, 4) and all(type(d) is int for d in dims)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: exact_x3(random_density((2, 2, 2), rank=2, seed=0)), "bipartite"),
        (lambda: werner_threshold_2(1), "d must be >= 2"),
        (lambda: werner_threshold_3(2), "needs d >= 3"),
        (lambda: BellDiagonalSpectrum((0.5, 0.25, 0.25)), "exactly 4 entries"),
        (lambda: BellDiagonalSpectrum((0.2,) * 5), "exactly 4 entries"),
        (lambda: permutations_of_order(0), "unsupported order n=0"),
    ],
    ids=["exact-x3-three-parties", "werner-threshold-2-d1", "werner-threshold-3-d2",
         "bell-three-weights", "bell-five-weights", "permutations-of-order-0"],
)
def test_a_library_guard_refuses_input_outside_its_domain(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("seed", range(5))
def test_partial_trace_marginals_are_states(seed):
    rho = random_density((2, 3, 2), rank=4, seed=seed)
    for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
        marg = partial_trace(rho, keep)
        assert marg.dims.dims == tuple(rho.dims[k] for k in keep)
        assert abs(np.trace(marg.entries) - 1.0) < 1e-12


def test_partial_trace_empty_keep_is_scalar_one():
    rho = maximally_mixed((2, 2))
    marg = partial_trace(rho, [])
    assert marg.entries.shape == (1, 1)
    assert marg.entries[0, 0] == pytest.approx(1.0)


def test_partial_trace_of_product_state():
    a = random_density((2,), rank=2, seed=1)
    b = random_density((3,), rank=3, seed=2)
    rho = make_state(np.kron(a.entries, b.entries), (2, 3))
    assert np.allclose(partial_trace(rho, [0]).entries, a.entries, atol=1e-12)
    assert np.allclose(partial_trace(rho, [1]).entries, b.entries, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_partial_transpose_is_involutive_and_trace_preserving(seed):
    rho = random_density((2, 3), rank=3, seed=seed)
    pt = partial_transpose(rho, 1)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.allclose(pt, pt.conj().T, atol=1e-12)
    # on a product state the PT stays PSD; transposing the other subsystem
    # then gives the full transpose
    a = random_density((2,), rank=2, seed=seed)
    b = random_density((3,), rank=2, seed=seed + 10)
    prod = make_state(np.kron(a.entries, b.entries), (2, 3))
    once = make_state(partial_transpose(prod, 1), prod.dims)
    both = partial_transpose(once, 0)
    assert np.allclose(both, prod.entries.T, atol=1e-12)


def test_partial_transpose_flips_bell_state_sign():
    rho = make_state(max_entangled_projector(2), (2, 2))
    lo = np.linalg.eigvalsh(partial_transpose(rho, 1)).min()
    assert lo == pytest.approx(-0.5, abs=1e-12)


def test_trace_power_matches_eigenvalues():
    rho = random_density((3,), rank=3, seed=7)
    eigs = np.linalg.eigvalsh(rho.entries)
    for k in (1, 2, 3, 4):
        assert trace_power(rho.entries, k) == pytest.approx(np.sum(eigs**k), abs=1e-12)


@pytest.mark.parametrize("d,p", [(2, 0.0), (2, 1.0), (3, 0.5), (4, 0.25)])
def test_werner_state_purity(d, p):
    rho = werner_state(d, p)
    # Tr rho^2 = p^2 + 2p(1-p)/d^2 + (1-p)^2/d^2
    expect = p * p + 2 * p * (1 - p) / d**2 + (1 - p) ** 2 / d**2
    assert trace_power(rho.entries, 2) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("d", [1, 0, -3])
def test_werner_rejects_d_below_two(d):
    with pytest.raises(DimensionMismatchError, match=f"local dimension {d} < 2"):
        werner_state(d, 0.5)


def test_werner_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        werner_state(3, 1.5)


def test_bell_diagonal_spectrum_validation():
    with pytest.raises(ValueError):
        BellDiagonalSpectrum((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        BellDiagonalSpectrum((0.5, 0.2, 0.2, 0.2))


def test_bell_diagonal_eigenvalues_are_the_spectrum():
    lam = (0.4, 0.3, 0.2, 0.1)
    rho = bell_diagonal(BellDiagonalSpectrum(lam))
    eigs = sorted(np.linalg.eigvalsh(rho.entries), reverse=True)
    assert np.allclose(eigs, sorted(lam, reverse=True), atol=1e-12)


def test_bell_diagonal_partial_transpose_spectrum():
    lam = (0.7, 0.1, 0.1, 0.1)
    rho = bell_diagonal(BellDiagonalSpectrum(lam))
    eigs = sorted(np.linalg.eigvalsh(partial_transpose(rho, 1)))
    assert eigs[0] == pytest.approx(0.5 - max(lam), abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 6])
def test_random_density_rank(rank):
    rho = random_density((2, 3), rank=rank, seed=3)
    eigs = np.linalg.eigvalsh(rho.entries)
    assert np.sum(eigs > 1e-10) == rank


def test_random_density_is_seeded():
    a = random_density((3, 3), rank=2, seed=42)
    b = random_density((3, 3), rank=2, seed=42)
    assert np.array_equal(a.entries, b.entries)
