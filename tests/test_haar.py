import numpy as np
import pytest

from oracles import haar_from_ginibre
from twirlkit.haar import RngStream, sample_haar_batch


class _PreparedDraws:
    """Stands in for a Generator: hands out the given normal draws in order."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def normal(self, size):
        draw = self._draws.pop(0)
        assert draw.shape == size
        return draw


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_samples_are_unitary(d):
    u = sample_haar_batch(d, 50, RngStream(master_seed=1))
    prods = np.einsum("bij,bkj->bik", u, u.conj())
    assert np.allclose(prods, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_batch_matches_phase_fixed_qr_of_the_same_draws(d):
    stream = RngStream(master_seed=21, stream_index=d)
    rng = stream.generator()
    z = rng.normal(size=(200, d, d)) + 1j * rng.normal(size=(200, d, d))
    u = sample_haar_batch(d, 200, stream)
    assert u.shape == (200, d, d) and u.flags.c_contiguous
    np.testing.assert_allclose(u, haar_from_ginibre(z), rtol=0, atol=1e-13)


def test_second_pass_keeps_nearly_dependent_columns_orthonormal():
    # with one pass, columns 1 and 3 of these draws end up to 2e-6 off orthogonal
    d, n = 5, 200
    rng = np.random.default_rng(33)
    re, im, noise = (rng.normal(size=(n, d, d)) for _ in range(3))
    re[:, :, 3] = re[:, :, 1] + 1e-9 * noise[:, :, 0]
    im[:, :, 3] = im[:, :, 1] + 1e-9 * noise[:, :, 1]
    u = sample_haar_batch(d, n, _PreparedDraws(re, im))
    prods = np.einsum("bji,bjk->bik", u.conj(), u)
    assert np.max(np.abs(prods - np.eye(d))) < 1e-12


def test_streams_are_reproducible_and_independent():
    a = sample_haar_batch(3, 1, RngStream(master_seed=5, stream_index=0))[0]
    b = sample_haar_batch(3, 1, RngStream(master_seed=5, stream_index=0))[0]
    c = sample_haar_batch(3, 1, RngStream(master_seed=5, stream_index=1))[0]
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_batch_from_stream_equals_its_generator_and_consecutive_batches_differ():
    from_stream = sample_haar_batch(2, 3, RngStream(master_seed=9))
    gen = RngStream(master_seed=9).generator()
    first = sample_haar_batch(2, 3, gen)
    second = sample_haar_batch(2, 3, gen)
    assert np.array_equal(from_stream, first)
    assert not np.allclose(first, second)


@pytest.mark.parametrize("d", [2, 3])
def test_first_moment_vanishes(d):
    # E[U] = 0 under the Haar measure
    n = 100_000
    u = sample_haar_batch(d, n, RngStream(master_seed=77))
    mean = u.mean(axis=0)
    # entries are averages of n samples of variance 1/d
    bound = 5.0 / np.sqrt(n * d)
    assert np.max(np.abs(mean)) < bound


@pytest.mark.parametrize("d", [2, 3])
def test_second_moment_is_one_over_d(d):
    # E[|U_ij|^2] = 1/d for every entry
    n = 100_000
    u = sample_haar_batch(d, n, RngStream(master_seed=78))
    second = (np.abs(u) ** 2).mean(axis=0)
    assert np.max(np.abs(second - 1.0 / d)) < 5.0 / np.sqrt(n)


def test_pair_correlator_matches_weingarten_value():
    # E[U_11 U_22 U_12* U_21*] = Wg((12), d) = -1/(d(d^2-1))
    d, n = 2, 200_000
    u = sample_haar_batch(d, n, RngStream(master_seed=79))
    corr = (u[:, 0, 0] * u[:, 1, 1] * u[:, 0, 1].conj() * u[:, 1, 0].conj()).mean()
    assert corr.real == pytest.approx(-1.0 / (d * (d * d - 1)), abs=5.0 / np.sqrt(n))
    assert abs(corr.imag) < 5.0 / np.sqrt(n)


def test_phase_fix_kills_trace_bias_of_raw_qr():
    # E[Tr U] = 0 under the Haar measure; raw numpy QR is heavily biased
    d, n = 2, 50_000
    u = sample_haar_batch(d, n, RngStream(master_seed=80))
    assert abs(np.einsum("bii->b", u).mean()) < 10.0 / np.sqrt(n)

    rng = RngStream(master_seed=80).generator()
    z = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    q, _ = np.linalg.qr(z)
    assert abs(np.einsum("bii->b", q).mean()) > 0.5


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        sample_haar_batch(1, 1, RngStream(master_seed=0))
