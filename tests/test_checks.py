import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import invariant_id, purity_loops, subset_mask
from twirlkit import weingarten
from twirlkit.checks import _X3_WIRINGS, invariant_table, x2_oracle, x3_oracle
from twirlkit.reconstruct import ReconstructionError, exact_x2, exact_x3
from twirlkit.states import DimensionMismatchError, random_density


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 2, 2, 2), (3, 4), (2, 3, 2)])
def test_purity_oracle_matches_loop_oracle_on_every_subset(dims):
    rho = random_density(dims, rank=3, seed=11)
    subsets = [
        s for k in range(1, len(dims) + 1) for s in itertools.combinations(range(len(dims)), k)
    ]
    purities = x2_oracle(rho)
    got = [purities[subset_mask(s, len(dims))] for s in subsets]
    want = [purity_loops(rho, s) for s in subsets]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert purities[0] == 1.0


def test_invariant_table_rejects_a_residual_above_the_limit(monkeypatch):
    monkeypatch.setattr("twirlkit.checks.x2_oracle", lambda rho: np.zeros(2**rho.dims.n_parties))
    with pytest.raises(ReconstructionError, match="exceeds 1e-08"):
        invariant_table(random_density((2, 2), rank=2, seed=0), 2)


def test_invariant_table_rejects_a_nan_residual(monkeypatch):
    # a NaN after finite residuals, which a Python max() would pass over
    def oracle(rho):
        x = exact_x2(rho).purities.copy()
        x[-1] = np.nan
        return x

    monkeypatch.setattr("twirlkit.checks.x2_oracle", oracle)
    with pytest.raises(ReconstructionError, match="nan"):
        invariant_table(random_density((2, 2), rank=2, seed=0), 2)


def test_purity_oracle_agrees_with_exact_x2_in_bounded_memory_at_ten_qubits():
    # the state itself is 16 MiB; the basis expansion holds about two copies
    rho = random_density((2,) * 10, rank=2, seed=5)
    tracemalloc.start()
    try:
        got = x2_oracle(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(got, exact_x2(rho).purities, rtol=1e-12)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4)])
def test_every_wiring_contracts_to_its_class_representative(dims):
    ids = [invariant_id(ta, tb) for ta, tb in _X3_WIRINGS]
    assert ids == list(range(11))
    rho = random_density(dims, rank=3, seed=17)
    for ta, tb in itertools.product(weingarten.permutations_of_order(3), repeat=2):
        rep_a, rep_b = _X3_WIRINGS[invariant_id(ta, tb)]
        assert weingarten.diagram_contract(rho, ta, tb) == pytest.approx(
            weingarten.diagram_contract(rho, rep_a, rep_b), rel=1e-12
        )


def test_x3_oracle_plans_each_wiring_once_per_shape():
    weingarten._wiring_plan.cache_clear()
    rho = random_density((3, 4), rank=3, seed=4)
    first = x3_oracle(rho)
    assert np.array_equal(x3_oracle(rho), first)
    info = weingarten._wiring_plan.cache_info()
    assert (info.misses, info.hits) == (11, 11)


def test_x3_oracle_holds_at_most_four_copies_of_the_state():
    # planning included: every intermediate is at most the D^2 entries of rho,
    # and a step holds its two transposed operands and its product
    rho = random_density((12, 12), rank=3, seed=6)
    weingarten._wiring_plan.cache_clear()
    tracemalloc.start()
    try:
        got = x3_oracle(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * rho.total**2
    np.testing.assert_allclose(got, exact_x3(rho).values, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 4])
def test_invariant_table_refuses_an_order_without_an_oracle(order):
    with pytest.raises(DimensionMismatchError, match=f"order {order}"):
        invariant_table(random_density((3, 3), rank=3, seed=0), order)
