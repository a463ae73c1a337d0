import itertools

import numpy as np
import pytest

from oracles import purity_loops
from twirlkit.checks import invariant_table, purity_oracle
from twirlkit.reconstruct import ReconstructionError
from twirlkit.states import random_density


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 2, 2, 2)])
def test_purity_oracle_matches_loop_oracle_on_every_subset(dims):
    rho = random_density(dims, rank=3, seed=11)
    subsets = [
        s for k in range(1, len(dims) + 1) for s in itertools.combinations(range(len(dims)), k)
    ]
    got = [purity_oracle(rho, s) for s in subsets]
    want = [purity_loops(rho, s) for s in subsets]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_invariant_table_rejects_a_residual_above_the_limit(monkeypatch):
    monkeypatch.setattr("twirlkit.checks.purity_oracle", lambda rho, subset: 0.0)
    with pytest.raises(ReconstructionError, match="exceeds 1e-08"):
        invariant_table(random_density((2, 2), rank=2, seed=0), 2)
