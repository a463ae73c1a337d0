import numpy as np
import pytest

from twirlkit.criteria import (
    CriterionReport,
    purity_criterion,
    third_order_criterion,
    werner_poly_2,
    werner_poly_3,
    werner_threshold_2,
    werner_threshold_3,
)
from twirlkit.reconstruct import exact_x2, exact_x3
from twirlkit.states import (
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
    werner_state,
)


def test_report_margin_sign_convention():
    r = CriterionReport(name="t", lhs=2.0, rhs=1.0)
    assert r.margin == -1.0 and r.detected
    r = CriterionReport(name="t", lhs=1.0, rhs=1.0)
    assert r.margin == 0.0 and not r.detected  # ties are never flagged


def test_purity_criterion_on_bell_state():
    rho = make_state(max_entangled_projector(2), (2, 2))
    report, violated = purity_criterion(exact_x2(rho).purities)
    assert report.detected
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx(0.5)
    assert set(violated) == {(0,), (1,)}


def test_purity_criterion_on_maximally_mixed():
    report, violated = purity_criterion(exact_x2(maximally_mixed((3, 3))).purities)
    assert not report.detected
    assert violated == []


@pytest.mark.parametrize("seed", range(20))
def test_purity_criterion_on_pure_product_states(seed):
    # a pure product state saturates every cut, Tr rho^2 = Tr rho_A^2 = 1,
    # so no cut is flagged: the margins are rounding ties of either sign
    a = random_density((3,), rank=1, seed=2 * seed)
    b = random_density((4,), rank=1, seed=2 * seed + 1)
    rho = make_state(np.kron(a.entries, b.entries), (3, 4))
    report, violated = purity_criterion(exact_x2(rho).purities)
    assert not report.detected
    assert violated == []


@pytest.mark.parametrize("n_entries", [1, 2, 3, 6])
def test_purity_criterion_needs_two_parties(n_entries):
    # one party (2 entries) has no cut, and other lengths are not 2^N
    with pytest.raises(ValueError):
        purity_criterion(np.ones(n_entries))


def test_purity_criterion_multipartite_cuts():
    # GHZ-like: every cut of a pure entangled state is violated
    d = 2
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    rho = make_state(np.outer(psi, psi.conj()), (d, d, d))
    report, violated = purity_criterion(exact_x2(rho).purities)
    assert report.detected
    assert len(violated) == 6  # all nonempty proper subsets


@pytest.mark.parametrize("p,expect", [(0.3, False), (0.44, False), (0.48, True), (0.7, True)])
def test_third_order_criterion_on_werner_d3(p, expect):
    # threshold is 10^(-1/3) ~ 0.4642
    rho = werner_state(3, p)
    assert third_order_criterion(exact_x3(rho).values).detected == expect


def test_third_order_lhs_is_the_measurable_combination():
    rho = random_density((3, 3), rank=2, seed=3)
    x = exact_x3(rho).values
    report = third_order_criterion(x)
    assert report.lhs == pytest.approx(x[9] + x[10], abs=1e-14)
    assert report.rhs == pytest.approx(2 * x[8], abs=1e-14)


def test_werner_poly_2_threshold_relation():
    for d in (2, 3, 5):
        t = werner_threshold_2(d)
        assert werner_poly_2(d, t) == pytest.approx(0.0, abs=1e-12)
        assert werner_poly_2(d, t + 1e-6) < 0
        assert werner_poly_2(d, t - 1e-6) > 0


def test_werner_threshold_2_values():
    assert werner_threshold_2(2) == pytest.approx(1 / np.sqrt(3), abs=1e-9)
    assert werner_threshold_2(3) == pytest.approx(0.5, abs=1e-15)


def test_werner_poly_3_at_d3_is_minus_20p3_plus_2():
    for p in (0.1, 0.4, 0.9):
        assert werner_poly_3(3, p) == pytest.approx(-20 * p**3 + 2, abs=1e-12)


@pytest.mark.parametrize("d", range(3, 11))
def test_werner_threshold_3_is_a_root_in_range(d):
    t = werner_threshold_3(d)
    assert 0 < t < 1
    assert werner_poly_3(d, t) == pytest.approx(0.0, abs=1e-9)


def test_werner_threshold_3_d3_closed_form():
    assert werner_threshold_3(3) == pytest.approx(10 ** (-1 / 3), abs=1e-9)


def test_order3_beats_order2_for_large_d():
    for d in (4, 6, 10):
        assert werner_threshold_3(d) < werner_threshold_2(d)


def bell_diagonal_reports(lambdas) -> tuple[CriterionReport, CriterionReport]:
    """NPT and moment-criterion reports for a Bell-diagonal spectrum.

    NPT: entangled iff max(lambda) > 1/2 (partial-transpose eigenvalues are
    1/2 - lambda_i).  The third-order trace criterion reduces on this family
    to sum(lambda^2) > 1/2, the same ball as the global-purity test.
    """
    lam = [float(v) for v in lambdas]
    npt = CriterionReport(name="bell-diagonal-npt", lhs=max(lam), rhs=0.5)
    moment = CriterionReport(
        name="bell-diagonal-third-order", lhs=sum(v * v for v in lam), rhs=0.5
    )
    return npt, moment


def test_bell_diagonal_reports():
    npt, mom = bell_diagonal_reports((0.7, 0.1, 0.1, 0.1))
    assert npt.detected and mom.detected
    npt, mom = bell_diagonal_reports((0.25, 0.25, 0.25, 0.25))
    assert not npt.detected and not mom.detected
    # NPT strictly stronger: detected by NPT but not by the moment ball
    npt, mom = bell_diagonal_reports((0.52, 0.16, 0.16, 0.16))
    assert npt.detected and not mom.detected
