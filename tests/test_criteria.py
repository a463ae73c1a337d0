import numpy as np
import pytest

from oracles import purity_criterion, third_order_criterion
from twirlkit.criteria import (
    TIE_TOL,
    CriterionReport,
    _table,
    criterion,
    werner_poly_2,
    werner_poly_3,
    werner_threshold_2,
    werner_threshold_3,
)
from twirlkit.reconstruct import _inverse, exact_x2, exact_x3, forward_matrix
from twirlkit.states import (
    make_state,
    max_entangled_projector,
    maximally_mixed,
    random_density,
    werner_state,
)
from twirlkit.twirl import EstimatorConfig, estimate_y


def violated(margins, n_parties):
    """The cuts of the order-2 rows flagged below -TIE_TOL, as party tuples;
    row k is the subset bitmask k + 1, party 0 the most significant bit."""
    return [
        tuple(l for l in range(n_parties) if mask >> (n_parties - 1 - l) & 1)
        for mask in np.flatnonzero(margins < -TIE_TOL) + 1
    ]


def test_report_margin_sign_convention():
    r = CriterionReport(name="t", lhs=2.0, rhs=1.0)
    assert r.margin == -1.0 and r.detected
    r = CriterionReport(name="t", lhs=1.0, rhs=1.0)
    assert r.margin == 0.0 and not r.detected  # ties are never flagged


def test_purity_criterion_on_bell_state():
    rho = make_state(max_entangled_projector(2), (2, 2))
    report, margins = criterion(2, 2, exact_x2(rho).purities)
    assert report.detected
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx(0.5)
    assert set(violated(margins, 2)) == {(0,), (1,)}


def test_purity_criterion_on_maximally_mixed():
    report, margins = criterion(2, 2, exact_x2(maximally_mixed((3, 3))).purities)
    assert not report.detected
    assert violated(margins, 2) == []


@pytest.mark.parametrize("seed", range(20))
def test_purity_criterion_on_pure_product_states(seed):
    # a pure product state saturates every cut, Tr rho^2 = Tr rho_A^2 = 1,
    # so no cut is flagged: the margins are rounding ties of either sign
    a = random_density((3,), rank=1, seed=2 * seed)
    b = random_density((4,), rank=1, seed=2 * seed + 1)
    rho = make_state(np.kron(a.entries, b.entries), (3, 4))
    report, margins = criterion(2, 2, exact_x2(rho).purities)
    assert not report.detected
    assert violated(margins, 2) == []


@pytest.mark.parametrize("n_entries", [1, 2, 3, 6])
def test_purity_criterion_needs_two_parties(n_entries):
    # one party has no cut, and no length here is the 2^N of N >= 2 parties
    for n_parties in range(4):
        with pytest.raises(ValueError):
            criterion(2, n_parties, np.ones(n_entries))


@pytest.mark.parametrize(
    "order,n_parties,n_entries",
    [(3, 2, 10), (3, 2, 12), (3, 3, 49), (3, 1, 2), (4, 2, 43), (1, 2, 1)],
)
def test_criterion_refuses_other_shapes(order, n_parties, n_entries):
    # order 3 reads the eleven two-party invariants; no other order has rows
    with pytest.raises(ValueError):
        criterion(order, n_parties, np.ones(n_entries))


def test_purity_criterion_multipartite_cuts():
    # GHZ-like: every cut of a pure entangled state is violated
    d = 2
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    rho = make_state(np.outer(psi, psi.conj()), (d, d, d))
    report, margins = criterion(2, 3, exact_x2(rho).purities)
    assert report.detected
    assert len(violated(margins, 3)) == 6  # all nonempty proper subsets


@pytest.mark.parametrize("p,expect", [(0.3, False), (0.44, False), (0.48, True), (0.7, True)])
def test_third_order_criterion_on_werner_d3(p, expect):
    # threshold is 10^(-1/3) ~ 0.4642
    rho = werner_state(3, p)
    assert criterion(3, 2, exact_x3(rho).values)[0].detected == expect


def test_third_order_lhs_is_the_measurable_combination():
    rho = random_density((3, 3), rank=2, seed=3)
    x = exact_x3(rho).values
    report, _ = criterion(3, 2, x)
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


# ---------------------------------------------------------------------------
# the wiring rows: their ids, the sweep's closed forms, measurability, oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_parties", [2, 3, 4, 5])
def test_purity_rows_read_each_cut_against_the_global_purity(n_parties):
    _, n_x, ids, coefs = _table(2, n_parties)
    full = 2**n_parties - 1
    assert n_x == 2**n_parties
    assert ids.tolist() == [[mask, full] for mask in range(1, full)]
    assert np.all(coefs == [1.0, -1.0])


def test_third_order_row_reads_x8_x9_x10():
    _, n_x, ids, coefs = _table(3, 2)
    assert n_x == 11
    assert ids.tolist() == [[8, 9, 10]]
    assert coefs.tolist() == [2.0, -1.0, -1.0]


P_GRID = np.linspace(0.0, 1.0, 41)


@pytest.mark.parametrize("d", range(2, 11))
def test_werner_polynomials_are_the_derived_margins_scaled(d):
    # werner-sweep prints the closed forms; on exact invariants of the
    # Werner state the derived rows give them times (d - 1)/d^2 and
    # (d - 1)/d^4, so both share their sign and their root
    for p in P_GRID:
        rho = werner_state(d, p)
        report, margins = criterion(2, 2, exact_x2(rho).purities)
        assert report.margin == margins.min()
        assert report.margin == pytest.approx((d - 1) / d**2 * werner_poly_2(d, p), abs=1e-13)
        if d >= 3:
            report, _ = criterion(3, 2, exact_x3(rho).values)
            assert report.margin == pytest.approx(
                (d - 1) / d**4 * werner_poly_3(d, p), abs=1e-13
            )
    thresholds = [(2, werner_threshold_2(d), lambda rho: exact_x2(rho).purities)]
    if d >= 3:
        thresholds.append((3, werner_threshold_3(d), lambda rho: exact_x3(rho).values))
    for order, t, exact in thresholds:
        below, _ = criterion(order, 2, exact(werner_state(d, t - 1e-6)))
        above, _ = criterion(order, 2, exact(werner_state(d, t + 1e-6)))
        assert below.margin > 0 > above.margin
        assert above.detected and not below.detected


def _row_space_residual(order, dims, g) -> float:
    """max |g - (g M^T) A|: zero when each row of g lies in row(A), so that
    g . x is fixed by the twirl averages A x alone."""
    return float(np.max(np.abs(g - (g @ _inverse(order, dims).T) @ forward_matrix(order, dims))))


def _dense_rows(order, n_parties) -> np.ndarray:
    _, n_x, ids, coefs = _table(order, n_parties)
    g = np.zeros((len(ids), n_x))
    np.add.at(g, (np.arange(len(ids))[:, None], ids), coefs)
    return g


@pytest.mark.parametrize(
    "order,dims",
    [(3, (3, 3)), (3, (3, 4)), (3, (4, 5)),
     (2, (2, 2)), (2, (3, 4)), (2, (2, 2, 3)), (2, (2, 2, 2, 2))],
)
def test_every_criterion_row_is_measurable(order, dims):
    assert _row_space_residual(order, dims, _dense_rows(order, len(dims))) <= 1e-12


def test_row_space_residual_sees_an_unmeasurable_row():
    # Tr rho^3 alone is not measurable, nor is the row with c3^-1 read as
    # c3, 2 x8 - 2 x9; the residual gives each away far above 1e-12
    g = np.zeros((2, 11))
    g[0, 9] = 1.0
    g[1, 8], g[1, 9] = 2.0, -2.0
    assert _row_space_residual(3, (3, 3), g[:1]) == pytest.approx(0.5, abs=1e-12)
    assert _row_space_residual(3, (3, 3), g[1:]) == pytest.approx(1.0, abs=1e-12)


def _assert_same_report(got, want):
    assert (got.name, got.lhs, got.rhs, got.margin, got.detected) == (
        want.name, want.lhs, want.rhs, want.margin, want.detected
    )


def _estimated(rho, order):
    cfg = EstimatorConfig(n_unitaries=64, order=order, master_seed=7)
    return estimate_y(rho, cfg).values


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3), (2, 2, 2, 2), (2, 2, 2, 2, 2)])
@pytest.mark.parametrize("rank", [1, 3])
def test_purity_rows_match_the_bitmask_oracle_bit_for_bit(dims, rank):
    rho = random_density(dims, rank=rank, seed=11)
    for x in (exact_x2(rho).purities, _estimated(rho, 2)):
        report, margins = criterion(2, len(dims), x)
        want, want_violated = purity_criterion(x)
        _assert_same_report(report, want)
        assert violated(margins, len(dims)) == want_violated


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (3, 4)])
def test_third_order_row_matches_the_slot_oracle_bit_for_bit(dims):
    # (2, 2) has no order-3 inverse, so only its exact invariants are read
    states = [random_density(dims, rank=2, seed=5)]
    if dims[0] == dims[1]:
        states += [werner_state(dims[0], p) for p in (0.2, 0.48, 0.9)]
    for rho in states:
        xs = [exact_x3(rho).values]
        if min(dims) >= 3:
            xs += [exact_x3(rho).measurable, _estimated(rho, 3)]
        for x in xs:
            report, margins = criterion(3, 2, x)
            _assert_same_report(report, third_order_criterion(x))
            assert margins.tolist() == [report.margin]
