import math

import numpy as np
import pytest

from lattice_higgs import bounds, couplings
from lattice_higgs.couplings import (
    ROW_CACHE,
    ModelParams,
    RegimeReport,
    alpha,
    alpha_z2_closed_form,
    assumption_check,
    epsilon,
    eta,
    eta_hat,
    lambda_weights,
    phi,
    phi_hat,
    phi_hat_double_series,
    psi,
    r_kappa,
    rho,
    xi,
    zeta,
)
from lattice_higgs.errors import PreconditionError
from lattice_higgs.paths import GammaStats

A_GRID = [round(0.01 + 0.09 * k, 4) for k in range(12)]  # 0.01 .. 1.0
N_VALUES = range(2, 9)


def test_psi_n2_hyperbolic():
    a = 0.7
    assert psi(a, 0, 2) == pytest.approx(math.cosh(a), rel=1e-14)
    assert psi(a, 1, 2) == pytest.approx(math.sinh(a), rel=1e-14)


def test_psi_at_zero_is_indicator():
    for n in range(2, 7):
        for j in range(n):
            assert psi(0.0, j, n) == (1.0 if j == 0 else 0.0)


def test_psi_lower_bound():
    assert psi(0.5, 1, 3) > 0.5


def test_psi_domain():
    with pytest.raises(PreconditionError):
        psi(0.3, 5, 3)
    with pytest.raises(PreconditionError):
        psi(-1.0, 0, 3)
    for n in (1, 0, -2):  # phi_hat checks n itself: for n <= 0 it calls no psi
        with pytest.raises(PreconditionError):
            phi_hat(0.3, 1, n)


def test_phi_hat_n2_hyperbolic():
    a = 0.35
    assert phi_hat(a, 0, 2) == pytest.approx(math.cosh(2 * a), rel=1e-14)
    assert phi_hat(a, 1, 2) == pytest.approx(math.sinh(2 * a), rel=1e-14)
    assert phi(a, 1, 2) == pytest.approx(math.tanh(2 * a), rel=1e-14)


def test_phi_hat_two_summation_orders():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = float(rng.uniform(0, 2))
        j = int(rng.integers(-5, 12))
        assert phi_hat(a, j, n) == pytest.approx(
            phi_hat_double_series(a, j, n), rel=1e-12
        )


def test_phi_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = float(rng.uniform(0, 1.5))
        j = int(rng.integers(0, n))
        assert phi(a, n - j, n) == pytest.approx(phi(a, j, n), abs=1e-14)


def test_phi_normalization_and_range():
    for n in N_VALUES:
        for a in (0.05, 0.4, 1.0):
            assert phi(a, 0, n) == 1.0
            for j in range(1, n):
                assert 0 < phi(a, j, n) <= 1


def test_eta_family_n2():
    a = 0.4
    t = math.tanh(2 * a)
    assert eta(a, 2) == pytest.approx(t, rel=1e-14)
    assert eta_hat(a, 2) == pytest.approx(t, rel=1e-14)
    assert zeta(a, 2) == pytest.approx(t, rel=1e-14)
    assert xi(a, 2) == pytest.approx(t, rel=1e-14)


def test_eta_hat_equals_phi1_all_n():
    for n in N_VALUES:
        for a in (0.1, 0.5, 1.2):
            assert eta_hat(a, n) == pytest.approx(phi(a, 1, n), rel=1e-13)


def test_eta_strictly_below_eta_hat_n5():
    # The sufficient witness condition fails at a = 0.3, but the strict
    # inequality itself holds and is what we assert here.
    assert 0.3 * (1 + epsilon(0.3, 5)) <= 1
    assert eta(0.3, 5) < eta_hat(0.3, 5)


def test_epsilon_at_zero():
    for n in N_VALUES:
        assert epsilon(0.0, n) == 0.0


def test_alpha_at_beta_zero():
    for n in N_VALUES:
        for kappa in (0.0, 0.2, 0.7):
            assert alpha(0.0, kappa, n) == pytest.approx(1.0, abs=1e-15)


def test_alpha_z2_closed_form_matches_general():
    beta, kappa = 0.05, 0.3
    assert alpha(beta, kappa, 2) == pytest.approx(
        alpha_z2_closed_form(beta, kappa), rel=1e-12
    )


def test_alpha_bracket_on_admissible_grid():
    for n in (2, 3, 5):
        for kappa in (0.05, 0.2, 0.35):
            if kappa * (1 + epsilon(kappa, n)) > 1:
                continue
            for beta in (0.0, 0.01, 0.1):
                al = alpha(beta, kappa, n)
                ub = 1 / (1 - zeta(beta, n) * xi(kappa, n) ** 2)
                assert 1 - 1e-12 <= al <= ub + 1e-12


def test_r_kappa_and_lambda():
    for n in (2, 3, 5):
        assert r_kappa(0.3, 0, n) == pytest.approx(1.0, rel=1e-14)
        lam = lambda_weights(0.1, 0.3, n)
        assert sum(lam) == pytest.approx(1.0, abs=1e-14)
        # two evaluation paths of the tilt factor
        direct = alpha(0.1, 0.3, n)
        via_lambda = sum(l * r_kappa(0.3, j, n) for j, l in enumerate(lam))
        assert direct == pytest.approx(via_lambda, rel=1e-12)
    # beta = 0 concentrates the weights at 0
    lam0 = lambda_weights(0.0, 0.4, 4)
    assert lam0[0] == pytest.approx(1.0, abs=1e-15)
    assert all(abs(l) < 1e-15 for l in lam0[1:])


def test_lambda_zero_inequality():
    # 0 <= 1 - lambda_0 <= zeta_beta xi_kappa^4
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        beta = float(rng.uniform(0, 0.3))
        kappa = float(rng.uniform(0, 0.5))
        lam0 = lambda_weights(beta, kappa, n)[0]
        assert -1e-14 <= 1 - lam0 <= zeta(beta, n) * xi(kappa, n) ** 4 + 1e-12


def test_assumption_check_examples():
    # kappa small and beta below tanh(kappa)/(16m)^2: both assumptions hold
    m = 4
    beta = math.tanh(0.3) / (16 * m) ** 2 * 0.9
    rep = assumption_check(ModelParams(m=m, n=2, N=1, beta=beta, kappa=0.3))
    assert rep.strong_coupling and rep.small_hopping and rep.z2_form

    rep0 = assumption_check(ModelParams(m=2, n=2, N=1, beta=0.0, kappa=0.0))
    assert not rep0.strong_coupling  # 0 < 0 is false

    rep2 = assumption_check(ModelParams(m=2, n=2, N=1, beta=1e-4, kappa=0.25))
    assert rep2.strong_coupling and rep2.small_hopping and rep2.z2_form


def test_z2_theorem_form_agrees_with_general_assumption():
    # for n = 2, zeta_beta = tanh(2 beta) and xi_kappa = tanh(2 kappa)
    for beta, kappa in [(1e-4, 0.25), (1e-3, 0.3), (0.01, 0.1)]:
        rep = assumption_check(ModelParams(m=2, n=2, N=1, beta=beta, kappa=kappa))
        assert rep.z2_form == rep.strong_coupling


# per n, the grid points that a(1 + epsilon) <= 1 admits, and those of them
# where the witness rule gives eta < eta_hat: 35 and 10 over the whole grid
ADMITTED = 5
WITNESSED = {5: 2, 6: 2, 7: 3, 8: 3}


@pytest.mark.parametrize("n", N_VALUES)
def test_coupling_lemmas_full_grid(n):
    slack = 1e-12  # absorbs double-precision rounding
    admitted = witnessed = 0
    for a in A_GRID:
        h = [phi_hat(a, j, n) for j in range(n)]
        eps = epsilon(a, n)
        # character expansion: exp(2a Re rho(g)) = sum_j rho(g)^j phi_hat(j)
        for g in range(n):
            lhs = math.exp(2 * a * rho(g, n).real)
            assert abs(lhs - sum(rho(g, n) ** j * h[j] for j in range(n))) <= slack * max(1.0, lhs)
        # symmetry phi_hat(-j) = phi_hat(j), and phi_hat(0) dominates strictly
        for j in range(n):
            assert abs(h[-j] - h[j]) <= slack
            assert j == 0 or h[j] < h[0]
        # leading-order sandwich, for a in (0, 1]
        assert 0 < a <= 1
        for j in range(n // 2 + 1):
            term = a**j / math.factorial(j)
            assert 0 < h[j] - (1 + (2 * j == n)) * term <= term * eps + slack
        # eta_hat = phi(1), and eta = eta_hat for n in {2, 3}
        eh = eta_hat(a, n)
        assert abs(eh - phi(a, 1, n)) <= slack * max(1.0, eh)
        if n in (2, 3):
            assert abs(eta(a, n) - eh) <= slack
        if a * (1 + eps) > 1:
            continue
        admitted += 1
        # ordering phi_hat(1) >= phi_hat(2) >= ... >= phi_hat(n // 2)
        for j in range(1, n // 2):
            assert h[j] - h[j + 1] >= -slack
        # convexity phi_hat(j+1) phi_hat(0) + phi_hat(j-1) phi_hat(0) >= 2 phi_hat(j) phi_hat(1)
        for j in range(n):
            assert h[(j + 1) % n] * h[0] + h[j - 1] * h[0] - 2 * h[j] * h[1] >= -slack
        # xi = phi(1)
        assert abs(xi(a, n) - phi(a, 1, n)) <= slack
        # alpha bracket 1 <= alpha <= 1 / (1 - zeta_beta xi_kappa^2)
        for beta in (0.0, 0.05, 0.2):
            assert 1 - slack <= alpha(beta, a, n) <= 1 / (1 - zeta(beta, n) * xi(a, n) ** 2) + slack
        # eta < eta_hat wherever the witness rule holds for some j
        if n >= 4 and any((1 + eps) * (1 + (2 * j + 2 == n) + eps) <= j + 1 for j in range(1, n // 2)):
            witnessed += 1
            assert eta(a, n) < eh
    assert (admitted, witnessed) == (ADMITTED, WITNESSED.get(n, 0))


MODEL_OK = dict(m=2, n=2, N=1, beta=0.1, kappa=0.2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", 1),
        ("n", 1),
        ("N", 0),
        ("n", 2.5),
        ("beta", float("nan")),
        ("kappa", float("inf")),
        ("beta", -0.1),
        ("kappa", -0.1),
    ],
)
def test_model_params_rejects_each_bad_field(field, value):
    with pytest.raises(PreconditionError):
        ModelParams(**{**MODEL_OK, field: value})
    # existing callers catch ValueError
    with pytest.raises(ValueError):
        ModelParams(**{**MODEL_OK, field: value})


def test_model_params_accepts_numpy_integers_as_ints():
    p = ModelParams(m=np.int64(2), n=np.int32(3), N=np.int8(1), beta=0.1, kappa=0.2)
    assert p == ModelParams(m=2, n=3, N=1, beta=0.1, kappa=0.2)
    assert all(type(x) is int for x in (p.m, p.n, p.N))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_couplings_are_phi_hat_ratios_bit_for_bit(n):
    # phi, phi_table, zeta and xi read the phi_hat row once and divide by entry 0
    for a in (0.0, 1e-4, 0.25, 1.3):
        ratios = [phi_hat(a, j, n) / phi_hat(a, 0, n) for j in range(n)]
        assert [phi(a, j, n) for j in range(-1, n + 1)] == ratios[-1:] + ratios + ratios[:1]
        assert couplings.phi_table(a, n).tolist() == ratios
        assert zeta(a, n) == sum(ratios[1:])
        assert xi(a, n) == max(ratios[1:])


def test_coupling_cache_is_bounded():
    # fresh couplings evict the oldest rows of phi_hat, and nothing else in
    # couplings keeps a row; the c1 parts of the bounds keep a few points
    assert [name for name, f in vars(couplings).items() if hasattr(f, "cache_info")] == ["_phi_hat_row"]
    stats = GammaStats(length=32, p_gamma=60, p_gamma_c=4, ell1=8, ell2=8)
    for i in range(3 * ROW_CACHE):
        a = 0.1 + i * 1e-6
        zeta(a, 3)
        xi(a, 3)
        couplings.phi_table(a, 3)
        eta(a, 3)
        alpha(1e-3 * a, a, 3)
        bounds.constants(ModelParams(m=2, n=3, N=16, beta=1e-4 * a, kappa=a), stats)
    info = couplings._phi_hat_row.cache_info()
    assert info.maxsize == ROW_CACHE
    assert info.currsize == ROW_CACHE
    info = bounds._c1_parts.cache_info()
    assert info.currsize == info.maxsize
    assert phi_hat(0.1, 1, 3) == phi_hat_double_series(0.1, 1, 3)


def test_psi_rejects_non_finite_a():
    for a in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            psi(a, 0, 2)


def test_phi_raises_where_phi_hat_overflows():
    # phi_hat(a, 0, 2) = cosh(2a) passes the float range near a = 355
    assert phi(350.0, 1, 2) == 1.0
    for call in (lambda: phi(360.0, 1, 2), lambda: phi_hat(360.0, 0, 2), lambda: couplings.phi_table(360.0, 2)):
        with pytest.raises(PreconditionError):
            call()
