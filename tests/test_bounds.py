import dataclasses
import json
import math

import numpy as np
import pytest

from lattice_higgs.bounds import _pow, _tail_plan, appendix_sums, constants, prediction
from lattice_higgs.cells import LatticeBox
from lattice_higgs.couplings import ModelParams, alpha, assumption_check, eta, eta_hat, xi, zeta
from lattice_higgs.errors import PreconditionError
from lattice_higgs.oracle import expect_form, expect_unitary
from lattice_higgs.paths import GammaStats, RectDescriptor, gamma_stats, rectangle_loop
from lattice_higgs.sampler import estimate_wilson
from reference import rectangle_p_gamma_count

DESK = ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25)
DESK_STATS = GammaStats(length=32, p_gamma=60, p_gamma_c=4, ell1=8, ell2=8)


def admissible_points():
    # 10 parameter points inside the assumption region, n = 2, m in {2, 4}
    pts = []
    for m in (2, 4):
        for i in range(5):
            kappa = 0.10 + 0.05 * i
            beta = math.tanh(kappa) / (16 * m) ** 2 * (0.2 + 0.15 * i)
            pts.append(ModelParams(m=m, n=2, N=16, beta=beta, kappa=kappa))
    return pts


# -- independent re-transcription of every constant (different structure) ----


def retranscribe(p: ModelParams, st: GammaStats):
    zb, xk = zeta(p.beta, p.n), xi(p.kappa, p.n)
    L, Pg, Pc, m = st.length, st.p_gamma, st.p_gamma_c, p.m
    A = (16 * m) ** 2 * zb  # the walk-counting ratio of the gamma-attached sums
    B = (8 * m) ** 2 * zb  # same for the free sums
    one_mx = 1 - xk

    t1 = (1 + A) ** L * (1 + A / xk**2) ** Pc - 1
    c1p = (16 * m) ** 2 * t1 / (xk * one_mx * (1 - A / xk))
    t2 = (1 + A**2 / ((16 * m) ** 2 * xk) * (16 * m) ** 2) ** L * (1 + A / xk**2) ** Pc - 1
    c1p += (16 * m) ** 2 * t2 / (one_mx * (1 - A))

    c1pp = (16 * m) ** 4 / one_mx * zb * (L + 2 * Pc / xk**2)
    c1pp *= (1 + A / xk**2) ** Pc * (1 + A) ** L

    if zb == 0:
        c1ppp = Pc * (16 * m) ** 2
    else:
        c1ppp = ((1 + A) ** Pc - 1) / zb * (1 + A * xk**2) ** L

    bracket = xk**4 / (1 - A / xk) + (16 * m) ** 8 * zb**4 / (1 - A)
    c1pppp = (16 * m) ** 4 * zb * L * (1 + A * xk**2) ** L / one_mx * bracket

    deg = 2 * m - 1
    c2i_num = deg * Pg * zb * xk**4 * ((1 / (1 - zb * xk**2) + xk**2) ** 2 + xk**4)
    c2i = c2i_num / (1 - deg * Pg * zb**2 * xk**8)

    c2ii = (Pc * (8 * m) ** 2 * xk**4 + Pg * (8 * m) ** 4 * zb * xk**4) / (1 - B / xk)

    c2iii = Pg * zb * xk**6 * 3 * (2 * m - 3) * (8 * m) ** 2 / (1 - B / xk) + Pc * xk

    c1 = c1p + c1pp + c1ppp + c1pppp
    c2 = c2i + c2ii + c2iii
    al = alpha(p.beta, p.kappa, p.n)
    c0 = c1 / al**Pg + c2
    return dict(
        c1p=c1p, c1pp=c1pp, c1ppp=c1ppp, c1pppp=c1pppp, c1=c1,
        c2i=c2i, c2ii=c2ii, c2iii=c2iii, c2=c2, c0=c0,
    )


def test_transcription_agreement():
    for p in admissible_points():
        rep = constants(p, DESK_STATS)
        ref = retranscribe(p, DESK_STATS)
        for key, want in ref.items():
            got = getattr(rep, key)
            assert got == pytest.approx(want, rel=1e-10), key


def test_c1_is_sum_of_parts():
    rng = np.random.default_rng(1)
    for _ in range(10):
        kappa = float(rng.uniform(0.1, 0.3))
        beta = math.tanh(kappa) / 1024 * float(rng.uniform(0.05, 0.8))
        p = ModelParams(m=2, n=2, N=8, beta=beta, kappa=kappa)
        rep = constants(p, DESK_STATS)
        assert rep.c1 == pytest.approx(rep.c1p + rep.c1pp + rep.c1ppp + rep.c1pppp, rel=1e-14)
        assert rep.c2 == pytest.approx(rep.c2i + rep.c2ii + rep.c2iii, rel=1e-14)
        assert rep.c0 == pytest.approx(rep.c1 * rep.alpha ** -rep.gamma.p_gamma + rep.c2, rel=1e-14)


def test_beta_zero_report():
    p = ModelParams(m=2, n=2, N=16, beta=0.0, kappa=0.25)
    rep = constants(p, DESK_STATS)
    assert rep.zeta_beta == 0.0
    assert rep.radius == 0.0
    assert rep.prediction == pytest.approx(eta_hat(0.25, 2) ** 32, rel=1e-12)
    assert math.isfinite(rep.c0) and rep.c0 > 0
    val, rad = prediction(p, DESK_STATS)
    assert rad == 0.0 and val == rep.prediction


def test_desk_scale_golden_values():
    # frozen on first evaluation; guards against transcription drift
    rep = constants(DESK, DESK_STATS)
    assert rep.alpha == pytest.approx(1.0000335892324435, rel=1e-12)
    assert rep.c1p == pytest.approx(42881365.90432727, rel=1e-9)
    assert rep.c1pp == pytest.approx(154923434.40245542, rel=1e-9)
    assert rep.c1ppp == pytest.approx(21777.262753879364, rel=1e-9)
    assert rep.c1pppp == pytest.approx(4129.085779123126, rel=1e-9)
    assert rep.c2i == pytest.approx(0.0024928837682418685, rel=1e-9)
    assert rep.c2ii == pytest.approx(92.85138892413907, rel=1e-9)
    assert rep.c2iii == pytest.approx(1.9494061969542225, rel=1e-9)
    val, rad = prediction(DESK, DESK_STATS)
    assert val == pytest.approx(1.874745074786359e-11, rel=1e-12)
    assert rad == pytest.approx(7.402712443378321e-07, rel=1e-9)


def test_prediction_requires_side_lengths():
    small = GammaStats(length=16, p_gamma=28, p_gamma_c=4, ell1=4, ell2=4)
    with pytest.raises(PreconditionError):
        prediction(DESK, small)


def test_constants_reject_broken_regime():
    bad = ModelParams(m=2, n=2, N=4, beta=0.5, kappa=0.1)
    with pytest.raises(PreconditionError):
        constants(bad, DESK_STATS)
    with pytest.raises(PreconditionError):
        constants(ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.0), DESK_STATS)
    # the raise follows assumption_check on both sides of the regime edge
    # beta*, where (16m)^2 tanh(2 beta*) = tanh(2 kappa) at m = 2, kappa = 0.25
    beta_star = 0.5 * math.atanh(math.tanh(0.5) / 1024)
    inside = ModelParams(m=2, n=2, N=4, beta=0.99 * beta_star, kappa=0.25)
    assert assumption_check(inside).strong_coupling
    radius = constants(inside, DESK_STATS).radius
    assert math.isfinite(radius) and radius > 0
    outside = ModelParams(m=2, n=2, N=4, beta=1.01 * beta_star, kappa=0.25)
    assert not assumption_check(outside).strong_coupling
    with pytest.raises(PreconditionError):
        constants(outside, DESK_STATS)


def test_non_rigorous_flagged_when_small_hopping_fails():
    # large kappa keeps the geometric sums convergent but breaks assumption 3
    p = ModelParams(m=2, n=2, N=8, beta=1e-5, kappa=0.9)
    assert assumption_check(p).strong_coupling
    assert not constants(p, DESK_STATS).small_hopping


def test_perimeter_bound_values():
    # the perimeter-law lower bound eta_kappa^{|gamma|}
    assert _pow(eta(0.0, 2), 4) == 0.0
    assert _pow(eta(0.3, 2), 4) == pytest.approx(math.tanh(0.6) ** 4, rel=1e-12)
    for p in admissible_points():
        assert constants(p, DESK_STATS).eta_power == _pow(eta(p.kappa, p.n), DESK_STATS.length)


def test_pow_keeps_the_float_range():
    assert _pow(0.0, 0) == _pow(0.0, -3) == 1.0 and _pow(0.0, 2) == 0.0
    assert _pow(0.06, 300) == 0.0  # underflows, as 0.06**300 does
    assert _pow(0.5, -2000) == math.inf  # overflows without raising
    assert type(_pow(0.25, 3)) is float and _pow(0.25, 3) == pytest.approx(0.25**3, rel=1e-15)
    with pytest.raises(ValueError):
        _pow(-0.5, 2)


def test_perimeter_bound_below_oracle():
    loop = rectangle_loop(RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(1, 1)))
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for beta in grid:
        for kappa in grid:
            p = ModelParams(m=2, n=2, N=1, beta=beta, kappa=kappa)
            assert _pow(eta(kappa, 2), len(loop)) <= expect_unitary(loop, p) + 1e-12


# the 8 x 8 loop of the R1 point, on the m = 2, N = 5 box where exact values are cheap
THEOREM_LOOP = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
# (n, beta, kappa): at kappa = 0.5 small hopping fails, so the bound is not rigorous there,
# yet it holds
THEOREM_POINTS = (
    [(2, b, 0.25) for b in (2e-4, 1e-4, 3e-5, 1e-5, 1e-6)]
    + [(3, b, 0.25) for b in (1e-4, 3e-5, 1e-5, 1e-6)]
    + [(n, b, 0.5) for n in (2, 3) for b in (1e-5, 1e-6)]
)
# (n, kappa) -> E[W] = value (1 + slope beta + O(beta^2)) at n = 2
FIRST_ORDER = {(2, 0.25): 6.29, (2, 0.5): 3.36}


@pytest.mark.parametrize(
    "n,beta,kappa", THEOREM_POINTS, ids=[f"{n}-{b}" + ("" if k == 0.25 else f"-{k}") for n, b, k in THEOREM_POINTS]
)
def test_theorem_holds_against_exact_values(n, beta, kappa):
    p = ModelParams(m=2, n=n, N=5, beta=beta, kappa=kappa)
    stats = gamma_stats(THEOREM_LOOP, LatticeBox.centered(p.m, p.N))
    assert stats == DESK_STATS
    exact = expect_form(THEOREM_LOOP, p)
    value, radius = prediction(p, stats)
    assert abs(exact - value) <= radius
    assert exact >= _pow(eta(kappa, n), stats.length)
    assert constants(p, stats).small_hopping == (kappa == 0.25)
    if beta == 1e-5 and kappa == 0.25:
        # the bound is informative at n = 2 (0.419) and just not at n = 3 (1.01)
        assert (radius / exact < 1) == (n == 2), radius / exact
    if n == 2:
        assert (exact - value) / exact == pytest.approx(FIRST_ORDER[n, kappa] * beta, rel=1e-3)


# -- the appendix sums term by term, the reference for the closed forms ----


def appendix_sums_term_by_term(p: ModelParams, st: GammaStats, K: int = 60):
    """The three truncated tail sums of ``appendix_sums``, one term at a time."""
    zb, xk = zeta(p.beta, p.n), xi(p.kappa, p.n)
    L, Pc = st.length, st.p_gamma_c
    M = (16 * p.m) ** 2

    # x^k for every exponent the sums read; each inner sum adds its K terms in order
    xpow = [math.exp(k * math.log(xk)) for k in range(5 * L + K + 8)]

    def xsum(a):
        return sum(xpow[a : a + K])

    b1 = 0.0
    for i in range(Pc + 1):
        for j in range(max(1, 2 * i), L + 1):
            pref = math.comb(L, j - 2 * i) * math.comb(Pc, i)
            if pref == 0:
                continue
            inner = 0.0
            for k in range(j - i + 1, j - i + 1 + K):
                mk = (M * zb) ** k
                if mk == 0.0:
                    break
                lo = max(j, 3 * j - 3 * i - k)
                s = xsum(L + lo - 2 * j)
                inner += mk * s
            b1 += pref * inner

    b2 = 0.0
    for i in range(Pc + 1):
        for j in range(max(2 * i + 1, 2), L + 1):
            pref = (j - 1) * math.comb(L, j - 2 * i - 1) * math.comb(Pc, i)
            if pref == 0:
                continue
            mk = (M * zb) ** (j - i)
            lo = max(j, 2 * j - 2 * i)
            s = xsum(L + lo - 2 * j)
            b2 += pref * mk * s

    b3 = 0.0
    for j in range(L + 1):
        pref = math.comb(L, j + 1) * (j + 1)
        if pref == 0:
            continue
        inner = 0.0
        for kh in range(j + 2, j + 2 + K):
            mk = (M * zb) ** kh
            if mk == 0.0:
                break
            lo = 4 * j + max(0, j + 6 - kh)
            s = xsum(L + lo - 2 * j)
            inner += mk * s
        b3 += pref * inner

    return [b1, b2, b3]


def edge_point(kappa: float) -> ModelParams:
    """m = 2, n = 2 with (16m)^2 zeta_beta / xi_kappa = 0.999."""
    beta = 0.5 * math.atanh(0.999 * math.tanh(2 * kappa) / 1024)
    return ModelParams(m=2, n=2, N=16, beta=beta, kappa=kappa)


# no corner plaquettes, and a length past K + 1, where the last geometric series of b1
# is empty for some terms; only the length and corner count enter the sums
STATS_PC0 = GammaStats(length=12, p_gamma=24, p_gamma_c=0, ell1=3, ell2=3)
STATS_L60 = GammaStats(length=60, p_gamma=120, p_gamma_c=2, ell1=15, ell2=15)


def test_appendix_sums_match_term_by_term():
    points = [DESK, *admissible_points()[::4]]
    points += [
        ModelParams(m=2, n=3, N=16, beta=1e-5, kappa=0.25),
        ModelParams(m=4, n=2, N=16, beta=1e-6, kappa=0.25),
        ModelParams(m=2, n=2, N=16, beta=1e-300, kappa=0.25),
        edge_point(0.25),
        # xi_kappa = 0.947 and (16m)^2 zeta_beta = 0.946: the K-th terms
        # of both geometric directions are a few percent, so K shows
        edge_point(0.9),
    ]
    for st in (DESK_STATS, STATS_PC0, STATS_L60):
        for K in (50, 60, 120):
            for p in points:
                got = [num for num, _ in appendix_sums(p, st, K=K)]
                want = appendix_sums_term_by_term(p, st, K=K)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b), (p, st, K, a, b)


def test_appendix_sums_of_short_paths_match_term_by_term():
    # at L = 1 the series b2 has no term and must sum to exactly 0
    for L in (1, 2, 3):
        for Pc in (0, 1, 2):
            st = GammaStats(length=L, p_gamma=2 * L, p_gamma_c=Pc, ell1=1, ell2=1)
            for p in (DESK, edge_point(0.9)):
                got = [num for num, _ in appendix_sums(p, st, K=50)]
                want = appendix_sums_term_by_term(p, st, K=50)
                assert (got[1] == 0.0) == (L == 1)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b), (p, st, a, b)


def test_tail_plan_is_read_only():
    plan = _tail_plan(DESK_STATS.length, DESK_STATS.p_gamma_c, 60)
    assert len(plan) == 5 and all(isinstance(a, np.ndarray) and not a.flags.writeable for a in plan)
    with pytest.raises(ValueError):
        plan[0][0] = 1.0


def test_tail_plan_shares_one_entry_for_int_and_numpy_k():
    _tail_plan.cache_clear()
    want = appendix_sums(DESK, DESK_STATS, K=60)
    assert appendix_sums(DESK, DESK_STATS, K=np.int64(60)) == want
    info = _tail_plan.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)


def test_tail_terms_give_the_same_bits_in_any_call_order():
    def values():
        return [appendix_sums(p, st, K=K) for st in (DESK_STATS, STATS_PC0) for K in (50, 120) for p in (DESK, edge_point(0.9))]

    first = values()
    appendix_sums(DESK, STATS_L60, K=60)
    assert values() == first
    _tail_plan.cache_clear()
    appendix_sums(DESK, STATS_L60, K=60)
    assert values() == first
    _tail_plan.cache_clear()
    assert values()[::-1] == [appendix_sums(p, st, K=K) for st in (STATS_PC0, DESK_STATS) for K in (120, 50) for p in (edge_point(0.9), DESK)]


@pytest.mark.parametrize("K", [60.5, 60.0, math.inf, math.nan, -math.inf, "60", None, 49, np.float64(60)])
def test_truncation_must_be_an_integer_of_at_least_50(K):
    with pytest.raises(PreconditionError):
        appendix_sums(DESK, DESK_STATS, K=K)


def test_truncation_accepts_numpy_integers():
    assert appendix_sums(DESK, DESK_STATS, K=np.int64(60)) == appendix_sums(DESK, DESK_STATS, K=60)


def test_appendix_sums_dominated_and_stable():
    for p in admissible_points():
        pairs60 = appendix_sums(p, DESK_STATS, K=60)
        pairs120 = appendix_sums(p, DESK_STATS, K=120)
        for (num, bound), (num2, _) in zip(pairs60, pairs120):
            assert num <= bound, (p, num, bound)
            if num2 > 0:
                assert abs(num - num2) / num2 < 1e-12


def test_appendix_sums_zero_at_beta_zero():
    p = ModelParams(m=2, n=2, N=16, beta=0.0, kappa=0.25)
    for num, bound in appendix_sums(p, DESK_STATS, K=60):
        assert num == 0.0 and num <= bound


@pytest.mark.parametrize("kappa", [0.0, 40.0], ids=["xi-0", "xi-rounds-to-1"])
def test_beta_zero_outside_the_regime_raises(kappa):
    # beta = 0 makes every sum 0 only where the constants are defined: at
    # kappa = 0 xi_kappa is 0, and at kappa = 40 it rounds to 1
    p = ModelParams(m=2, n=2, N=16, beta=0.0, kappa=kappa)
    with pytest.raises(PreconditionError):
        constants(p, DESK_STATS)
    with pytest.raises(PreconditionError):
        appendix_sums(p, DESK_STATS, K=60)


def test_appendix_bounds_match_c1_parts():
    # each closed form equals the corresponding constant times xi^L zeta
    p = DESK
    rep = constants(p, DESK_STATS)
    scale = rep.xi_kappa ** DESK_STATS.length * rep.zeta_beta
    pairs = appendix_sums(p, DESK_STATS, K=60)
    assert pairs[0][1] == pytest.approx(rep.c1p * scale, rel=1e-10)
    assert pairs[1][1] == pytest.approx(rep.c1pp * scale, rel=1e-10)
    assert pairs[2][1] == pytest.approx(rep.c1pppp * scale, rel=1e-10)


def closed_forms_reference(p: ModelParams, st: GammaStats):
    """The three closed-form bounds as display formulas, written out in full."""
    zb, xk = zeta(p.beta, p.n), xi(p.kappa, p.n)
    L, Pc = st.length, st.p_gamma_c
    M = (16 * p.m) ** 2
    xL = math.exp(L * math.log(xk))

    def _pow1p(x, k):
        return math.exp(k * math.log1p(x))

    b1_bound = (
        M * zb / xk * xL / ((1 - xk) * (1 - M * zb / xk))
        * (_pow1p(M * zb / xk**2, Pc) * _pow1p(M * zb, L) - 1)
        + M * zb * xL / ((1 - xk) * (1 - M * zb))
        * (_pow1p(M * zb / xk**2, Pc) * _pow1p(M**2 * zb**2 / xk, L) - 1)
    )
    b2_bound = (
        xL * M**2 * zb / (1 - xk)
        * (L * zb + 2 * Pc * zb / xk**2)
        * _pow1p(M * zb / xk**2, Pc)
        * _pow1p(M * zb, L)
    )
    b3_bound = (
        xL * M**2 * zb**2 * L * _pow1p(M * zb * xk**2, L) / (1 - xk)
        * (xk**4 / (1 - M * zb / xk) + M**4 * zb**4 / (1 - M * zb))
    )
    return [b1_bound, b2_bound, b3_bound]


def test_appendix_bounds_match_display_forms():
    for p in [DESK, *admissible_points(), edge_point(0.25), edge_point(0.9)]:
        got = [bound for _, bound in appendix_sums(p, DESK_STATS, K=60)]
        for a, b in zip(got, closed_forms_reference(p, DESK_STATS)):
            assert abs(a - b) <= 1e-14 * abs(b), (p, a, b)


@pytest.mark.parametrize("kappa", [0.1, 0.0, 0.25])
def test_appendix_sums_raise_exactly_outside_strong_coupling(kappa):
    # every float within 3000 ulp of beta*, where (16m)^2 tanh(2 beta*) = tanh(2 kappa)
    # at m = 2; the precondition does not read the path, so a short one keeps this fast
    stats = GammaStats(length=4, p_gamma=8, p_gamma_c=1, ell1=1, ell2=1)
    beta_star = 0.5 * math.atanh(math.tanh(2 * kappa) / 1024)
    betas = [beta_star]
    for direction in (-math.inf, math.inf):
        b = beta_star
        for _ in range(3000):
            b = math.nextafter(b, direction)
            betas.append(b)
    seen = set()
    for beta in betas:
        if beta < 0:
            continue  # beta* = 0 at kappa = 0
        p = ModelParams(m=2, n=2, N=16, beta=beta, kappa=kappa)
        inside = assumption_check(p).strong_coupling
        seen.add(inside)
        if inside:
            appendix_sums(p, stats, K=50)
        else:
            with pytest.raises(PreconditionError):
                appendix_sums(p, stats, K=50)
    assert seen == ({False} if kappa == 0 else {False, True})


def test_truncation_precondition():
    with pytest.raises(PreconditionError):
        appendix_sums(DESK, DESK_STATS, K=10)
    # xi_kappa rounds to 1, so the x-direction series has ratio 1
    with pytest.raises(PreconditionError):
        appendix_sums(ModelParams(m=2, n=2, N=16, beta=1e-5, kappa=20.0), DESK_STATS)


def test_monotone_sanity_radius_and_alpha():
    # beta = 1e-3 lies outside the strong-coupling regime at kappa = 0.25
    # ((16m)^2 zeta_beta = 2.05 > xi_kappa = 0.462), where constants() must
    # refuse; the alpha bracket holds at every point, the radius in-regime.
    radii = []
    in_regime = []
    for beta in (1e-3, 1e-4, 1e-5, 1e-6):
        p = ModelParams(m=2, n=2, N=16, beta=beta, kappa=0.25)
        zb, xk = zeta(beta, 2), xi(0.25, 2)
        assert 1 <= alpha(beta, 0.25, 2) <= 1 / (1 - zb * xk**2) + 1e-12
        in_regime.append(assumption_check(p).strong_coupling)
        if in_regime[-1]:
            radii.append(constants(p, DESK_STATS).radius)
        else:
            with pytest.raises(PreconditionError):
                constants(p, DESK_STATS)
    assert in_regime == [False, True, True, True]
    assert radii == sorted(radii, reverse=True)
    assert radii[-1] < 1e-9


def test_gamma_stats_agree_with_rectangle_formula():
    # lattice-dec count and the closed-form rectangle count must agree
    box = LatticeBox.centered(2, 16)
    loop = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    st = gamma_stats(loop, box)
    assert st == DESK_STATS
    assert st.p_gamma == rectangle_p_gamma_count(loop)


def test_reports_serialize_through_asdict():
    # every report is plain JSON once dataclasses.asdict has nested its parts
    box = LatticeBox.centered(2, 16)
    loop = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    small = ModelParams(m=2, n=2, N=2, beta=0.3, kappa=0.4)
    unit = rectangle_loop(RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(1, 1)))
    reports = [
        estimate_wilson(small, unit, sweeps=40, seed=3),
        assumption_check(DESK),
        assumption_check(ModelParams(m=2, n=3, N=16, beta=1e-5, kappa=0.25)),
        gamma_stats(loop, box),
        constants(DESK, DESK_STATS),
    ]
    for rep in reports:
        d = dataclasses.asdict(rep)
        assert json.loads(json.dumps(d)) == d, type(rep).__name__
    bound = dataclasses.asdict(reports[-1])
    assert bound["params"] == dataclasses.asdict(DESK)
    assert bound["gamma"] == dataclasses.asdict(DESK_STATS)
