"""Explicit error constants and closed-form bounds for the small-beta regime.

Every constant is a literal transcription of the corresponding display
formula; an independent re-transcription lives in the test suite and the
two are compared numerically.  Powers with path-length exponents are
evaluated as exp(k log base), for one scalar exponent.  That does not
widen the float range: like base**k, the result underflows to 0 once
k log(base) falls below about -745 (``_pow(0.06, 300)`` is 0.0), so at
|gamma| in the hundreds a small xi_kappa gives a prediction of 0; above
the range it is inf.

The parts c1', c1'', c1''' and c1'''' depend on a point only through m,
zeta_beta, xi_kappa, |gamma| and |P_gamma,c|.  They are cached on those
scalars, so :func:`constants`, :func:`prediction` and both closed forms of
:func:`appendix_sums` at one point share one evaluation.

The three appendix tail sums are plain sums of positive monomials, laid
out per (|gamma|, |P_gamma,c|, K) by a coupling-free plan.  Their closed
forms are zeta_beta xi_kappa^{|gamma|} times c1', c1'' and c1''''; both
routes share the precondition (16m)^2 zeta_beta < xi_kappa < 1 of
:func:`constants`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .couplings import ModelParams, alpha, assumption_check, eta, xi, zeta
from .errors import PreconditionError
from .paths import GammaStats


def _pow(base: float, k: float) -> float:
    """base^k = exp(k log base) for base >= 0, and 0^k = 1 for k <= 0, else 0.

    Underflows to 0.0 and overflows to inf, as base**k does, without raising.
    """
    if base < 0:
        raise ValueError("negative base")
    if base == 0.0:
        return 1.0 if k <= 0 else 0.0
    try:
        return math.exp(k * math.log(base))
    except OverflowError:
        return math.inf


def _pow1p(x: float, k: float) -> float:
    """(1 + x)^k via log1p, stable for tiny x and large k."""
    return math.exp(k * math.log1p(x))


@lru_cache(maxsize=16)
def _c1_parts(m: int, zb: float, xk: float, L: int, Pc: int) -> Tuple[float, float, float, float]:
    """(c1', c1'', c1''', c1'''') for |gamma| = L and |P_gamma,c| = Pc.

    Raises ``PreconditionError`` unless (16m)^2 zeta_beta < xi_kappa < 1,
    the precondition of :func:`constants`.
    """
    M = (16 * m) ** 2
    if not xk - M * zb > 0:
        raise PreconditionError(
            f"(16m)^2 zeta_beta = {M * zb:.3g} not below xi_kappa = {xk:.3g}; "
            "constants are undefined outside the strong-coupling regime"
        )
    if xk >= 1:
        raise PreconditionError("xi_kappa must be < 1")
    c1p = M * (_pow1p(M * zb, L) * _pow1p(M * zb / xk**2, Pc) - 1) / (
        xk * (1 - xk) * (1 - M * zb / xk)
    ) + M * (_pow1p(M**2 * zb**2 / xk, L) * _pow1p(M * zb / xk**2, Pc) - 1) / (
        (1 - xk) * (1 - M * zb)
    )
    c1pp = (
        M**2
        / (1 - xk)
        * (L * zb + 2 * Pc * zb / xk**2)
        * _pow1p(M * zb / xk**2, Pc)
        * _pow1p(M * zb, L)
    )
    if zb == 0.0:
        ratio = Pc * M  # the zeta -> 0 limit of ((1 + M zeta)^Pc - 1)/zeta
    else:
        ratio = (_pow1p(M * zb, Pc) - 1) / zb
    c1ppp = ratio * _pow1p(M * zb * xk**2, L)
    c1pppp = (
        M**2
        * zb
        * L
        * _pow1p(M * zb * xk**2, L)
        / (1 - xk)
        * (xk**4 / (1 - M * zb / xk) + M**4 * zb**4 / (1 - M * zb))
    )
    return c1p, c1pp, c1ppp, c1pppp


@dataclass(frozen=True)
class BoundReport:
    """All explicit constants for one (params, path) pair."""

    params: ModelParams
    gamma: GammaStats
    zeta_beta: float
    xi_kappa: float
    eta_kappa: float
    alpha: float
    eta_power: float  # eta_kappa^{|gamma|}, the perimeter lower bound
    prediction: float  # xi_kappa^{|gamma|} alpha^{|P_gamma|}
    radius: float  # c0 * prediction * zeta_beta
    c1p: float
    c1pp: float
    c1ppp: float
    c1pppp: float
    c1: float
    c2i: float
    c2ii: float
    c2iii: float
    c2: float
    c0: float
    small_hopping: bool  # the bound is rigorous where this holds too


def constants(params: ModelParams, stats: GammaStats) -> BoundReport:
    """Evaluate every constant of the error bound for one path.

    Raises ``PreconditionError`` exactly when the strong-coupling assumption
    (16m)^2 zeta_beta < xi_kappa fails, i.e. when
    ``assumption_check(params).strong_coupling`` is false; kappa = 0 is one
    such case.  That failure is the same condition as the geometric
    denominator 1 - (16m)^2 zeta_beta / xi_kappa being nonpositive, and
    since xi_kappa < 1 it also covers 1 - (16m)^2 zeta_beta <= 0.  Without
    the raise the constants would come out negative or infinite there.  It
    also raises if xi_kappa rounds to 1 (very large kappa).  So every
    report holds under strong coupling, and a failed small-hopping
    assumption only clears ``small_hopping``.
    """
    m, n = params.m, params.n
    zb = zeta(params.beta, n)
    xk = xi(params.kappa, n)
    L, Pg, Pc = stats.length, stats.p_gamma, stats.p_gamma_c
    M8 = (8 * m) ** 2

    regime = assumption_check(params)
    c1p, c1pp, c1ppp, c1pppp = _c1_parts(m, zb, xk, L, Pc)
    c1 = c1p + c1pp + c1ppp + c1pppp

    c2i = (
        (2 * m - 1)
        * Pg
        * zb
        * xk**4
        * ((1 / (1 - zb * xk**2) + xk**2) ** 2 + xk**4)
        / (1 - (2 * m - 1) * Pg * zb**2 * xk**8)
    )
    c2ii = Pc * M8 * xk**4 / (1 - M8 * zb / xk) + Pg * M8**2 * zb * xk**4 / (1 - M8 * zb / xk)
    c2iii = (
        zb * xk**2 * Pg * 3 * (2 * m - 3) * M8 * xk**4 / (1 - M8 * zb / xk) + Pc * xk
    )
    c2 = c2i + c2ii + c2iii

    al = alpha(params.beta, params.kappa, n)
    c0 = c1 * _pow(al, -Pg) + c2

    pred = _pow(xk, L) * _pow(al, Pg)
    et = eta(params.kappa, n)
    return BoundReport(
        params=params,
        gamma=stats,
        zeta_beta=zb,
        xi_kappa=xk,
        eta_kappa=et,
        alpha=al,
        eta_power=_pow(et, L),
        prediction=pred,
        radius=c0 * pred * zb,
        c1p=c1p,
        c1pp=c1pp,
        c1ppp=c1ppp,
        c1pppp=c1pppp,
        c1=c1,
        c2i=c2i,
        c2ii=c2ii,
        c2iii=c2iii,
        c2=c2,
        c0=c0,
        small_hopping=regime.small_hopping,
    )


def prediction(params: ModelParams, stats: GammaStats) -> Tuple[float, float]:
    """(central value, error radius) of the small-beta asymptotic.

    Refuses paths with a rectangle side below 7, where the bound is not
    asserted.
    """
    if stats.ell1 < 7 or stats.ell2 < 7:
        raise PreconditionError(
            f"bound requires rectangle sides >= 7, got {stats.ell1} x {stats.ell2}"
        )
    rep = constants(params, stats)
    return rep.prediction, rep.radius


# ---------------------------------------------------------------------------
# Truncated evaluation of the three appendix sums and their closed forms
# ---------------------------------------------------------------------------


def _tail_terms(L: int, Pc: int):
    """Coupling-free terms of the three tail sums at |gamma| = L, |P_gamma,c| = Pc.

    One (i, j, prefactor) triple of arrays per series, the binomial
    prefactors as floats; only a :func:`_tail_plan` miss builds them.  Only
    valid terms are listed: outside them some exponents of x go negative and
    the powers can overflow.

    * b1: 0 <= i <= Pc and max(1, 2i) <= j <= L, C(L, j - 2i) C(Pc, i);
    * b2: 0 <= i <= Pc and max(2i + 1, 2) <= j <= L,
      (j - 1) C(L, j - 2i - 1) C(Pc, i);
    * b3: i = 0 and 0 <= j < L, (j + 1) C(L, j + 1).
    """

    def series(pairs, pref):
        return (
            np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([j for _, j in pairs], dtype=np.int64),
            np.array([float(pref(i, j)) for i, j in pairs], dtype=np.float64),
        )

    comb, rows = math.comb, range(Pc + 1)
    return (
        series(
            [(i, j) for i in rows for j in range(max(1, 2 * i), L + 1)],
            lambda i, j: comb(L, j - 2 * i) * comb(Pc, i),
        ),
        series(
            [(i, j) for i in rows for j in range(max(2 * i + 1, 2), L + 1)],
            lambda i, j: (j - 1) * comb(L, j - 2 * i - 1) * comb(Pc, i),
        ),
        series([(0, j) for j in range(L)], lambda i, j: (j + 1) * comb(L, j + 1)),
    )


@lru_cache(maxsize=16)
def _tail_plan(L: int, Pc: int, K: int):
    """Read-only (pref, a, b, slot, starts): the terms of :func:`appendix_sums`.

    Each term is pref r^a x^b times entry ``slot`` of the table geo(r/x, 0, l),
    then geo(r, 0, l) for l = 0..K, then 1; terms with l <= 0 are dropped.
    Series b1, b2, b3 begin at ``starts``, each with a zero term, so none is
    empty (b2 has no term at L < 2).
    """
    (i1, j1, w1), (i2, j2, w2), (_, j3, w3) = _tail_terms(L, Pc)
    k0, d = j1 - i1 + 1, j1 - 2 * i1 - 1  # d = t - k0 in b1
    dp = np.maximum(d, 0)
    one = (2 * K + 1, 1)  # table offset and l of b2's 1 = geo(q, 0, 1)
    # (pref, a, b, table offset, l) of each part of each series
    series = [
        [(w1, k0, L - 2 * i1 - 1, 0, np.minimum(d, K)), (w1, k0 + dp, L - j1, K + 1, K - dp)],
        [(w2, j2 - i2, L - 2 * i2, *one)],
        [(w3, j3 + 2, L + 2 * j3 + 4, 0, 4), (w3, j3 + 6, L + 2 * j3, K + 1, K - 4)],
    ]
    zero = (np.zeros(1), 0, 0, *one)
    rows = [np.broadcast_arrays(s, *p) for s, parts in enumerate(series) for p in (zero, *parts)]
    s, pref, a, b, offset, l = np.concatenate(rows, axis=1)
    s, pref, a, b, slot = (v[l > 0] for v in (s, pref, a, b, offset + l))
    plan = (pref, a, b, slot.astype(np.intp), np.searchsorted(s, [0, 1, 2]))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def appendix_sums(params: ModelParams, stats: GammaStats, K: int = 60):
    """(numeric, closed-form bound) pairs for the three tail sums.

    The defining multiple sums are truncated to K terms in each geometric
    direction; the closed forms must dominate the numeric values whenever
    the assumptions hold.

    Both geometric directions are summed exactly by the truncated series
    geo(q, a, b) = sum_{k=a}^{b-1} q^k = q^a geo(q, 0, b - a), so K keeps
    its meaning (K terms each way) at O(Pc L) cost.  With r = (16m)^2
    zeta_beta, x = xi_kappa and G = geo(x, 0, K), the inner sum over k' is
    x^(L + lo - 2j) G, and

    * b1, k from k0 = j - i + 1 to k0 + K, threshold t = 2j - 3i: below t
      (lo = 3j - 3i - k) it is G x^(L + j - 3i) geo(r/x, k0, min(t, k0 + K)),
      from t on (lo = j) G x^(L - j) geo(r, max(t, k0), k0 + K);
    * b2, one term per (i, j): r^(j - i) x^(L + lo - 2j) G, where
      lo = max(j, 2j - 2i) is 2j - 2i since j >= 2i + 1;
    * b3, kh from j + 2 to j + 2 + K, threshold t = j + 6: below t
      G x^(L + 3j + 6) geo(r/x, j + 2, t), from t on
      G x^(L + 2j) geo(r, t, j + 2 + K).

    Each term is thus G pref r^a x^b geo(q, 0, l) (:func:`_tail_plan`),
    summed by one ``exp``, one table gather and one ``np.add.reduceat``.
    All terms are positive, so a plain sum of t terms is within about
    t eps: 5e-14 relative at the 485 of L = 32, Pc = 4.

    The closed forms are zeta_beta xi_kappa^L times c1', c1'' and c1''''
    of :func:`constants`, and their precondition is the one of
    :func:`constants`: ``PreconditionError`` unless (16m)^2 zeta_beta <
    xi_kappa < 1, which gives 0 < r < x < 1.  At beta = 0 the check still
    runs, and where it passes every sum and bound is exactly 0.  K must be
    an integer >= 50; anything else raises ``PreconditionError`` first.
    """
    if not isinstance(K, numbers.Integral) or K < 50:
        raise PreconditionError(f"truncation K must be an integer >= 50, got {K!r}")
    m, n = params.m, params.n
    zb = zeta(params.beta, n)
    xk = xi(params.kappa, n)
    L, Pc = stats.length, stats.p_gamma_c
    c1p, c1pp, _, c1pppp = _c1_parts(m, zb, xk, L, Pc)
    if zb == 0.0:
        return [(0.0, 0.0)] * 3

    r, x = (16 * m) ** 2 * zb, xk
    pref, a, b, slot, starts = _tail_plan(L, Pc, K)
    q = np.array([[r / x], [r]])
    geo = np.ones(2 * K + 3)  # geo(r/x, 0, l), geo(r, 0, l) for l = 0..K, then 1
    geo[:-1] = (-np.expm1(np.log(q) * np.arange(K + 1)) / (1 - q)).ravel()
    terms = pref * np.exp(a * math.log(r) + b * math.log(x)) * geo[slot]
    G = -math.expm1(K * math.log(x)) / (1 - x)
    b1, b2, b3 = (np.add.reduceat(terms, starts) * G).tolist()

    scale = _pow(x, L) * zb
    return [(b1, scale * c1p), (b2, scale * c1pp), (b3, scale * c1pppp)]
