"""Scalar coupling functions of the Z_n model and their regime checks.

Everything here is a plain function of (a, j, n): the lacunary exponential
series psi, its convolution phi_hat and normalization phi, the derived
couplings eta/zeta/xi, the corner ratio r and the one-plaquette tilt alpha.
All series are summed to machine convergence in double precision.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .errors import PreconditionError

# Series truncation: stop once the next term falls below REL_EPS times the
# partial sum; the hard cap is never reached for a <= 10.
REL_EPS = 1e-17
MAX_TERMS = 500
# rows phi_hat(a, ., n) kept, so that a scan over fresh couplings holds memory constant
ROW_CACHE = 1024


def rho(j: int, n: int) -> complex:
    """The defining character: j -> exp(2*pi*i*j/n)."""
    return cmath.exp(2j * math.pi * (j % n) / n)


def psi(a: float, j: int, n: int) -> float:
    """Sum of a^(j+kn)/(j+kn)! over k >= 0; the n-lacunary exponential slice."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if not 0 <= j < n:
        raise PreconditionError(f"residue j={j} outside [0, {n})")
    if not 0 <= a < math.inf:
        raise PreconditionError(f"a must be finite and nonnegative, got {a}")
    term = a**j / math.factorial(j)
    total = term
    k = j
    for _ in range(MAX_TERMS):
        # advance the factorial ratio n steps: a^n / ((k+1)...(k+n))
        for _ in range(n):
            k += 1
            term *= a / k
        if term < REL_EPS * total:
            break
        total += term
    return total


@lru_cache(maxsize=ROW_CACHE)
def _phi_hat_row(a: float, n: int) -> Tuple[float, ...]:
    """phi_hat(a, j, n) for j = 0..n-1."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    p = [psi(a, k, n) for k in range(n)]
    row = tuple(sum(p[k] * p[(k + j) % n] for k in range(n)) for j in range(n))
    if not all(map(math.isfinite, row)):
        raise PreconditionError(f"phi_hat({a}, j, {n}) overflows a float")
    return row


def phi_hat(a: float, j: int, n: int) -> float:
    """Convolution sum over pairs k' - k = j (mod n) of psi(k) psi(k')."""
    return _phi_hat_row(a, n)[j % n]


def phi_hat_double_series(a: float, j: int, n: int) -> float:
    """Independent evaluation route: explicit double sum over [n] x [n]."""
    j %= n
    total = 0.0
    for k in range(n):
        for kp in range(n):
            if (kp - k) % n == j:
                total += psi(a, k, n) * psi(a, kp, n)
    return total


def phi(a: float, j: int, n: int) -> float:
    return phi_hat(a, j, n) / phi_hat(a, 0, n)


def phi_table(a: float, n: int) -> np.ndarray:
    """phi(a, j, n) for j = 0..n-1, as an array indexed by residue."""
    return np.array([phi(a, j, n) for j in range(n)])


def eta(a: float, n: int) -> float:
    """min over j of phi(j+1)/phi(j); ratios with phi(j) = 0 are skipped.

    At a = 0 the j = 0 ratio is 0, so eta(0) = 0.
    """
    best = None
    for j in range(n):
        den = phi(a, j, n)
        if den == 0.0:
            continue
        r = phi(a, j + 1, n) / den
        best = r if best is None else min(best, r)
    return best


def eta_hat(a: float, n: int) -> float:
    """Character-weighted mean of rho(g) under the single-edge Gibbs weight."""
    num = 0.0 + 0.0j
    den = 0.0
    for g in range(n):
        w = math.exp(2 * a * rho(g, n).real)
        num += rho(g, n) * w
        den += w
    val = num / den
    if abs(val.imag) > 1e-13 * max(1.0, abs(val.real)):
        raise AssertionError(f"eta_hat should be real, got {val}")
    return val.real


def zeta(a: float, n: int) -> float:
    return sum(phi(a, j, n) for j in range(1, n))


def xi(a: float, n: int) -> float:
    """max over j != 0 of phi(j), scanned rather than assumed equal to phi(1)."""
    return max(phi(a, j, n) for j in range(1, n))


def epsilon(a: float, n: int) -> float:
    return (1 + 2 * a * math.exp(a)) * (1 + a**n * math.exp(a) / math.factorial(n)) ** 2 - 1


def r_kappa(kappa: float, j: int, n: int) -> float:
    """phi(j+1) / (phi(j) * phi(1)); the per-plaquette correction ratio.

    At j = 0 the phi(1) factors cancel algebraically, so r(0) = 1 exactly
    (also at kappa = 0, where phi(1) vanishes).
    """
    if j % n == 0:
        return 1.0
    return phi(kappa, j + 1, n) / (phi(kappa, j, n) * phi(kappa, 1, n))


def lambda_weights(beta: float, kappa: float, n: int) -> List[float]:
    """Normalized single-plaquette weights phi_beta(j) phi_kappa(j)^4."""
    raw = [phi(beta, j, n) * phi(kappa, j, n) ** 4 for j in range(n)]
    z = sum(raw)
    return [w / z for w in raw]


def alpha(beta: float, kappa: float, n: int) -> float:
    """Weighted mean of r_kappa under the lambda weights (direct sum form).

    Zero-weight terms are skipped so the kappa = 0 endpoint stays defined.
    """
    num = 0.0
    den = 0.0
    for j in range(n):
        w = phi(beta, j, n) * phi(kappa, j, n) ** 4
        if w == 0.0:
            continue
        num += w * r_kappa(kappa, j, n)
        den += w
    return num / den


def alpha_z2_closed_form(beta: float, kappa: float) -> float:
    tb, tk = math.tanh(2 * beta), math.tanh(2 * kappa)
    return (1 + tb * tk**2) / (1 + tb * tk**4)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: dimension m, group order n, box half-side N, couplings."""

    m: int
    n: int
    N: int
    beta: float
    kappa: float

    def __post_init__(self):
        for name in ("m", "n", "N"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise PreconditionError(f"{name} must be an integer, got {value!r}")
            # numpy integers become Python ints, so n**k cannot wrap around
            object.__setattr__(self, name, int(value))
        if self.m < 2 or self.n < 2 or self.N < 1:
            raise PreconditionError("need m >= 2, n >= 2, N >= 1")
        if not (math.isfinite(self.beta) and math.isfinite(self.kappa)):
            raise PreconditionError("couplings must be finite")
        if self.beta < 0 or self.kappa < 0:
            raise PreconditionError("couplings must be nonnegative")


@dataclass(frozen=True)
class RegimeReport:
    """Status of the two standing assumptions, with slack values.

    strong_coupling: (16m)^2 zeta_beta < xi_kappa, strict.
    small_hopping:   kappa (2 + epsilon_kappa) <= 1.
    For n = 2 the strong-coupling condition also appears in its
    (16m)^2 tanh(2 beta) < tanh(2 kappa) form; the two agree exactly.
    """

    strong_coupling: bool
    strong_coupling_slack: float
    small_hopping: bool
    small_hopping_slack: float
    z2_form: bool | None

    @property
    def both(self) -> bool:
        return self.strong_coupling and self.small_hopping


def assumption_check(params: ModelParams) -> RegimeReport:
    zb = zeta(params.beta, params.n)
    xk = xi(params.kappa, params.n)
    lhs1 = (16 * params.m) ** 2 * zb
    slack1 = xk - lhs1
    lhs3 = params.kappa * (2 + epsilon(params.kappa, params.n))
    slack3 = 1.0 - lhs3
    z2 = None
    if params.n == 2:
        z2 = (16 * params.m) ** 2 * math.tanh(2 * params.beta) < math.tanh(2 * params.kappa)
    return RegimeReport(
        strong_coupling=slack1 > 0,
        strong_coupling_slack=slack1,
        small_hopping=slack3 >= 0,
        small_hopping_slack=slack3,
        z2_form=z2,
    )


# ---------------------------------------------------------------------------
# Numeric checks of the coupling-function inequalities
# ---------------------------------------------------------------------------

SLACK = 1e-12  # absolute slack absorbing double-precision rounding


@dataclass(frozen=True)
class LemmaResult:
    lemma: str
    n: int
    a: float
    ok: bool
    margin: float
    detail: str = ""


def _check(lemma, n, a, ok, margin, detail="") -> LemmaResult:
    return LemmaResult(lemma, n, a, bool(ok), float(margin), detail)


def check_exponential_expansion(a: float, n: int) -> List[LemmaResult]:
    """exp(2a Re rho(g)) equals the character sum of phi_hat over [n]."""
    out = []
    for g in range(n):
        lhs = math.exp(2 * a * rho(g, n).real)
        rhs = sum((rho(g, n) ** j) * phi_hat(a, j, n) for j in range(n))
        err = abs(lhs - rhs)
        out.append(_check("expansion", n, a, err <= SLACK * max(1.0, abs(lhs)), err, f"g={g}"))
    return out


def check_symmetry(a: float, n: int) -> List[LemmaResult]:
    out = []
    for j in range(n):
        err = abs(phi_hat(a, n - j, n) - phi_hat(a, j, n))
        out.append(_check("symmetry", n, a, err <= SLACK, err, f"j={j}"))
    return out


def check_zero_dominates(a: float, n: int) -> List[LemmaResult]:
    """phi_hat(j) < phi_hat(0) strictly for j != 0 and a > 0."""
    out = []
    for j in range(1, n):
        gap = phi_hat(a, 0, n) - phi_hat(a, j, n)
        out.append(_check("zero-dominates", n, a, gap > -SLACK and (a == 0 or gap > 0), gap, f"j={j}"))
    return out


def check_sandwich(a: float, n: int) -> List[LemmaResult]:
    """Leading-order bracket for phi_hat(j), 0 < j ... <= n/2, a in (0, 1]."""
    out = []
    if not 0 < a <= 1:
        return out
    eps = epsilon(a, n)
    for j in range(n // 2 + 1):
        lead = (1 + (1 if 2 * j == n else 0)) * a**j / math.factorial(j)
        diff = phi_hat(a, j, n) - lead
        ok = diff > 0 and diff <= a**j / math.factorial(j) * eps + SLACK
        out.append(_check("sandwich", n, a, ok, diff, f"j={j}"))
    return out


def check_ordering(a: float, n: int) -> List[LemmaResult]:
    """phi_hat(1) >= phi_hat(2) >= ... >= phi_hat(floor(n/2)) when a(1+eps) <= 1."""
    if a * (1 + epsilon(a, n)) > 1:
        return []
    out = []
    for j in range(1, n // 2):
        gap = phi_hat(a, j, n) - phi_hat(a, j + 1, n)
        out.append(_check("ordering", n, a, gap >= -SLACK, gap, f"j={j}"))
    return out


def check_convexity(a: float, n: int) -> List[LemmaResult]:
    """phi_hat(j+1) phi_hat(0) + phi_hat(j-1) phi_hat(0) >= 2 phi_hat(j) phi_hat(1)."""
    if a * (1 + epsilon(a, n)) > 1:
        return []
    out = []
    for j in range(n):
        lhs = phi_hat(a, j + 1, n) * phi_hat(a, 0, n) + phi_hat(a, j - 1, n) * phi_hat(a, 0, n)
        rhs = 2 * phi_hat(a, j, n) * phi_hat(a, 1, n)
        out.append(_check("convexity", n, a, lhs - rhs >= -SLACK, lhs - rhs, f"j={j}"))
    return out


def check_alpha_bracket(beta: float, kappa: float, n: int) -> LemmaResult:
    """1 <= alpha <= 1/(1 - zeta_beta xi_kappa^2) when kappa(1+eps) <= 1."""
    al = alpha(beta, kappa, n)
    ub = 1.0 / (1.0 - zeta(beta, n) * xi(kappa, n) ** 2)
    ok = al >= 1 - SLACK and al <= ub + SLACK
    return _check("alpha-bracket", n, kappa, ok, min(al - 1, ub - al), f"beta={beta:.4g}")


def check_eta_relationships(a: float, n: int) -> List[LemmaResult]:
    """eta_hat = xi = phi(1); eta = eta_hat for n in {2,3}; eta < eta_hat
    whenever the explicit witness condition holds for some j."""
    out = []
    if a <= 0:
        return out
    eh = eta_hat(a, n)
    err1 = abs(eh - phi(a, 1, n))
    out.append(_check("eta-hat-id", n, a, err1 <= SLACK * max(1.0, eh), err1, "eta_hat == phi(1)"))
    if a * (1 + epsilon(a, n)) <= 1:
        err2 = abs(xi(a, n) - phi(a, 1, n))
        out.append(_check("xi-id", n, a, err2 <= SLACK, err2, "xi == phi(1)"))
    e = eta(a, n)
    if n in (2, 3):
        err3 = abs(e - eh)
        out.append(_check("eta-eq", n, a, err3 <= SLACK, err3, "eta == eta_hat"))
    elif a * (1 + epsilon(a, n)) <= 1:
        eps = epsilon(a, n)
        witnesses = [
            j
            for j in range(1, n // 2)
            if (1 + eps) * (1 + (1 if 2 * (j + 1) == n else 0) + eps) <= j + 1
        ]
        if witnesses:
            out.append(
                _check("eta-strict", n, a, e < eh, eh - e, f"witnesses j={witnesses}")
            )
    return out


def section3_suite(a_grid, n_values, betas=(0.0, 0.05, 0.2)) -> List[LemmaResult]:
    """All coupling-function checks over a parameter grid."""
    results: List[LemmaResult] = []
    for n in n_values:
        for a in a_grid:
            results += check_exponential_expansion(a, n)
            results += check_symmetry(a, n)
            results += check_zero_dominates(a, n)
            results += check_sandwich(a, n)
            results += check_ordering(a, n)
            results += check_convexity(a, n)
            results += check_eta_relationships(a, n)
            for beta in betas:
                if a * (1 + epsilon(a, n)) <= 1:
                    results.append(check_alpha_bracket(beta, a, n))
    return results
