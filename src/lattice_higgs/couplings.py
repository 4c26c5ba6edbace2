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


# phi and the couplings built on it read the row once and divide by its entry
# 0; that is phi_hat(a, j, n) / phi_hat(a, 0, n) bit for bit.
def phi(a: float, j: int, n: int) -> float:
    row = _phi_hat_row(a, n)
    return row[j % n] / row[0]


def phi_table(a: float, n: int) -> np.ndarray:
    """phi(a, j, n) for j = 0..n-1, as an array indexed by residue."""
    row = _phi_hat_row(a, n)
    return np.array(row) / row[0]


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
    row = _phi_hat_row(a, n)
    return sum(row[j] / row[0] for j in range(1, n))


def xi(a: float, n: int) -> float:
    """max over j != 0 of phi(j), scanned rather than assumed equal to phi(1)."""
    row = _phi_hat_row(a, n)
    return max(row[j] / row[0] for j in range(1, n))


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
    """Weighted mean of r_kappa under the lambda weights.

    Zero weights are skipped so the kappa = 0 endpoint stays defined.
    """
    return sum(w * r_kappa(kappa, j, n) for j, w in enumerate(lambda_weights(beta, kappa, n)) if w)


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
    """

    strong_coupling: bool
    strong_coupling_slack: float
    small_hopping: bool
    small_hopping_slack: float


def assumption_check(params: ModelParams) -> RegimeReport:
    zb = zeta(params.beta, params.n)
    xk = xi(params.kappa, params.n)
    lhs1 = (16 * params.m) ** 2 * zb
    slack1 = xk - lhs1
    lhs3 = params.kappa * (2 + epsilon(params.kappa, params.n))
    slack3 = 1.0 - lhs3
    return RegimeReport(
        strong_coupling=slack1 > 0,
        strong_coupling_slack=slack1,
        small_hopping=slack3 >= 0,
        small_hopping_slack=slack3,
    )
