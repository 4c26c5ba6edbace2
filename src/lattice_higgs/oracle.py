"""Brute-force exact expectations on small boxes.

Three enumerations, each a ground truth for the others:

* the two-field measure over (gauge, Higgs) configurations,
* the unitary-gauge measure over gauge configurations only,
* the 2-form measure with the product activity weight.

Configurations are enumerated as mixed-radix integers over the positive
cells in canonical order, in chunks; chunk sums are reduced with
compensated (fsum) accumulation so results are deterministic.

The vectorized routes read the box's cells from ``cells.BoxIndex`` and
take every derivative with ``cells.incidence``; :func:`action` takes its
derivatives through ``forms`` instead, independent of ``incidence``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cells import BoxIndex, LatticeBox, box_index, incidence, vertex
from .couplings import ModelParams, phi, rho
from .errors import GuardError
from .forms import FormZn, d, delta
from .paths import LatticePath

STATE_GUARD = 1 << 26
_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# The action of field configurations (dict reference route)
# ---------------------------------------------------------------------------


def action(sigma: FormZn, higgs: FormZn, params: ModelParams) -> float:
    """beta * S_W + kappa * S_H, summed over both orientations (hence real).

    ``sigma`` is the gauge 1-form and ``higgs`` the Higgs 0-form; both
    derivatives come from ``forms.d``, independent of :func:`incidence`.
    """
    idx = box_index(params.m, params.N)
    n = params.n
    dsig, dphi = d(sigma, idx.box), d(higgs, idx.box)
    sw = 0.0 + 0.0j
    for p in idx.plaqs:
        sw += rho(dsig(p), n) + rho(-dsig(p), n)
    sh = 0.0 + 0.0j
    for e in idx.edges:
        val = (sigma(e) - dphi(e)) % n
        sh += rho(val, n) + rho(-val, n)
    total = -(params.beta * sw + params.kappa * sh)
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise AssertionError(f"action has imaginary part {total.imag}")
    return total.real


def gauge_transform(sigma: FormZn, higgs: FormZn, eta: FormZn, box: LatticeBox):
    """sigma -> sigma + d eta, phi -> phi + eta, for a 0-form eta on the box."""
    return sigma + d(eta, box), higgs + eta


# ---------------------------------------------------------------------------
# Vectorized enumeration machinery
# ---------------------------------------------------------------------------


def _digit_chunks(n: int, k: int, chunk: int = _CHUNK):
    """Yield (offset, digits) blocks of the mixed-radix counter, base n, k cells.

    Cell 0 is the most significant digit, matching canonical cell order.
    """
    total = n**k
    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % n
        yield start, digits.astype(np.int8)


def _cos_table(n: int) -> np.ndarray:
    return np.cos(2 * np.pi * np.arange(n) / n)


def _sin_table(n: int) -> np.ndarray:
    return np.sin(2 * np.pi * np.arange(n) / n)


def _phi_table(a: float, n: int) -> np.ndarray:
    return np.array([phi(a, j, n) for j in range(n)])


def _check_imag(num_im: float, scale: float):
    # the accumulated numerator must be real relative to the partition function
    if abs(num_im) > 1e-9 * abs(scale):
        raise AssertionError(f"expected a real accumulation, got imag {num_im} at scale {scale}")


class _WilsonSpec:
    """Per-box arrays describing a Wilson line observable."""

    def __init__(self, idx: BoxIndex, gamma: LatticePath):
        self.coeffs = idx.gamma_coeffs(gamma).astype(np.int64)
        if gamma.kind == "open":
            self.v1, self.v2 = idx.ids(vertex(x) for x in gamma.endpoints)
        else:
            self.v1 = self.v2 = None


def _wilson_spec(idx: BoxIndex, observable) -> Optional[_WilsonSpec]:
    if observable is None:
        return None
    if not isinstance(observable, LatticePath):
        raise TypeError("observable must be None or a LatticePath")
    return _WilsonSpec(idx, observable)


def expect_unitary(observable, params: ModelParams) -> float:
    """Expectation under the unitary-gauge measure by full enumeration of sigma.

    ``observable`` is a LatticePath (Wilson line/loop) or None for the constant 1.
    """
    idx = box_index(params.m, params.N)
    E = len(idx.edge_verts)
    if params.n**E > STATE_GUARD:
        raise GuardError(f"unitary enumeration needs {params.n}^{E} states")
    gam = _wilson_spec(idx, observable)
    cos_t, sin_t = _cos_table(params.n), _sin_table(params.n)
    num_re, num_im, den = [], [], []
    for _, sig in _digit_chunks(params.n, E):
        # sum over positive plaquettes and edges of Re rho; both orientations double it
        a_w = cos_t[incidence(sig, idx.plaq_edges, idx.plaq_signs, params.n)].sum(axis=1)
        w = np.exp(2 * params.beta * a_w + 2 * params.kappa * cos_t[sig].sum(axis=1))
        if gam is None:
            obs_re = np.ones(len(sig))
            obs_im = np.zeros(len(sig))
        else:
            hol = (sig @ gam.coeffs) % params.n
            obs_re, obs_im = cos_t[hol], sin_t[hol]
        num_re.append(float(w @ obs_re))
        num_im.append(float(w @ obs_im))
        den.append(float(w.sum()))
    nr, ni, dn = math.fsum(num_re), math.fsum(num_im), math.fsum(den)
    _check_imag(ni, dn)
    return nr / dn


def expect_full(observable, params: ModelParams) -> float:
    """Expectation under the two-field measure; enumerates sigma x phi."""
    idx = box_index(params.m, params.N)
    E, V, n = len(idx.edge_verts), len(idx._rank[0]), params.n
    if n ** (E + V) > STATE_GUARD:
        raise GuardError(f"two-field enumeration needs {n}^{E + V} states")
    gam = _wilson_spec(idx, observable)
    cos_t, sin_t = _cos_table(n), _sin_table(n)

    sig_blocks = list(_digit_chunks(n, E, chunk=min(_CHUNK, n**E)))
    phi_chunk = max(1, (1 << 22) // (n**E))
    num_re, num_im, den = [], [], []
    for _, phi_blk in _digit_chunks(n, V, chunk=phi_chunk):
        dphi = incidence(phi_blk, idx.edge_verts, idx.edge_vert_signs, n)
        for _, sig in sig_blocks:
            dsig = incidence(sig, idx.plaq_edges, idx.plaq_signs, n)
            w_gauge = np.exp(2 * params.beta * cos_t[dsig].sum(axis=1))
            # Higgs energy accumulated edge by edge to avoid a 3-d array
            h = np.zeros((len(sig), len(phi_blk)))
            for j in range(E):
                h += cos_t[(sig[:, j][:, None].astype(np.int16) - dphi[None, :, j]) % n]
            w = w_gauge[:, None] * np.exp(2 * params.kappa * h)
            if gam is None:
                obs_re, obs_im = np.ones_like(w), np.zeros_like(w)
            else:
                hol = (sig @ gam.coeffs) % n
                if gam.v1 is not None:
                    dph = (phi_blk[:, gam.v2].astype(np.int64) - phi_blk[:, gam.v1]) % n
                    tot = (hol[:, None] - dph[None, :]) % n
                else:
                    tot = np.broadcast_to(hol[:, None] % n, w.shape)
                obs_re, obs_im = cos_t[tot], sin_t[tot]
            num_re.append(float((w * obs_re).sum()))
            num_im.append(float((w * obs_im).sum()))
            den.append(float(w.sum()))
    nr, ni, dn = math.fsum(num_re), math.fsum(num_im), math.fsum(den)
    _check_imag(ni, dn)
    return nr / dn


# ---------------------------------------------------------------------------
# The 2-form measure
# ---------------------------------------------------------------------------


def expect_form(observable, params: ModelParams) -> float:
    """Expectation under the 2-form measure.

    ``observable``: a LatticePath evaluates the high-temperature Wilson
    observable (via the uncancelled product, valid also at kappa = 0);
    None gives 1.
    """
    idx = box_index(params.m, params.N)
    P, n = len(idx.plaq_edges), params.n
    if n**P > STATE_GUARD:
        raise GuardError(f"form enumeration needs {n}^{P} states")
    phi_b = _phi_table(params.beta, n)
    phi_k = _phi_table(params.kappa, n)
    gam = _wilson_spec(idx, observable)
    tilt = gam.coeffs.astype(np.int16) % n if gam is not None else None
    num, den = [], []
    for _, om in _digit_chunks(n, P):
        dw = incidence(om, idx.edge_plaqs, idx.edge_plaq_signs, n)
        w = phi_k[dw].prod(axis=1) * phi_b[om].prod(axis=1)
        if tilt is None:
            vals_num = w
        else:
            shifted = (dw + tilt[None, :]) % n
            vals_num = phi_k[shifted].prod(axis=1) * phi_b[om].prod(axis=1)
        num.append(float(vals_num.sum()))
        den.append(float(w.sum()))
    return math.fsum(num) / math.fsum(den)


def form_distribution(params: ModelParams, tilt: Optional[LatticePath] = None):
    """All 2-form configurations with exact probabilities (tilted if asked).

    Returns (list of value-rows, probability vector); guarded to tiny boxes.
    """
    idx = box_index(params.m, params.N)
    P, n = len(idx.plaq_edges), params.n
    if n**P > 1 << 16:
        raise GuardError("exact distribution limited to 2^16 configurations")
    phi_b = _phi_table(params.beta, n)
    phi_k = _phi_table(params.kappa, n)
    rows = next(_digit_chunks(n, P, chunk=n**P))[1]
    dw = incidence(rows, idx.edge_plaqs, idx.edge_plaq_signs, n)
    if tilt is not None:
        shift = idx.gamma_coeffs(tilt).astype(np.int16) % n
        dw = (dw + shift[None, :]) % n
    w = phi_k[dw].prod(axis=1) * phi_b[rows].prod(axis=1)
    return rows, w / w.sum()


# ---------------------------------------------------------------------------
# Pointwise activity and Wilson observable on forms
# ---------------------------------------------------------------------------


def activity(form: FormZn, params: ModelParams) -> float:
    """Product of phi_kappa over delta-support edges and phi_beta over support.

    Factors at unsupported cells are phi(0) = 1, so the sparse product
    equals the full product over the box.
    """
    total = 1.0
    dw = delta(form)
    for e, v in dw.values.items():
        total *= phi(params.kappa, v, params.n)
    for p, v in form.values.items():
        total *= phi(params.beta, v, params.n)
    return total


def wilson_hat(form: FormZn, gamma: LatticePath, kappa: float) -> float:
    """The high-temperature Wilson observable (ratio form; needs kappa > 0)."""
    n = form.n
    dw = delta(form)
    total = 1.0
    for e, c in gamma.chain.coeffs.items():
        de = dw(e)
        total *= phi(kappa, (de + c) % n, n) / phi(kappa, de, n)
    return total
