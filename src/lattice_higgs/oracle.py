"""Brute-force exact expectations on small boxes.

Three enumerations, each a ground truth for the others:

* the two-field measure over (gauge, Higgs) configurations,
* the unitary-gauge measure over gauge configurations only,
* the 2-form measure with the product activity weight.

The unitary-gauge and 2-form routes enumerate every configuration, split
in two halves ("meet in the middle").  The cells, in canonical order,
split into a high and a low half (:func:`_digits`).  Since
:func:`incidence` is linear, each operator is applied once per half, and
its rows fall into three classes:

* rows that read the high half only and rows that read the low half only
  fold, with the single-cell terms, into one weight per half-row;
* straddling rows, which read both halves, are the only terms evaluated
  on every (hi, lo) pair.

On the gauge side a straddling cosine is a sum of products of per-half
cosines and sines, so a block of pairs costs one matrix product and one
exp; the Wilson phase splits the same way by angle addition.  On the
2-form side a straddling edge is a lookup of phi_kappa per pair.  Pairs
run in blocks of at most ``_CHUNK``.

The two-field route sums sigma by a per-edge transfer instead: its Higgs
weight is a product over edges of an n x n matrix T[sigma_e, d phi_e],
so applying T along each edge axis of a sigma-tensor sums sigma for
every d phi at once, in about E n^(E+1) multiply-adds rather than
n^(E+V) exponentials; each of the n^V Higgs configurations then reads
its value.  No gauge is fixed: the route sums over phi as well, so its
agreement with the unitary-gauge route stays an independent check of
the unitary-gauge reduction.

Sums are reduced with compensated (fsum) accumulation, so results are
deterministic.

The vectorized routes read the box's cells from ``cells.BoxIndex`` and
take every derivative with ``cells.incidence``; :func:`action` takes its
derivatives through ``forms`` instead, independent of ``incidence``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .cells import BoxIndex, LatticeBox, box_index, incidence, vertex
from .couplings import ModelParams, phi, phi_table, rho
from .errors import STATE_GUARD, GuardError, PreconditionError
from .forms import FormZn, d, delta
from .paths import LatticePath

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
# Split-half enumeration machinery
# ---------------------------------------------------------------------------


def _digits(n: int, k: int):
    """Digit tables (hi, lo) of the base-n counter over k cells, split in two.

    ``hi`` has n^(k - k//2) rows over the leading cells, ``lo`` n^(k//2)
    rows over the trailing ones; both are k columns wide and zero outside
    their own half, so hi[a] + lo[b] is the digit row of counter value
    a * n^(k//2) + b.  Cell 0 is the most significant digit, matching
    canonical cell order.
    """
    kl = k // 2

    def table(start, width):
        rows = np.arange(n**width, dtype=np.int64)
        out = np.zeros((len(rows), k), dtype=np.int8)
        out[:, start : start + width] = (rows[:, None] // n ** np.arange(width - 1, -1, -1)) % n
        return out

    return table(0, k - kl), table(k - kl, kl)


def _all_digits(n: int, k: int) -> np.ndarray:
    """Every digit row of the counter, in counter order."""
    hi, lo = _digits(n, k)
    return (hi[:, None, :] + lo[None, :, :]).reshape(-1, k)


def _row_classes(table: np.ndarray, sign: np.ndarray, k_hi: int):
    """Masks (hi-only, lo-only, straddling) of an operator's rows for cells split at k_hi.

    A row that reads no cell is hi-only: it is 0 on both halves.
    """
    live = sign != 0
    reads_hi = (live & (table < k_hi)).any(axis=1)
    reads_lo = (live & (table >= k_hi)).any(axis=1)
    return ~reads_lo, reads_lo & ~reads_hi, reads_hi & reads_lo


def _pair_blocks(n_hi: int, n_lo: int):
    """(hi slice, lo slice) blocks covering every pair once, at most _CHUNK pairs each."""
    lo_step = min(n_lo, _CHUNK)
    hi_step = max(1, _CHUNK // lo_step)
    for a in range(0, n_hi, hi_step):
        for b in range(0, n_lo, lo_step):
            yield slice(a, a + hi_step), slice(b, b + lo_step)


def _cos_table(n: int) -> np.ndarray:
    return np.cos(2 * np.pi * np.arange(n) / n)


def _sin_table(n: int) -> np.ndarray:
    return np.sin(2 * np.pi * np.arange(n) / n)


def _pair_expectation(w_hi, hol_hi, x_hi, w_lo, hol_lo, x_lo, coupling: float, n: int) -> float:
    """Weighted mean of rho(hol_hi[a] + hol_lo[b]) over all pairs (a, b).

    A pair weighs w_hi[a] w_lo[b] exp(coupling * x_hi[a] . x_lo[b]).  The
    phase is taken apart by angle addition, so a block costs one matrix
    product for the coupling, one exp and one product with three lo-side
    vectors.
    """
    cos_t, sin_t = _cos_table(n), _sin_table(n)
    c_hi, s_hi = w_hi * cos_t[hol_hi], w_hi * sin_t[hol_hi]
    lo_vecs = np.stack([w_lo, w_lo * cos_t[hol_lo], w_lo * sin_t[hol_lo]], axis=1)
    num_re, num_im, den = [], [], []
    # a weight that overflows leaves inf or nan in a block sum, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in _pair_blocks(len(w_hi), len(w_lo)):
            g = x_hi[a] @ x_lo[b].T
            g *= coupling
            np.exp(g, out=g)
            tot, cos_lo, sin_lo = (g @ lo_vecs[b]).T
            den.append(float(w_hi[a] @ tot))
            num_re.append(float(c_hi[a] @ cos_lo - s_hi[a] @ sin_lo))
            num_im.append(float(s_hi[a] @ cos_lo + c_hi[a] @ sin_lo))
    if not np.isfinite([num_re, num_im, den]).all():
        raise PreconditionError("the Boltzmann weights overflow a float; the couplings are too large")
    nr, ni, dn = math.fsum(num_re), math.fsum(num_im), math.fsum(den)
    _check_imag(ni, dn)
    return nr / dn


def _check_imag(num_im: float, scale: float):
    # the accumulated numerator must be real relative to the partition function
    if abs(num_im) > 1e-9 * abs(scale):
        raise AssertionError(f"expected a real accumulation, got imag {num_im} at scale {scale}")


def _wilson(idx: BoxIndex, observable) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """(signed edge coefficients, endpoint vertex ranks (v1, v2)) of a Wilson observable.

    The constant 1 (None) has zero coefficients, and it and a closed path
    have no endpoints (None).
    """
    if observable is None:
        return np.zeros(len(idx.edge_verts), dtype=np.int64), None
    if not isinstance(observable, LatticePath):
        raise TypeError("observable must be None or a LatticePath")
    coeffs = idx.gamma_coeffs(observable).astype(np.int64)
    if observable.kind == "closed":
        return coeffs, None
    return coeffs, idx.ids(vertex(x) for x in observable.endpoints)


def expect_unitary(observable, params: ModelParams) -> float:
    """Expectation under the unitary-gauge measure by full enumeration of sigma.

    ``observable`` is a LatticePath (Wilson line/loop) or None for the constant 1.
    """
    idx = box_index(params.m, params.N)
    coeffs, _ = _wilson(idx, observable)
    E, n = len(idx.edge_verts), params.n
    if n**E > STATE_GUARD:
        raise GuardError(f"unitary enumeration needs {n}^{E} states")
    cos_t, sin_t = _cos_table(n), _sin_table(n)
    hi, lo = _digits(n, E)
    k_hi = E - E // 2
    hi_rows, lo_rows, mid = _row_classes(idx.plaq_edges, idx.plaq_signs, k_hi)

    def half(sig, rows, cells):
        # sum over positive plaquettes and edges of Re rho; both orientations double it
        dsig = incidence(sig, idx.plaq_edges, idx.plaq_signs, n)
        a_w = cos_t[dsig[:, rows]].sum(axis=1)
        w = np.exp(2 * params.beta * a_w + 2 * params.kappa * cos_t[sig[:, cells]].sum(axis=1))
        return w, (sig @ coeffs) % n, dsig[:, mid]

    w_hi, hol_hi, d_hi = half(hi, hi_rows, slice(0, k_hi))
    w_lo, hol_lo, d_lo = half(lo, lo_rows, slice(k_hi, E))
    # straddling plaquettes: cos(a + b) = cos a cos b - sin a sin b
    x_hi = np.hstack([cos_t[d_hi], sin_t[d_hi]])
    x_lo = np.hstack([cos_t[d_lo], -sin_t[d_lo]])
    return _pair_expectation(w_hi, hol_hi, x_hi, w_lo, hol_lo, x_lo, 2 * params.beta, n)


def expect_full(observable, params: ModelParams) -> float:
    """Expectation under the two-field measure; sums sigma by a per-edge transfer.

    The Higgs weight is a product over edges, prod_e T[sigma_e, t_e] with
    T[s, t] = exp(2 kappa cos(2 pi (s - t) / n)) and t = d phi.  Each of the
    three sigma-tensors c in {w, w cos hol, w sin hol} on Z_n^E (w the
    plaquette weight, hol the observable's holonomy) is multiplied by T
    along each of its E edge axes, which gives
    G_c(t) = sum_sigma c(sigma) prod_e T[sigma_e, t_e] for every t at once,
    in E n^(E+1) multiply-adds per tensor.  Each of the n^V Higgs
    configurations then reads G_c at t = d phi and adds its endpoint phase
    phi(v1) - phi(v2).  No gauge is fixed and every phi is summed.

    Raises GuardError when n^E or n^V exceeds ``STATE_GUARD``, and
    PreconditionError when the weights overflow a float.
    """
    idx = box_index(params.m, params.N)
    coeffs, ends_v = _wilson(idx, observable)
    E, V, n = len(idx.edge_verts), len(idx._rank[0]), params.n
    if max(n**E, n**V) > STATE_GUARD:
        raise GuardError(f"two-field enumeration holds {n}^{E} gauge and {n}^{V} Higgs states")
    cos_t, sin_t = _cos_table(n), _sin_table(n)
    sig = _all_digits(n, E)
    w = np.exp(2 * params.beta * cos_t[incidence(sig, idx.plaq_edges, idx.plaq_signs, n)].sum(axis=1))
    hol = (sig @ coeffs) % n
    g = np.stack([w, w * cos_t[hol], w * sin_t[hol]])
    transfer = np.exp(2 * params.kappa * cos_t[np.subtract.outer(np.arange(n), np.arange(n)) % n])
    phis = _all_digits(n, V)
    t = incidence(phis, idx.edge_verts, idx.edge_vert_signs, n) @ n ** np.arange(E - 1, -1, -1)
    ends = np.zeros(len(phis), dtype=np.int64)
    if ends_v is not None:
        ends = (phis[:, ends_v[0]].astype(np.int64) - phis[:, ends_v[1]]) % n
    cos_e, sin_e = cos_t[ends], sin_t[ends]
    # a weight that overflows leaves inf or nan in a sum, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(E):
            # contract the last edge axis, then rotate it to the front: after E
            # steps the axes are t_0, ..., t_{E-1} again, in counter order
            g = (g.reshape(3, -1, n) @ transfer).transpose(0, 2, 1).reshape(3, -1)
        den, g_re, g_im = g[:, t]
        num_re, num_im = g_re * cos_e - g_im * sin_e, g_im * cos_e + g_re * sin_e
        if not np.isfinite([den.sum(), num_re.sum(), num_im.sum()]).all():
            raise PreconditionError("the Boltzmann weights overflow a float; the couplings are too large")
    nr, ni, dn = (math.fsum(x.tolist()) for x in (num_re, num_im, den))
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
    coeffs, _ = _wilson(idx, observable)
    P, n = len(idx.plaq_edges), params.n
    if n**P > STATE_GUARD:
        raise GuardError(f"form enumeration needs {n}^{P} states")
    phi_b = phi_table(params.beta, n)
    phi_k = phi_table(params.kappa, n)
    hi, lo = _digits(n, P)
    k_hi = P - P // 2
    hi_rows, lo_rows, mid = _row_classes(idx.edge_plaqs, idx.edge_plaq_signs, k_hi)
    d_hi = incidence(hi, idx.edge_plaqs, idx.edge_plaq_signs, n)
    d_lo = incidence(lo, idx.edge_plaqs, idx.edge_plaq_signs, n)
    b_hi = phi_b[hi[:, :k_hi]].prod(axis=1)
    b_lo = phi_b[lo[:, k_hi:]].prod(axis=1)

    def total(tilt):
        # a hi-only edge takes its tilt on the hi side, every other edge on the lo side
        t_hi = np.where(hi_rows, tilt, 0)
        s_hi, s_lo = (d_hi + t_hi) % n, (d_lo + (tilt - t_hi)) % n
        w_hi = b_hi * phi_k[s_hi[:, hi_rows]].prod(axis=1)
        w_lo = b_lo * phi_k[s_lo[:, lo_rows]].prod(axis=1)
        # per straddling edge, phi_kappa at (each hi residue + each lo row's residue)
        shifted = [phi_k[(np.arange(n)[:, None] + s_lo[:, r]) % n] for r in np.flatnonzero(mid)]
        keys = s_hi[:, mid]
        sums = []
        for a, b in _pair_blocks(len(w_hi), len(w_lo)):
            w = np.ones((len(w_hi[a]), len(w_lo[b])))
            for j, tab in enumerate(shifted):
                w *= tab[keys[a, j], b]
            sums.append(float(w_hi[a] @ (w @ w_lo[b])))
        return math.fsum(sums)

    den = total(np.zeros(len(idx.edge_plaqs), dtype=np.int64))
    num = den if observable is None else total(coeffs % n)
    return num / den


def form_distribution(params: ModelParams, tilt: Optional[LatticePath] = None):
    """All 2-form configurations with exact probabilities (tilted if asked).

    Returns (list of value-rows, probability vector); guarded to tiny boxes.
    """
    idx = box_index(params.m, params.N)
    P, n = len(idx.plaq_edges), params.n
    shift, _ = _wilson(idx, tilt)
    if n**P > 1 << 16:
        raise GuardError("exact distribution limited to 2^16 configurations")
    phi_b = phi_table(params.beta, n)
    phi_k = phi_table(params.kappa, n)
    rows = _all_digits(n, P)
    dw = (incidence(rows, idx.edge_plaqs, idx.edge_plaq_signs, n) + shift) % n
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
