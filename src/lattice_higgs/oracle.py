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
* the s straddling rows, which read both halves, give each half-row a
  key: its residues on them, read as a base-n number.

The low half-rows are binned by key into a tensor on Z_n^s, and one
transfer (:func:`_transfer`) applies the straddling factor
M[b, a] = f((a + b) mod n) along each of its s axes.  Each high half-row
then reads the result at its own key.  The work is the two halves' rows
plus s n^(s+1) multiply-adds, not one term per (hi, lo) pair.  On the
gauge side f is exp(2 beta cos(2 pi j / n)) and the Wilson phase splits
by angle addition; on the 2-form side f is phi_kappa.  The
coupling-free half tables are cached per (m, N, n).

The two-field route sums sigma by the same transfer over all E edges:
its Higgs weight is a product over edges of an n x n matrix
T[sigma_e, d phi_e], so applying T along each edge axis of a
sigma-tensor sums sigma for every d phi at once, in about E n^(E+1)
multiply-adds rather than n^(E+V) exponentials; each of the n^V Higgs
configurations then reads its value.  Its n^E and n^V tensors are built
per call by broadcasting per-cell tables of at most n^4 entries, which
are cached per (m, N, n); the tensors are not: near the guard they reach
gigabytes.  No gauge is fixed: the route sums over phi as well, so its
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
from functools import lru_cache
from typing import Optional

import numpy as np

from .cells import BoxIndex, LatticeBox, box_index, incidence, vertex
from .couplings import ModelParams, phi, phi_table, rho
from .errors import STATE_GUARD, GuardError, PreconditionError
from .forms import FormZn, d, delta
from .paths import LatticePath

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


def _cos_table(n: int) -> np.ndarray:
    return np.cos(2 * np.pi * np.arange(n) / n)


def _sin_table(n: int) -> np.ndarray:
    return np.sin(2 * np.pi * np.arange(n) / n)


def _check_imag(num_im: float, scale: float):
    # the accumulated numerator must be real relative to the partition function
    if abs(num_im) > 1e-9 * abs(scale):
        raise AssertionError(f"expected a real accumulation, got imag {num_im} at scale {scale}")


def _ratio(num_re: np.ndarray, num_im: np.ndarray, den: np.ndarray) -> float:
    """fsum(num_re) / fsum(den), once the sums are finite and the numerator real."""
    if not np.isfinite([den.sum(), num_re.sum(), num_im.sum()]).all():
        raise PreconditionError("the Boltzmann weights overflow a float; the couplings are too large")
    nr, ni, dn = (math.fsum(x.ravel().tolist()) for x in (num_re, num_im, den))
    _check_imag(ni, dn)
    return nr / dn


def _transfer(g: np.ndarray, matrix: np.ndarray, k: int) -> np.ndarray:
    """h[..., a] = sum_b g[..., b] prod_j matrix[b_j, a_j] over Z_n^k.

    The last axis of ``g`` holds the n^k points of Z_n^k in counter order.
    Each step contracts the last digit axis with ``matrix`` and rotates it
    to the front, so after k steps the digits are back in counter order;
    k = 0 returns ``g``.
    """
    n, lead = len(matrix), g.shape[:-1]
    for _ in range(k):
        g = (g.reshape(*lead, -1, n) @ matrix).swapaxes(-1, -2).reshape(*lead, -1)
    return g


def _sum_matrix(f: np.ndarray) -> np.ndarray:
    """M[b, a] = f[(a + b) mod n]: a straddling row's factor at hi residue a and lo residue b."""
    n = len(f)
    return f[np.add.outer(np.arange(n), np.arange(n)) % n]


def _keys(residues: np.ndarray, n: int) -> np.ndarray:
    """Each row's residues on the straddling rows read as one base-n counter value."""
    return residues.astype(np.int64) @ n ** np.arange(residues.shape[1] - 1, -1, -1, dtype=np.int64)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _split(table: np.ndarray, sign: np.ndarray, k: int, n: int, route: str):
    """(k_hi, row classes) of an operator on k cells; GuardError before any table is built.

    A split-half route holds the n^k configurations it enumerates and the
    n^s key tensor of the s straddling rows.
    """
    k_hi = k - k // 2
    classes = _row_classes(table, sign, k_hi)
    s = int(classes[2].sum())
    if n**k + n**s > STATE_GUARD:
        raise GuardError(f"{route} enumeration holds {n}^{k} states and {n}^{s} straddling keys")
    return k_hi, classes


@lru_cache(maxsize=8)
def _gauge_halves(m: int, N: int, n: int):
    """Coupling-free tables of the unitary-gauge route: (hi, lo, s).

    Each half is (sigma digits, cosine sum over the plaquettes only that
    half reads, cosine sum over its own edges, key on the s straddling
    plaquettes), one row per half-configuration, all read-only.
    """
    idx = box_index(m, N)
    E = len(idx.edge_verts)
    k_hi, (hi_rows, lo_rows, mid) = _split(idx.plaq_edges, idx.plaq_signs, E, n, "unitary")
    cos_t = _cos_table(n)

    def half(sig, rows, cells):
        dsig = incidence(sig, idx.plaq_edges, idx.plaq_signs, n)
        a_w, a_e = cos_t[dsig[:, rows]].sum(axis=1), cos_t[sig[:, cells]].sum(axis=1)
        return _frozen(sig, a_w, a_e, _keys(dsig[:, mid], n))

    hi, lo = _digits(n, E)
    return half(hi, hi_rows, slice(0, k_hi)), half(lo, lo_rows, slice(k_hi, E)), int(mid.sum())


@lru_cache(maxsize=8)
def _form_halves(m: int, N: int, n: int):
    """Coupling-free tables of the 2-form route: (hi, lo, edge classes).

    hi is (digits of its own plaquettes, delta's residues on the hi-only
    edges, key on the straddling edges); lo is (digits of its own
    plaquettes, residues on the lo-only edges, residues on the straddling
    edges); the classes are the (hi-only, lo-only, straddling) edge masks.
    One row per half-configuration, all read-only.
    """
    idx = box_index(m, N)
    P = len(idx.plaq_edges)
    k_hi, (hi_rows, lo_rows, mid) = _split(idx.edge_plaqs, idx.edge_plaq_signs, P, n, "form")
    hi, lo = _digits(n, P)
    d_hi = incidence(hi, idx.edge_plaqs, idx.edge_plaq_signs, n)
    d_lo = incidence(lo, idx.edge_plaqs, idx.edge_plaq_signs, n)
    return (
        _frozen(hi[:, :k_hi].copy(), d_hi[:, hi_rows].copy(), _keys(d_hi[:, mid], n)),
        _frozen(lo[:, k_hi:].copy(), d_lo[:, lo_rows].copy(), d_lo[:, mid].copy()),
        _frozen(hi_rows, lo_rows, mid),
    )


def _wilson(idx: BoxIndex, observable) -> np.ndarray:
    """Signed edge coefficients of a Wilson observable; all zero for the constant 1 (None)."""
    if observable is None:
        return np.zeros(len(idx.edge_verts), dtype=np.int64)
    if not isinstance(observable, LatticePath):
        raise TypeError("observable must be None or a LatticePath")
    return idx.gamma_coeffs(observable).astype(np.int64)


@lru_cache(maxsize=8)
def _full_tables(m: int, N: int, n: int):
    """Coupling-free per-cell tables of the two-field route, all read-only.

    (edge digits, plaquette cosines, vertex digits, edge key terms): cell
    c's digit is arange(n) along axis c of the (n,)*E gauge or (n,)*V Higgs
    axes; a plaquette's cosine cos(2 pi (d sigma)_p / n) and an edge's key
    term n^(E-1-e) (d phi)_e live on the axes of the cells they read, so
    summing them by broadcasting gives the cosine sum of every sigma and the
    counter value of d phi for every phi.  No table has more than n^4 entries.
    """
    idx = box_index(m, N)
    E, V = len(idx.edge_verts), len(idx._rank[0])
    cos_t = _cos_table(n)

    def axes(k):
        return [np.arange(n).reshape([n if a == c else 1 for a in range(k)]) for c in range(k)]

    def derivative(digits, cols, signs):
        return sum(int(s) * digits[c] for c, s in zip(cols, signs) if s) % n

    sig, phis = axes(E), axes(V)
    plaq = [cos_t[derivative(sig, *row)] for row in zip(idx.plaq_edges, idx.plaq_signs)]
    keys = [n ** (E - 1 - e) * derivative(phis, *row) for e, row in enumerate(zip(idx.edge_verts, idx.edge_vert_signs))]
    return tuple(_frozen(*part) for part in (sig, plaq, phis, keys))


def expect_unitary(observable, params: ModelParams) -> float:
    """Expectation under the unitary-gauge measure by full enumeration of sigma.

    ``observable`` is a LatticePath (Wilson line/loop) or None for the
    constant 1.  The edges split into two halves.  Each half-row weighs
    w = exp(2 beta (its own plaquettes' cosines) + 2 kappa (its edges'
    cosines)) and carries its holonomy h.  The lo rows are binned by their
    key on the s straddling plaquettes into three tensors on Z_n^s,
    c in {w, w cos h, w sin h}; :func:`_transfer` with
    M[b, a] = exp(2 beta cos(2 pi (a + b) / n)) adds each straddling
    plaquette's factor, and every hi row reads the result at its own key.
    The phase combines by angle addition.

    Raises GuardError when n^E + n^s exceeds ``STATE_GUARD``, and
    PreconditionError when the weights overflow a float.
    """
    idx = box_index(params.m, params.N)
    coeffs = _wilson(idx, observable)
    n = params.n
    (*hi, key_hi), (*lo, key_lo), s = _gauge_halves(params.m, params.N, n)
    cos_t, sin_t = _cos_table(n), _sin_table(n)

    def half(sig, a_w, a_e):
        # sum over positive plaquettes and edges of Re rho; both orientations double it
        w = np.exp(2 * params.beta * a_w + 2 * params.kappa * a_e)
        hol = (sig @ coeffs) % n
        return w, w * cos_t[hol], w * sin_t[hol]

    # a weight that overflows leaves inf or nan in a sum, caught in _ratio
    with np.errstate(over="ignore", invalid="ignore"):
        w_hi, c_hi, s_hi = half(*hi)
        g = np.stack([np.bincount(key_lo, c, minlength=n**s) for c in half(*lo)])
        den, c_lo, s_lo = _transfer(g, _sum_matrix(np.exp(2 * params.beta * cos_t)), s)[:, key_hi]
        return _ratio(c_hi * c_lo - s_hi * s_lo, s_hi * c_lo + c_hi * s_lo, w_hi * den)


def expect_full(observable, params: ModelParams) -> float:
    """Expectation under the two-field measure; sums sigma by a per-edge transfer.

    The Higgs weight is a product over edges, prod_e T[sigma_e, t_e] with
    T[s, t] = exp(2 kappa cos(2 pi (s - t) / n)) and t = d phi.  Each of the
    three sigma-tensors c in {w, w cos hol, w sin hol} on Z_n^E (w the
    plaquette weight, hol the observable's holonomy) is multiplied by T
    along each of its E edge axes (:func:`_transfer`), which gives
    G_c(t) = sum_sigma c(sigma) prod_e T[sigma_e, t_e] for every t at once,
    in E n^(E+1) multiply-adds per tensor.  Each of the n^V Higgs
    configurations then reads G_c at t = d phi and adds its endpoint phase
    phi(v1) - phi(v2).  No gauge is fixed and every phi is summed.  The
    cosine sum, hol, t and the endpoint phase are broadcast from the
    per-cell tables of :func:`_full_tables`.

    Raises GuardError when n^E or n^V exceeds ``STATE_GUARD``, and
    PreconditionError when the weights overflow a float.
    """
    idx = box_index(params.m, params.N)
    coeffs = _wilson(idx, observable)
    E, V, n = len(idx.edge_verts), len(idx._rank[0]), params.n
    if max(n**E, n**V) > STATE_GUARD:
        raise GuardError(f"two-field enumeration holds {n}^{E} gauge and {n}^{V} Higgs states")
    sig, plaq, phis, keys = _full_tables(params.m, params.N, n)
    cos_t, sin_t = _cos_table(n), _sin_table(n)
    a_w = np.zeros((n,) * E)
    for table in plaq:
        a_w += table
    w = np.exp(2 * params.beta * a_w)
    hol = sum(int(c) * sig[e] for e, c in enumerate(coeffs) if c) % n
    g = np.stack([w, w * cos_t[hol], w * sin_t[hol]]).reshape(3, -1)
    transfer = np.exp(2 * params.kappa * cos_t[np.subtract.outer(np.arange(n), np.arange(n)) % n])
    t = np.zeros((n,) * V, dtype=np.int64)
    for table in keys:
        t += table
    ends = 0
    if observable is not None and observable.kind != "closed":
        v1, v2 = idx.ids(vertex(x) for x in observable.endpoints)
        ends = (phis[v1] - phis[v2]) % n
    cos_e, sin_e = cos_t[ends], sin_t[ends]
    # a weight that overflows leaves inf or nan in a sum, caught in _ratio
    with np.errstate(over="ignore", invalid="ignore"):
        den, g_re, g_im = _transfer(g, transfer, E)[:, t]
        return _ratio(g_re * cos_e - g_im * sin_e, g_im * cos_e + g_re * sin_e, den)


# ---------------------------------------------------------------------------
# The 2-form measure
# ---------------------------------------------------------------------------


def expect_form(observable, params: ModelParams) -> float:
    """Expectation under the 2-form measure.

    ``observable``: a LatticePath evaluates the high-temperature Wilson
    observable (via the uncancelled product, valid also at kappa = 0);
    None gives 1.  The plaquettes split into two halves.  Per tilt (none
    for the denominator, the path's coefficients for the numerator) each
    half-row weighs its own plaquettes' phi_beta times phi_kappa on the
    edges only it reads; the lo rows are binned by their tilted residues
    on the s straddling edges into one tensor on Z_n^s, :func:`_transfer`
    with M[b, a] = phi_kappa((a + b) mod n) adds each straddling edge's
    factor, and every hi row reads the result at its own key.

    Raises GuardError when n^P + n^s exceeds ``STATE_GUARD``.
    """
    idx = box_index(params.m, params.N)
    coeffs = _wilson(idx, observable)
    n = params.n
    (om_hi, d_hi, key_hi), (om_lo, d_lo, d_mid), (hi_rows, lo_rows, mid) = _form_halves(params.m, params.N, n)
    phi_b = phi_table(params.beta, n)
    phi_k = phi_table(params.kappa, n)
    b_hi, b_lo = phi_b[om_hi].prod(axis=1), phi_b[om_lo].prod(axis=1)
    matrix, s = _sum_matrix(phi_k), d_mid.shape[1]

    def total(tilt):
        # a hi-only edge takes its tilt on the hi side, every other edge on the lo side
        w_hi = b_hi * phi_k[(d_hi + tilt[hi_rows]) % n].prod(axis=1)
        w_lo = b_lo * phi_k[(d_lo + tilt[lo_rows]) % n].prod(axis=1)
        g = np.bincount(_keys((d_mid + tilt[mid]) % n, n), w_lo, minlength=n**s)
        return math.fsum((w_hi * _transfer(g, matrix, s)[key_hi]).tolist())

    den = total(np.zeros(len(idx.edge_plaqs), dtype=np.int64))
    num = den if observable is None else total(coeffs % n)
    return num / den


def form_distribution(params: ModelParams, tilt: Optional[LatticePath] = None):
    """All 2-form configurations with exact probabilities (tilted if asked).

    Returns (list of value-rows, probability vector); guarded to tiny boxes.
    """
    idx = box_index(params.m, params.N)
    P, n = len(idx.plaq_edges), params.n
    shift = _wilson(idx, tilt)
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
