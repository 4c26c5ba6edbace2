"""Exact expectations on small boxes.

Three routes, each a ground truth for the others:

* the two-field measure over (gauge, Higgs) configurations, by a
  per-edge transfer,
* the unitary-gauge measure over gauge configurations only, by
  split-half enumeration,
* the 2-form measure with the product activity weight, by plaquette
  elimination.

The unitary-gauge route enumerates every configuration, split in two
halves ("meet in the middle").  The edges, in canonical order, split
into a high and a low half (:func:`_digits`).  Since :func:`incidence`
is linear, d is applied once per half, and the plaquettes fall into
three classes:

* plaquettes that read the high half only and plaquettes that read the
  low half only fold, with the edge terms, into one weight per half-row;
* the s straddling plaquettes, which read both halves, give each
  half-row a key: its residues on them, read as a base-n number.

The low half-rows are binned by key into a tensor on Z_n^s, and one
transfer (:func:`_transfer`) applies the straddling factor
M[b, a] = f((a + b) mod n), f(j) = exp(2 beta cos(2 pi j / n)), along
each of its s axes.  Each high half-row then reads the result at its own
key, and the Wilson phase splits by angle addition.  The work is the two
halves' rows plus s n^(s+1) multiply-adds, not one term per (hi, lo)
pair.  The coupling-free half tables are cached per (m, N, n).

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

The 2-form weight is phi_beta on every plaquette times phi_kappa on
every edge of delta omega, and an edge's factor reads only the
plaquettes that contain it.  So the route eliminates plaquettes in
canonical order (variable or bucket elimination, Dechter 1999): a tensor
over the open plaquettes, those added whose edges have not all closed,
carries every factor still to come.  Each step adds one plaquette,
multiplies in the factors of the edges it closes and sums out the
plaquettes it leaves with no open edge.  The work is the sum over steps
of n^(open plaquettes), not n^P: the frontier is 2N + 1 plaquettes wide
at m = 2 and 17 at m = 3, N = 1.  The coupling-free plan, the per-step
residue tables and shapes, is cached per (m, N, n).

The split-half and two-field routes reduce their sums with compensated
(fsum) accumulation; every route gives the same bits on every call.

The vectorized routes read the box's cells from ``cells.BoxIndex`` and
take every derivative with ``cells.incidence``; :func:`action` takes its
derivatives through ``forms`` instead, independent of ``incidence``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .cells import BoxIndex, LatticeBox, box_index, incidence
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
    Each step contracts the c trailing digits, n^c <= 16, with the c-fold
    Kronecker power of ``matrix`` (the last step takes what is left) and
    rotates them to the front, so after the last step the digits are back
    in counter order; k = 0 returns ``g``.
    """
    n, lead = len(matrix), g.shape[:-1]
    c = 1
    while c < k and n ** (c + 1) <= 16:
        c += 1
    powers = [None, matrix]  # powers[j][b, a] = prod over j digits of matrix[b_i, a_i]
    for j in range(2, c + 1):
        powers.append(np.multiply.outer(powers[-1], matrix).swapaxes(1, 2).reshape(n**j, n**j))
    while k:
        step = min(c, k)
        g = (g.reshape(*lead, -1, n**step) @ powers[step]).swapaxes(-1, -2).reshape(*lead, -1)
        k -= step
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
        v1, v2 = idx.endpoint_ranks(observable)
        ends = (phis[v1] - phis[v2]) % n
    cos_e, sin_e = cos_t[ends], sin_t[ends]
    # a weight that overflows leaves inf or nan in a sum, caught in _ratio
    with np.errstate(over="ignore", invalid="ignore"):
        den, g_re, g_im = _transfer(g, transfer, E)[:, t]
        return _ratio(g_re * cos_e - g_im * sin_e, g_im * cos_e + g_re * sin_e, den)


# ---------------------------------------------------------------------------
# The 2-form measure
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _form_plan(m: int, N: int, n: int):
    """Coupling-free plan of the 2-form elimination: (residues, columns, starts, steps).

    Plaquette t is added at step t; edge e closes at the step of its last
    plaquette, and plaquette q is summed out at the step where its last
    edge closes.  Step t's factor lives on the axes it touches: t and the
    open plaquettes of its closing edges.  Over each row of those axes'
    digits the plan lists, for every closing edge, delta's residue and
    the edge as the tilt column, then t's digit offset by 2n and column E
    (tilt 0), so that a lookup in [phi_kappa, phi_kappa, phi_beta] and one
    product per row (``starts``) give the factor.  Each of ``steps`` is
    (its rows' slice, the broadcast shape of its factor over the open
    axes, the axes it sums out).  The arrays are read-only.

    Raises GuardError, before any table is built, when the tensor of
    2 n^w entries at the widest frontier w exceeds ``STATE_GUARD``.
    """
    idx = box_index(m, N)
    ep, es = idx.edge_plaqs, idx.edge_plaq_signs
    P, E = len(idx.plaq_edges), len(ep)
    last = np.where(es != 0, ep, -1).max(axis=1)  # every edge of a box lies in a plaquette
    done = last[idx.plaq_edges].max(axis=1)
    # the plaquettes open at step t, t included: those added by t and not summed out before it
    summed_before = np.r_[0, np.cumsum(np.bincount(done, minlength=P))[:-1]]
    width = int((np.arange(1, P + 1) - summed_before).max())
    if 2 * n**width > STATE_GUARD:
        raise GuardError(f"form elimination holds 2 x {n}^{width} entries at its widest frontier")
    res, cols, starts, steps, front = [], [], [], [], []
    row = entry = 0
    for t in range(P):
        front.append(t)
        closing = np.flatnonzero(last == t)
        axes = sorted({t, *ep[closing][es[closing] != 0].tolist()})
        digits = _all_digits(n, len(axes))
        local = np.searchsorted(axes, ep[closing])  # the padding (sign 0) reads axis 0
        r = np.c_[incidence(digits, local, es[closing], n), digits[:, -1].astype(np.intp) + 2 * n]
        res.append(r.ravel())
        cols.append(np.tile(np.r_[closing, E], len(r)))
        starts.append(entry + r.shape[1] * np.arange(len(r)))
        out = tuple(1 + i for i, q in enumerate(front) if done[q] == t)
        steps.append((slice(row, row + len(r)), (2, *(n if q in axes else 1 for q in front)), out))
        row, entry = row + len(r), entry + r.size
        front = [q for q in front if done[q] != t]
    return _frozen(*map(np.concatenate, (res, cols, starts))), tuple(steps)


def expect_form(observable, params: ModelParams) -> float:
    """Expectation under the 2-form measure, by eliminating plaquettes in canonical order.

    ``observable``: a LatticePath evaluates the high-temperature Wilson
    observable (via the uncancelled product, valid also at kappa = 0);
    None gives 1.  One tensor over the open plaquettes carries a leading
    (denominator, numerator) axis: the numerator tilts each edge's residue
    by the path's coefficient.  Step t multiplies in plaquette t's
    phi_beta and phi_kappa of every edge whose last plaquette t is, then
    sums out each plaquette whose edges have all closed (:func:`_form_plan`).
    Every factor for every step comes from one lookup and one
    ``multiply.reduceat``; each step is then one product and, where it
    sums out, one sum and a rescale.  The rescale divides both rows by the
    denominator's maximum, which is never 0 (the zero form weighs 1), so
    the ratio needs no log Z.  The route reads only the incidence of edges
    and plaquettes, so it is the same for every m.

    Raises GuardError when the tensor would hold more than ``STATE_GUARD``
    entries.
    """
    idx = box_index(params.m, params.N)
    coeffs = _wilson(idx, observable)
    n = params.n
    lut = np.concatenate([phi_table(params.kappa, n)] * 2 + [phi_table(params.beta, n)])
    (res, cols, starts), steps = _form_plan(params.m, params.N, n)
    tilt = np.zeros((2, len(coeffs) + 1), dtype=np.intp)
    tilt[1, :-1] = coeffs % n
    factors = np.multiply.reduceat(lut[res + tilt[:, cols]], starts, axis=1)
    g = np.ones(2)
    for rows, shape, out in steps:
        g = g[..., None] * factors[:, rows].reshape(shape)
        if out:  # only a sum grows the entries: every factor is at most 1
            g = g.sum(axis=out)
            g /= g[0].max()
    return float(g[1] / g[0])


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
