"""Brute-force exact expectations on small boxes, and the box's incidence index.

Three enumerations, each a ground truth for the others:

* the two-field measure over (gauge, Higgs) configurations,
* the unitary-gauge measure over gauge configurations only,
* the 2-form measure with the product activity weight.

Configurations are enumerated as mixed-radix integers over the positive
cells in canonical order, in chunks; chunk sums are reduced with
compensated (fsum) accumulation so results are deterministic.

:class:`BoxIndex` numbers the cells of a box and holds the signed
incidence tables; :func:`incidence` is the one product mod n built on
them (d of 0- and 1-forms, delta of 2-forms), shared with the sampler.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Iterable, List, Optional

import numpy as np

from .cells import LatticeBox, OrientedCell, vertex
from .couplings import ModelParams, phi, rho
from .errors import GuardError, PreconditionError
from .forms import FormZn, d, delta
from .paths import LatticePath

STATE_GUARD = 1 << 26
_CHUNK = 1 << 16


class BoxIndex:
    """Canonical enumeration of a box's cells plus signed incidence tables.

    A k-cell sits in the slot (grid point of its base, its direction set);
    the slot holds a cell of the box iff base + extent stays in the grid.
    Ranking the occupied slots in row-major order gives the canonical
    ``LatticeBox.cells`` order, and every table follows from the rank
    arrays by stride arithmetic on the flat grid index.

    Each (table, sign) pair is one operator for :func:`incidence`:

    * ``edge_verts``/``edge_vert_signs`` (E, 2): tail -1, head +1 (d on 0-forms);
    * ``plaq_edges``/``plaq_signs`` (P, 4): the boundary
      (b;i) - (b;j) - (b+e_j;i) + (b+e_i;j), i < j (d on 1-forms);
    * ``edge_plaqs``/``edge_plaq_signs`` (E, 2(m-1)): its transpose, padded
      with sign 0 where an edge lies in fewer plaquettes (delta on 2-forms).

    ``plaq_base`` (P, m) and ``plaq_axes`` (P, 2, 0-based i < j) locate each
    plaquette.  The cell label lists ``vertices``, ``edges``, ``plaqs`` are
    ``LatticeBox.cells`` in the same order, built on first read; the cell
    counts are the table lengths.
    """

    def __init__(self, box: LatticeBox):
        self.box = box
        m = box.m
        self._lo = np.array(box.lo)
        self._shape = np.array(box.hi) - self._lo + 1
        self._strides = np.cumprod(np.r_[1, self._shape[:0:-1]])[::-1]
        grid = np.indices(self._shape).reshape(m, -1).T  # row-major, like itertools.product
        # direction sets in itertools.combinations order (1-based, as in OrientedCell.dirs)
        self._dirs = [list(itertools.combinations(range(1, m + 1), k)) for k in range(3)]
        self._rank = []  # per k: (grid points, direction sets) -> rank, -1 if not in the box
        for dirs in self._dirs:
            ext = np.array([[a in ds for a in range(1, m + 1)] for ds in dirs], dtype=int).reshape(-1, m)
            inside = (grid[:, None, :] + ext[None] < self._shape).all(axis=2)
            rank = np.cumsum(inside.ravel()).reshape(inside.shape) - 1
            rank[~inside] = -1
            self._rank.append(rank)
        vert, edge, s = self._rank[0][:, 0], self._rank[1], self._strides

        f, a = np.nonzero(edge >= 0)
        self.edge_verts = np.stack([vert[f], vert[f + s[a]]], axis=1)
        self.edge_vert_signs = np.tile(np.array([-1, 1], dtype=np.int8), (len(f), 1))
        self.edge_tail, self.edge_head = self.edge_verts.T

        f, c = np.nonzero(self._rank[2] >= 0)
        self.plaq_axes = np.array(self._dirs[2], dtype=int).reshape(-1, 2)[c] - 1
        self.plaq_base = grid[f] + self._lo
        i, j = self.plaq_axes.T
        self.plaq_edges = np.stack([edge[f, i], edge[f, j], edge[f + s[j], i], edge[f + s[i], j]], axis=1)
        self.plaq_signs = np.tile(np.array([1, -1, -1, 1], dtype=np.int8), (len(f), 1))

        # transpose: group the (plaquette, column) entries by edge, in plaquette order
        flat = self.plaq_edges.ravel()
        order = np.argsort(flat, kind="stable")
        E = len(self.edge_verts)
        counts = np.bincount(flat, minlength=E)
        col = np.arange(len(flat)) - (np.cumsum(counts) - counts)[flat[order]]
        width = int(counts.max(initial=0))
        self.edge_plaqs = np.zeros((E, width), dtype=np.intp)
        self.edge_plaq_signs = np.zeros((E, width), dtype=np.int8)
        self.edge_plaqs[flat[order], col] = order // 4
        self.edge_plaq_signs[flat[order], col] = self.plaq_signs.ravel()[order]

    @cached_property
    def vertices(self) -> List[OrientedCell]:
        return list(self.box.cells(0))

    @cached_property
    def edges(self) -> List[OrientedCell]:
        return list(self.box.cells(1))

    @cached_property
    def plaqs(self) -> List[OrientedCell]:
        return list(self.box.cells(2))

    def ids(self, cells: Iterable[OrientedCell]) -> np.ndarray:
        """Canonical ranks of cells of one dimension (of c^+ for a negative c).

        Raises PreconditionError if any cell is not in the box.
        """
        cells = list(cells)
        k = cells[0].dim
        g = np.array([c.base for c in cells]) - self._lo
        if ((g >= 0) & (g < self._shape)).all():
            r = self._rank[k][g @ self._strides, [self._dirs[k].index(c.dirs) for c in cells]]
            if (r >= 0).all():
                return r
        bad = next(c for c in cells if not self.box.contains(c))
        raise PreconditionError(f"cell {bad} outside {self.box}")

    def gamma_coeffs(self, gamma: LatticePath) -> np.ndarray:
        out = np.zeros(len(self.edge_verts), dtype=np.int8)
        out[self.ids(gamma.chain.coeffs)] = list(gamma.chain.coeffs.values())
        return out


def incidence(x: np.ndarray, table: np.ndarray, sign: np.ndarray, n: int) -> np.ndarray:
    """out[..., r] = sum_j sign[r, j] * x[..., table[r, j]] mod n, as int16.

    With a (table, sign) pair of :class:`BoxIndex` this is d of a 0- or
    1-form, or delta of a 2-form, for every row of ``x`` at once.
    """
    # a column gather from the last axis comes out column-major; accumulating
    # in the same layout keeps every pass, and the caller's lookups, contiguous
    out = np.zeros(x.shape[:-1] + (len(table),), dtype=np.int16, order="F")
    for j in range(table.shape[1]):
        out += sign[:, j].astype(np.int16) * x[..., table[:, j]]
    out %= n
    return out


@lru_cache(maxsize=8)
def box_index(m: int, N: int) -> BoxIndex:
    return BoxIndex(LatticeBox.centered(m, N))


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
