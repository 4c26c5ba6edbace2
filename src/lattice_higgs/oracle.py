"""Exact expectations on small boxes.

Three measures, each a ground truth for the others:

* the two-field measure over (gauge, Higgs) configurations,
* the unitary-gauge measure over gauge configurations only,
* the 2-form measure with the product activity weight.

Each weight is a product of factors, each a function of one residue: a
signed sum, mod n, of the variables in its scope.  So one engine sums all
three, by variable (bucket) elimination (Dechter 1999), and a measure is
only its factor list (:func:`_factors`):

* 2-form: the variables are the plaquettes.  phi_beta(omega_p) on each
  plaquette, and phi_kappa((delta omega)_e + c_e) on each edge;
* unitary gauge: the variables are the edges.  exp(2 beta (cos - 1)) of
  (d sigma)_p on each plaquette, and exp(2 kappa (cos - 1)) of sigma_e
  times the Wilson phase e^(2 pi i c_e sigma_e / n) on each edge;
* two-field: the variables are the edges and the vertices.  The same
  plaquette factor, and the unitary-gauge edge factor read at
  r_e = sigma_e - (d phi)_e.  The Wilson phase of a loop or an open path
  is sum_e c_e r_e, so no end point needs a factor of its own.  No gauge
  is fixed: every phi is summed, so the agreement of this measure with
  the unitary-gauge one stays a check of the unitary-gauge reduction.

Here c is the observable's edge coefficients (0 in the denominator), and
cos reads 2 pi r / n.  The factors join in steps that follow the
plaquettes in canonical order (:func:`_factors` says where each edge
factor joins).  One tensor over the open variables, those read by a
factor that has joined and by one still to come, carries a leading
(denominator, numerator) axis; each step multiplies in its factors and
sums out the variables it reads for the last time; no step rescales, as
no entry passes n^V over the V variables (:func:`_eliminate`).  The work
is the sum over steps of n^(open variables), not n^(variables): at m = 2
the widest frontier is 2N + 1 plaquettes (2-form), 2N + 3 edges (unitary
gauge) and 4N + 4 cells (two-field).  The coupling-free plan, the
per-step residues, shapes and summed axes, is cached per (measure, m, N,
n) (:func:`_plan`), and each observable's (denominator, numerator) lookup
index per (measure, m, N, n, path object) (:func:`_lookup`), so a call at
new couplings builds only its tables and eliminates.

The engine reads the box's cells from ``cells.BoxIndex`` and takes every
residue with ``cells.incidence``.  The dict-based references on ``FormZn``
configurations (the action, gauge transformations, the exact 2-form
distribution, the activity and the Wilson observable) live in
``tests/reference.py``; the action there takes its derivatives through
``forms.d``, independent of ``incidence``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cells import BoxIndex, box_index, incidence
from .couplings import ModelParams, phi_table
from .errors import STATE_GUARD, GuardError
from .paths import LatticePath


# ---------------------------------------------------------------------------
# The elimination engine
# ---------------------------------------------------------------------------


def _all_digits(n: int, k: int) -> np.ndarray:
    """Every digit row of the base-n counter over k cells, in counter order.

    Cell 0 is the most significant digit, matching canonical cell order.
    """
    rows = np.arange(n**k, dtype=np.int64)
    return ((rows[:, None] // n ** np.arange(k - 1, -1, -1)) % n).astype(np.int8)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _wilson(idx: BoxIndex, observable) -> np.ndarray:
    """Signed edge coefficients of a Wilson observable; all zero for the constant 1 (None)."""
    if observable is None:
        return np.zeros(len(idx.edge_verts), dtype=np.int64)
    if not isinstance(observable, LatticePath):
        raise TypeError("observable must be None or a LatticePath")
    return idx.gamma_coeffs(observable).astype(np.int64)


def _factors(measure: str, idx: BoxIndex, n: int):
    """A measure's factor list, in groups of (scopes, signs, lut offset, tilt columns, steps).

    A factor reads the residue sum_j signs[j] x[scopes[j]] mod n (sign 0
    pads a short scope), looks it up at the group's offset plus the tilt
    of its column, and joins at its step.  Column E carries no tilt.  The
    2-form variables are the plaquettes, and plaquette t is step t; an
    edge joins at its last plaquette.  The unitary-gauge variables are the
    edges: an edge joins at its first plaquette.  The two-field variables
    are the edges and then the vertices: each edge takes a step of its
    own right after its first plaquette, so that its end points open as
    late and close as early as they can (a frontier of 4N + 4 cells at
    m = 2, against 4N + 6 with the edge in its plaquette's step).
    """
    ep, es = idx.edge_plaqs, idx.edge_plaq_signs
    P, E = len(idx.plaq_edges), len(ep)
    plaqs, edges, untilted = np.arange(P), np.arange(E), np.full(P, E)
    if measure == "form":
        last = np.where(es != 0, ep, -1).max(axis=1)  # every edge of a box lies in a plaquette
        return (ep, es, 0, edges, last), (plaqs[:, None], np.ones((P, 1), dtype=np.int8), 2 * n, untilted, plaqs)
    first = np.where(es != 0, ep, P).min(axis=1)
    scope, sign, at, steps = edges[:, None], np.ones((E, 1), dtype=np.int8), first, plaqs
    if measure == "full":  # r_e = sigma_e - (d phi)_e
        scope, sign = np.c_[scope, E + idx.edge_verts], np.c_[sign, -idx.edge_vert_signs]
        order = np.argsort(first, kind="stable")
        at = np.empty(E, dtype=np.intp)
        at[order] = first[order] + np.arange(1, E + 1)
        steps = plaqs + np.searchsorted(first[order], plaqs)
    return (scope, sign, 0, edges, at), (idx.plaq_edges, idx.plaq_signs, n * n, untilted, steps)


@lru_cache(maxsize=16)
def _plan(measure: str, m: int, N: int, n: int):
    """Coupling-free elimination plan of a measure: (residues, columns, starts, steps).

    A variable opens at the first step whose factors read it and is
    summed out at the last.  Step t's factors live on the axes they read:
    over each row of those axes' digits the plan lists every factor's
    residue plus its offset, and its tilt column, so that one lookup and
    one product per row (``starts``) give the factors.  Each of ``steps``
    is (its rows' slice, the index that appends the newly open axes, the
    broadcast shape of its factor over the open axes, the axes it sums
    out).  The arrays are read-only.

    Raises GuardError, before any table is built, when the tensor of 2 n^w
    entries at the widest frontier w exceeds ``STATE_GUARD``, or when n^V
    over the V variables, its entries' bound, is past the double range.
    """
    idx = box_index(m, N)
    groups = _factors(measure, idx, n)
    T = 1 + max(step.max() for *_, step in groups)
    cells = np.concatenate([scope[sign != 0] for scope, sign, *_ in groups])
    at = np.concatenate([np.broadcast_to(step[:, None], sign.shape)[sign != 0] for _, sign, _, _, step in groups])
    first, last = np.full(cells.max() + 1, T), np.full(cells.max() + 1, -1)
    np.minimum.at(first, cells, at)
    np.maximum.at(last, cells, at)
    # the variables open at step t: those opened by t and not summed out before it
    summed_before = np.r_[0, np.cumsum(np.bincount(last, minlength=T))[:-1]]
    width = int((np.cumsum(np.bincount(first, minlength=T)) - summed_before).max())
    if 2 * n**width > STATE_GUARD:
        raise GuardError(f"{measure} elimination holds 2 x {n}^{width} entries at its widest frontier")
    if n ** len(first) > float(np.finfo(float).max):  # n^V bounds every entry (see _eliminate)
        raise GuardError(f"{measure} elimination entries reach {n}^{len(first)}, past the double range")
    res, cols, starts, steps, front = [], [], [], [], []
    row = entry = 0
    for t in range(T):
        new = np.flatnonzero(first == t).tolist()
        front += new
        mine = [(scope[s == t], sign[s == t], off, col[s == t]) for scope, sign, off, col, s in groups]
        read = {q for scope, sign, *_ in mine for q in scope[sign != 0].tolist()}
        axes = [q for q in front if q in read]
        local = np.zeros(len(first), dtype=np.intp)  # the padding (sign 0) adds 0 whatever it reads
        local[axes] = np.arange(len(axes))
        digits = _all_digits(n, len(axes))
        r = np.concatenate([incidence(digits, local[scope], sign, n) + off for scope, sign, off, _ in mine], axis=1)
        res.append(r.ravel())
        cols.append(np.tile(np.concatenate([col for *_, col in mine]), len(r)))
        starts.append(entry + r.shape[1] * np.arange(len(r)))
        shape = (2, *(n if q in read else 1 for q in front))
        out = tuple(1 + i for i, q in enumerate(front) if last[q] == t)
        steps.append((slice(row, row + len(r)), (..., *[None] * len(new)), shape, out))
        row, entry = row + len(r), entry + r.size
        front = [q for q in front if last[q] != t]
    return _frozen(*map(np.concatenate, (res, cols, starts))), tuple(steps)


@lru_cache(maxsize=16)
def _lookup(measure: str, m: int, N: int, n: int, observable) -> np.ndarray:
    """The (denominator, numerator) lut index of every factor entry in a measure's plan.

    The numerator reads each factor at its residue plus the tilt of its
    column: n (c mod n) on an edge for the unitary-gauge and two-field
    measures, whose edge table carries the Wilson phase, and c mod n for
    the 2-form measure.  Cached per path object, as ``paths._border`` is,
    and read-only.  Raises PreconditionError, uncached, for a path that
    leaves the box or has the wrong dimension.
    """
    (res, cols, _), _ = _plan(measure, m, N, n)
    coeffs = _wilson(box_index(m, N), observable) % n
    tilt = np.zeros(len(coeffs) + 1, dtype=np.intp)  # column E carries no tilt
    tilt[:-1] = coeffs if measure == "form" else n * coeffs
    (index,) = _frozen(np.stack((res, res + tilt.take(cols))))
    return index


def _eliminate(measure: str, params: ModelParams, lut: np.ndarray, observable) -> float:
    """The numerator over the denominator of a measure, with factor tables ``lut``.

    Every factor for every step comes from one lookup of the observable's
    cached index (:func:`_lookup`) and one ``multiply.reduceat``; the
    first step starts from its own factor, and each later step is one
    product and, where it sums out, one sum.  Every table is at most 1
    and 1 at residue 0, so no step rescales: an entry is at most
    n^(variables summed so far), so at most n^V, which :func:`_plan` keeps
    in the double range, and the denominator's all-zero entry is at least
    1.  The lut is complex only when the tables are.  The plan is read
    first on every call, so its guards hold on a warm call too.
    """
    m, N, n = params.m, params.N, params.n
    (_, _, starts), steps = _plan(measure, m, N, n)
    factors = np.multiply.reduceat(lut.take(_lookup(measure, m, N, n, observable)), starts, axis=1)
    g = None
    for rows, expand, shape, out in steps:
        f = factors[:, rows].reshape(shape)
        g = f if g is None else g[expand] * f
        if out:
            g = np.add.reduce(g, axis=out)
    return float((g[1] / g[0]).real)


@lru_cache(maxsize=8)
def _gauge_parts(n: int):
    """The coupling-free parts of :func:`_gauge`'s lut, read-only: cos - 1 tiled for the
    edge block, cos - 1, and the Wilson phases, at n = 2 the exact real +-1 (a real lut)."""
    j = np.arange(n)
    cos = np.cos(2 * np.pi * j / n) - 1
    cr = np.outer(j, j).ravel() % n
    phase = 1.0 - 2.0 * cr if n == 2 else np.exp(2j * np.pi * cr / n)
    return _frozen(np.tile(cos, n), cos, phase)


def _gauge(measure: str, observable, params: ModelParams) -> float:
    """The unitary-gauge or two-field expectation: both read one plaquette and one edge table.

    The edge table, exp(2 kappa (cos - 1)) e^(2 pi i c r / n) at tilt n c
    plus residue r, carries the Wilson phase, so the numerator tilts each
    edge by n times its coefficient.
    """
    edge_cos, cos, phase = _gauge_parts(params.n)
    lut = np.concatenate((np.exp(2 * params.kappa * edge_cos) * phase, np.exp(2 * params.beta * cos)))
    return _eliminate(measure, params, lut, observable)


def expect_unitary(observable, params: ModelParams) -> float:
    """Expectation under the unitary-gauge measure, by eliminating edges.

    ``observable`` is a LatticePath (Wilson line/loop) or None for the
    constant 1.  Raises GuardError when the elimination tensor would hold
    more than ``STATE_GUARD`` entries, or when n^V over its V variables,
    the bound on its entries, passes the double range; PreconditionError
    when the path leaves the box or has the wrong dimension.
    """
    return _gauge("unitary", observable, params)


def expect_full(observable, params: ModelParams) -> float:
    """Expectation under the two-field measure, by eliminating edges and vertices.

    Every Higgs configuration is summed: no gauge is fixed.  ``observable``,
    the two guards and the path checks are as in :func:`expect_unitary`.
    """
    return _gauge("full", observable, params)


def expect_form(observable, params: ModelParams) -> float:
    """Expectation under the 2-form measure, by eliminating plaquettes in canonical order.

    ``observable``: a LatticePath evaluates the high-temperature Wilson
    observable (via the uncancelled product, valid also at kappa = 0);
    None gives 1.  The numerator tilts each edge's residue by the path's
    coefficient, looked up in [phi_kappa, phi_kappa, phi_beta].  The
    route reads only the incidence of edges and plaquettes, so it is the
    same for every m.

    The two guards and the path checks are as in :func:`expect_unitary`.
    """
    n = params.n
    lut = np.concatenate([phi_table(params.kappa, n)] * 2 + [phi_table(params.beta, n)])
    return _eliminate("form", params, lut, observable)
