"""Z_n-valued discrete differential forms on a box, and their calculus.

A k-form assigns a residue in Z_n to every oriented k-cell with
omega(-c) = -omega(c) mod n: a ``cells.Chain`` whose coefficients are
reduced mod n, stored on positive cells only (absent = 0).  The exterior
derivative d follows the discrete Stokes identity
d omega(c) = omega(boundary c); the coderivative delta is the boundary of
omega read as a Z_n chain, which equals the box-clipped coboundary sum
delta omega(c) = omega(coboundary c) (free boundary) whenever
supp omega lies in the box.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .cells import Chain, LatticeBox, OrientedCell, boundary, boundary_chain, coboundary, components
from .errors import PreconditionError


class FormZn(Chain):
    """Sparse Z_n-valued k-form: a chain whose values on positive cells lie in 1..n-1.

    Besides carrying n, the store step differs from ``Chain``: it reduces
    mod n.  So sums, restrictions and ``cells.boundary_chain`` stay Z_n
    forms, and delta is the boundary of the form.  ``coeffs`` holds the
    values on positive cells; ``form[c]`` and ``form(c)`` read the value on an
    oriented cell, reduced mod n, so ``form(c) != 0`` tells whether c or -c
    carries a value.
    """

    __slots__ = ("n",)

    def __init__(self, dim: int, n: int, values: Dict[OrientedCell, int] | None = None):
        if n < 2:
            raise ValueError("group order n must be >= 2")
        self.n = n
        super().__init__(dim, values)

    def _store(self, c: OrientedCell, v: int):
        v %= self.n
        if v:
            self.coeffs[c] = v
        else:
            self.coeffs.pop(c, None)

    def _like(self, dim: int, coeffs: Dict[OrientedCell, int] | None = None) -> "FormZn":
        return FormZn(dim, self.n, coeffs)

    def _kind(self) -> tuple:
        return super()._kind() + (self.n,)

    def __getitem__(self, c: OrientedCell) -> int:
        return super().__getitem__(c) % self.n

    def __call__(self, c: OrientedCell) -> int:
        return self[c]

    def __repr__(self):
        return f"FormZn(dim={self.dim}, n={self.n}, |supp|={len(self.coeffs)})"


def d(form: FormZn, box: LatticeBox) -> FormZn:
    """Exterior derivative: (k+1)-form with d omega(c) = omega(boundary c)."""
    if form.dim > box.m - 1:
        raise PreconditionError("d undefined for top-dimensional forms")
    out = FormZn(form.dim + 1, form.n)
    for f, v in form.coeffs.items():
        for cprime, coeff in coboundary(f, box).coeffs.items():
            out._accumulate(cprime, coeff * v)
    return out


def delta(form: FormZn) -> FormZn:
    """Coderivative: the (k-1)-form boundary of omega, as a Z_n chain.

    It is delta omega(c) = omega(coboundary c) with the coboundary clipped
    to the box, whenever supp omega lies in the box.
    """
    if form.dim < 1:
        raise PreconditionError("delta undefined for 0-forms")
    return boundary_chain(form)


def delta_edge(form: FormZn, e: OrientedCell, box: LatticeBox) -> int:
    """delta omega(e) for a 2-form via the coboundary sum (independent route)."""
    return sum(boundary(p)[e] * form(p) for p in coboundary(e, box).support) % form.n


# ---------------------------------------------------------------------------
# Connected components (2-forms)
# ---------------------------------------------------------------------------


def connected_components(form: FormZn) -> List[FormZn]:
    """The unique decomposition of a 2-form by components of (supp omega)^+."""
    if form.dim != 2:
        raise PreconditionError("components are defined for 2-forms")
    return [form.restrict(g) for g in components(form.coeffs)]


def lhd(sub: FormZn, whole: FormZn) -> bool:
    """The activity-factorization order: sub is a cleanly separated part of whole.

    True iff whole agrees with sub on supp(sub) and the delta-supports of
    sub and whole - sub are disjoint.
    """
    rest = whole - sub  # raises unless sub and whole are of one kind
    if any(whole.coeffs.get(c) != v for c, v in sub.coeffs.items()):
        return False
    return not (delta(sub).support & delta(rest).support)


# ---------------------------------------------------------------------------
# Random forms
# ---------------------------------------------------------------------------


def random_form(box: LatticeBox, n: int, density: float, seed: int) -> FormZn:
    """I.i.d. 2-form: each positive plaquette is 0 w.p. 1 - density, else
    uniform on 1..n-1.  Deterministic for a fixed seed (Philox stream)."""
    if not 0.0 <= density <= 1.0:
        raise PreconditionError(f"density must lie in [0, 1], got {density}")
    rng = np.random.Generator(np.random.Philox(seed))
    plaqs = list(box.cells(2))
    u = rng.random(len(plaqs))
    vals = rng.integers(1, n, size=len(plaqs)) if n > 2 else np.ones(len(plaqs), dtype=int)
    return FormZn(2, n, {p: int(vi) for p, ui, vi in zip(plaqs, u, vals) if ui < density})
