"""Z_n-valued discrete differential forms on a box, and their calculus.

A k-form assigns a residue in Z_n to every oriented k-cell with
omega(-c) = -omega(c) mod n; values are stored on positive cells only
(absent = 0).  The exterior derivative d and coderivative delta follow
the discrete Stokes identities d omega(c) = omega(boundary c) and
delta omega(c) = omega(coboundary c), with the coboundary clipped to the
box (free boundary).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

import numpy as np

from .cells import LatticeBox, OrientedCell, boundary, cell, coboundary
from .errors import PreconditionError


class FormZn:
    """Sparse Z_n-valued k-form; values on positive cells in 1..n-1."""

    __slots__ = ("dim", "n", "values")

    def __init__(self, dim: int, n: int, values: Dict[OrientedCell, int] | None = None):
        if n < 2:
            raise ValueError("group order n must be >= 2")
        self.dim = dim
        self.n = n
        self.values: Dict[OrientedCell, int] = {}
        if values:
            for c, v in values.items():
                self.set(c, v)

    def set(self, c: OrientedCell, v: int):
        if c.dim != self.dim:
            raise ValueError(f"cell of dim {c.dim} in {self.dim}-form")
        if not c.is_positive:
            c, v = -c, -v
        v %= self.n
        if v:
            self.values[c] = v
        else:
            self.values.pop(c, None)

    def __call__(self, c: OrientedCell) -> int:
        if c.is_positive:
            return self.values.get(c, 0)
        return (-self.values.get(-c, 0)) % self.n

    @property
    def support(self) -> Set[OrientedCell]:
        """(supp omega)^+: positive cells with nonzero value."""
        return set(self.values)

    def copy(self) -> "FormZn":
        return FormZn(self.dim, self.n, dict(self.values))

    def restrict(self, cells_: Iterable[OrientedCell]) -> "FormZn":
        """omega restricted to a cell set C (matching +-C), zero elsewhere."""
        keep = {c.positive() for c in cells_}
        return FormZn(self.dim, self.n, {c: v for c, v in self.values.items() if c in keep})

    def __add__(self, other: "FormZn") -> "FormZn":
        self._check_compatible(other)
        out = self.copy()
        for c, v in other.values.items():
            out.set(c, out.values.get(c, 0) + v)
        return out

    def __sub__(self, other: "FormZn") -> "FormZn":
        self._check_compatible(other)
        out = self.copy()
        for c, v in other.values.items():
            out.set(c, out.values.get(c, 0) - v)
        return out

    def __neg__(self) -> "FormZn":
        return FormZn(self.dim, self.n, {c: -v for c, v in self.values.items()})

    def _check_compatible(self, other: "FormZn"):
        if self.dim != other.dim or self.n != other.n:
            raise ValueError("form dimension/order mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, FormZn)
            and (self.dim, self.n) == (other.dim, other.n)
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.dim, self.n, frozenset(self.values.items())))

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self):
        return f"FormZn(dim={self.dim}, n={self.n}, |supp|={len(self.values)})"


def zero_form(dim: int, n: int) -> FormZn:
    return FormZn(dim, n)


def d(form: FormZn, box: LatticeBox) -> FormZn:
    """Exterior derivative: (k+1)-form with d omega(c) = omega(boundary c)."""
    if form.dim > box.m - 1:
        raise PreconditionError("d undefined for top-dimensional forms")
    out = FormZn(form.dim + 1, form.n)
    acc: Dict[OrientedCell, int] = {}
    for f, v in form.values.items():
        for cprime, coeff in coboundary(f, box).coeffs.items():
            acc[cprime] = acc.get(cprime, 0) + coeff * v
    for c, v in acc.items():
        out.set(c, v)
    return out


def delta(form: FormZn) -> FormZn:
    """Coderivative: (k-1)-form with delta omega(c) = omega(coboundary c).

    Accumulated from the supported k-cells over their boundaries, which is
    exactly the box-clipped coboundary sum when supp omega lies in the box.
    """
    if form.dim < 1:
        raise PreconditionError("delta undefined for 0-forms")
    out = FormZn(form.dim - 1, form.n)
    acc: Dict[OrientedCell, int] = {}
    for cprime, v in form.values.items():
        for f, coeff in boundary(cprime).coeffs.items():
            acc[f] = acc.get(f, 0) + coeff * v
    for c, v in acc.items():
        out.set(c, v)
    return out


def delta_edge(form: FormZn, e: OrientedCell, box: LatticeBox) -> int:
    """delta omega(e) for a 2-form via the coboundary sum (independent route)."""
    return sum(boundary(p)[e] * form(p) for p in coboundary(e, box).support) % form.n


# ---------------------------------------------------------------------------
# Connected components and gamma restrictions (2-forms)
# ---------------------------------------------------------------------------


def _component_sets(support: Set[OrientedCell]) -> List[Set[OrientedCell]]:
    """Partition a set of positive plaquettes by the shared-boundary-edge relation."""
    parent: Dict[OrientedCell, OrientedCell] = {p: p for p in support}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    by_edge: Dict[OrientedCell, OrientedCell] = {}
    for p in support:
        for e in boundary(p).support:
            if e in by_edge:
                union(p, by_edge[e])
            else:
                by_edge[e] = p
    groups: Dict[OrientedCell, Set[OrientedCell]] = {}
    for p in support:
        groups.setdefault(find(p), set()).add(p)
    # Deterministic order: by smallest member.
    return [groups[r] for r in sorted(groups, key=lambda r: min(groups[r]))]


def connected_components(form: FormZn) -> List[FormZn]:
    """The unique decomposition of a 2-form by components of (supp omega)^+."""
    if form.dim != 2:
        raise PreconditionError("components are defined for 2-forms")
    return [form.restrict(g) for g in _component_sets(form.support)]


def omega_E(form: FormZn, edges: Set[OrientedCell]) -> FormZn:
    """Sum of components having a plaquette whose boundary meets the edge set.

    Equivalent to the coboundary formulation: supp(coboundary e) meets
    supp omega_j iff some supported plaquette of omega_j has e on its boundary.
    """
    edges = {e.positive() for e in edges}
    out = FormZn(form.dim, form.n)
    for comp in connected_components(form):
        touches = any(bool(boundary(p).support & edges) for p in comp.support)
        if touches:
            for c, v in comp.values.items():
                out.set(c, v)
    return out


def omega_gamma(form: FormZn, gamma_support: Set[OrientedCell]) -> FormZn:
    """omega^gamma: components whose delta-support meets supp gamma."""
    out = FormZn(form.dim, form.n)
    for comp in connected_components(form):
        if delta(comp).support & gamma_support:
            for c, v in comp.values.items():
                out.set(c, v)
    return out


def lhd(sub: FormZn, whole: FormZn) -> bool:
    """The activity-factorization order: sub is a cleanly separated part of whole.

    True iff whole agrees with sub on supp(sub) and the delta-supports of
    sub and whole - sub are disjoint.
    """
    sub._check_compatible(whole)
    for c, v in sub.values.items():
        if whole.values.get(c, 0) != v:
            return False
    rest = whole - sub
    return not (delta(sub).support & delta(rest).support)


# ---------------------------------------------------------------------------
# Random forms and serialization
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
    out = FormZn(2, n)
    for p, ui, vi in zip(plaqs, u, vals):
        if ui < density:
            out.set(p, int(vi))
    return out


def dump_form(form: FormZn, m: int) -> str:
    """Line-based text format: header then one ``base|dirs value`` per line."""
    lines = [f"# zn-form m={m} k={form.dim} n={form.n}"]
    for c in sorted(form.values):
        base = ",".join(str(x) for x in c.base)
        dirs = ",".join(str(x) for x in c.dirs)
        lines.append(f"{base}|{dirs} {form.values[c]}")
    return "\n".join(lines) + "\n"


def load_form(text: str) -> FormZn:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if not head.startswith("# zn-form"):
        raise ValueError("missing zn-form header")
    fields = dict(tok.split("=") for tok in head.split()[2:])
    k, n = int(fields["k"]), int(fields["n"])
    out = FormZn(k, n)
    for ln in lines[1:]:
        loc, val = ln.split()
        base_s, dirs_s = loc.split("|")
        base = tuple(int(x) for x in base_s.split(","))
        dirs = tuple(int(x) for x in dirs_s.split(",")) if dirs_s else ()
        out.set(cell(base, dirs), int(val))
    return out
