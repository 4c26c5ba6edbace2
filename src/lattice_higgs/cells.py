"""Oriented cells, boxes and integer chains of the cubical complex on Z^m.

A k-cell is a unit k-cube spanned from a base point along k distinct
coordinate directions (1-based).  Each non-oriented cell carries two
orientations; only positively oriented cells (sorted direction tuple,
sign +1) are ever stored, and queries on negated cells are resolved by
the sign rules q[-c] = -q[c].

One sparse map on positive cells, :class:`Chain`, holds integer chains
and, as ``forms.FormZn``, Z_n forms; :func:`components` groups cells by
shared faces for both.

These labels are the reference encoding.  The package computes with
:class:`BoxIndex`, a box's cells as rank arrays with signed incidence
tables, read through :meth:`BoxIndex.path` and :func:`incidence`.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from .errors import PreconditionError

if TYPE_CHECKING:
    from .paths import LatticePath

Coord = Tuple[int, ...]

# every plaquette's boundary signs, one per column of BoxIndex.plaq_edges
PLAQ_SIGNS = np.array([1, -1, -1, 1], dtype=np.int8)


def _perm_sign(seq) -> int:
    """Sign of the permutation that sorts ``seq`` (assumed distinct)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@dataclass(frozen=True, order=True)
class OrientedCell:
    """An oriented k-cell: base point, strictly increasing dirs, sign = +-1.

    Instances are canonical by construction; use :func:`cell` to build one
    from possibly permuted direction indices.
    """

    base: Coord
    dirs: Tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if any(d < 1 for d in self.dirs):
            raise ValueError("direction indices are 1-based")
        if any(a >= b for a, b in zip(self.dirs, self.dirs[1:])):
            raise ValueError("dirs must be strictly increasing; use cell() to normalize")
        if self.dirs and self.dirs[-1] > len(self.base):
            raise ValueError(f"direction {self.dirs[-1]} exceeds the dimension {len(self.base)} of the base point")
        # every dict or set operation on a label hashes it: hash the fields once
        object.__setattr__(self, "_hash", hash((self.base, self.dirs, self.sign)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.dirs)

    @property
    def is_positive(self) -> bool:
        return self.sign == 1

    def __neg__(self) -> "OrientedCell":
        return OrientedCell(self.base, self.dirs, -self.sign)

    def positive(self) -> "OrientedCell":
        """The positively oriented cell at the same position (c^+)."""
        return self if self.sign == 1 else -self

    def __repr__(self):
        s = "" if self.sign == 1 else "-"
        return f"{s}Cell({self.base};{self.dirs})"


def cell(base, dirs=(), sign: int = 1) -> OrientedCell:
    """Build an oriented cell, normalizing a permuted direction list.

    A direction list given out of order contributes the sign of the sorting
    permutation.  Repeated directions are rejected (the cell degenerates).
    """
    dirs = tuple(dirs)
    if len(set(dirs)) != len(dirs):
        raise ValueError(f"repeated direction in {dirs}")
    if dirs != tuple(sorted(dirs)):
        sign *= _perm_sign(dirs)
        dirs = tuple(sorted(dirs))
    return OrientedCell(tuple(base), dirs, sign)


def vertex(point) -> OrientedCell:
    return OrientedCell(tuple(point), ())


def edge(base, direction: int) -> OrientedCell:
    return OrientedCell(tuple(base), (direction,))


def plaquette(base, d1: int, d2: int, sign: int = 1) -> OrientedCell:
    return cell(base, (d1, d2), sign)


@dataclass(frozen=True)
class LatticeBox:
    """An axis-parallel box of Z^m; B_N = [-N, N]^m is the common case.

    A cell is in the box iff all corners of its non-oriented cell are.
    """

    m: int
    lo: Coord
    hi: Coord

    def __post_init__(self):
        if self.m < 1 or len(self.lo) != self.m or len(self.hi) != self.m:
            raise ValueError("box bounds must be m-vectors")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("empty box")

    @classmethod
    def centered(cls, m: int, N: int) -> "LatticeBox":
        if m < 2 or N < 1:
            raise ValueError("need m >= 2 and N >= 1")
        return cls(m, (-N,) * m, (N,) * m)

    def contains(self, c: OrientedCell) -> bool:
        # All corners in the box <=> base >= lo and base + extent <= hi.
        for i in range(self.m):
            ext = 1 if (i + 1) in c.dirs else 0
            if c.base[i] < self.lo[i] or c.base[i] + ext > self.hi[i]:
                return False
        return True

    def cells(self, k: int) -> Iterator[OrientedCell]:
        """Positively oriented k-cells of the box in canonical (base, dirs) order."""
        if k < 0 or k > self.m:
            return
        for base in itertools.product(*[range(self.lo[i], self.hi[i] + 1) for i in range(self.m)]):
            for dirs in itertools.combinations(range(1, self.m + 1), k):
                c = OrientedCell(base, dirs)
                if self.contains(c):
                    yield c


class Chain:
    """A sparse formal sum of positively oriented k-cells, with integer coefficients.

    Coefficients on negated cells follow q[-c] = -q[c]; zeros are never
    stored.  Instances are treated as immutable values.  A Z_n-valued form
    (``forms.FormZn``) is the same map with its store step reducing mod n;
    every other operation here serves both kinds, and two chains combine or
    compare equal only if their kind (class, dimension, modulus) agrees.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Dict[OrientedCell, int] | None = None):
        self.dim = dim
        self.coeffs: Dict[OrientedCell, int] = {}
        if coeffs:
            for c, v in coeffs.items():
                if v:
                    self._accumulate(c, v)

    def _store(self, c: OrientedCell, v: int):
        """The coefficient of the positive cell c becomes v."""
        if v:
            self.coeffs[c] = v
        else:
            self.coeffs.pop(c, None)

    def _accumulate(self, c: OrientedCell, v: int):
        if len(c.dirs) != self.dim:
            raise ValueError(f"cell of dim {c.dim} in {self.dim}-chain")
        if c.sign < 0:
            c, v = -c, -v
        self._store(c, self.coeffs.get(c, 0) + v)

    def _like(self, dim: int, coeffs: Dict[OrientedCell, int] | None = None) -> "Chain":
        """A chain of this kind in dimension ``dim``."""
        return Chain(dim, coeffs)

    def _kind(self) -> tuple:
        """What two chains must share to be added or equal."""
        return (type(self), self.dim)

    @classmethod
    def of(cls, c: OrientedCell, coeff: int = 1) -> "Chain":
        q = cls(c.dim)
        q._accumulate(c, coeff)
        return q

    def __getitem__(self, c: OrientedCell) -> int:
        if c.is_positive:
            return self.coeffs.get(c, 0)
        return -self.coeffs.get(-c, 0)

    @property
    def support(self):
        """Set of positively oriented cells with nonzero coefficient."""
        return set(self.coeffs)

    def copy(self) -> "Chain":
        return self._like(self.dim, self.coeffs)

    def restrict(self, cells: Iterable[OrientedCell]) -> "Chain":
        """q restricted to a cell set C (matching +-C), zero elsewhere."""
        keep = {c.positive() for c in cells}
        return self._like(self.dim, {c: v for c, v in self.coeffs.items() if c in keep})

    def __add__(self, other: "Chain") -> "Chain":
        if not isinstance(other, Chain) or self._kind() != other._kind():
            raise ValueError(f"cannot combine {self!r} with {other!r}")
        out = self.copy()
        for c, v in other.coeffs.items():
            out._accumulate(c, v)
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return self._like(self.dim, {c: -v for c, v in self.coeffs.items()})

    def __rmul__(self, k: int) -> "Chain":
        return self._like(self.dim, {c: k * v for c, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, Chain) and self._kind() == other._kind() and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return f"Chain({self.dim}, 0)"
        parts = [f"{v}*{c}" for c, v in sorted(self.coeffs.items())]
        return " + ".join(parts)


def boundary(c: OrientedCell) -> Chain:
    """The boundary (k-1)-chain of an oriented k-cell.

    For an edge this is (a + e_j)^+ - a^+; in general the alternating sum
    of front/back faces.  Satisfies boundary(boundary(c)) = 0 for k >= 2.
    """
    k = c.dim
    if k == 0:
        raise PreconditionError("0-cells have no boundary")
    out = Chain(k - 1)
    for pos in range(k):  # the 2k faces are distinct positive cells
        d = c.dirs[pos]
        rest = c.dirs[:pos] + c.dirs[pos + 1 :]
        s = (-1) ** (pos + 1) * c.sign  # the paper's (-1)^{k'} with k' = pos + 1
        shifted = tuple(b + (1 if i == d - 1 else 0) for i, b in enumerate(c.base))
        out.coeffs[OrientedCell(c.base, rest)] = s
        out.coeffs[OrientedCell(shifted, rest)] = -s
    return out


def boundary_chain(q: Chain) -> Chain:
    """The boundary of q, in q's kind; for a Z_n form it is the coderivative delta."""
    out = q._like(q.dim - 1)
    for c, v in q.coeffs.items():
        for f, w in boundary(c).coeffs.items():
            out._accumulate(f, v * w)
    return out


def components(cells: Iterable[OrientedCell]) -> List[Set[OrientedCell]]:
    """Groups of positive cells linked through shared boundary faces.

    Two edges are linked when they share a vertex, two plaquettes when they
    share an edge.  Groups are ordered by their smallest member.
    """
    parent = {c: c for c in cells}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: Dict[OrientedCell, OrientedCell] = {}  # a face -> the first cell seen on it
    for c in parent:
        for f in boundary(c).coeffs:
            if f not in owner:
                owner[f] = c
                continue
            a, b = find(c), find(owner[f])
            if a is not b:
                parent[a] = b
    groups: Dict[OrientedCell, Set[OrientedCell]] = {}
    for c in parent:
        groups.setdefault(find(c), set()).add(c)
    return sorted(groups.values(), key=min)


def coboundary(c: OrientedCell, box: LatticeBox) -> Chain:
    """The coboundary (k+1)-chain of c, clipped to the box (free boundary).

    Coefficients satisfy coboundary(c)[c'] = boundary(c')[c] for every
    (k+1)-cell c' in the box.
    """
    if c.dim > box.m - 1:
        raise PreconditionError(f"coboundary undefined for k = m = {box.m}")
    if not box.contains(c.positive()):
        raise PreconditionError(f"{c} outside box")
    out = Chain(c.dim + 1)
    for d in range(1, box.m + 1):
        if d in c.dirs:
            continue
        for shift in (0, -1):
            base = tuple(b + (shift if i == d - 1 else 0) for i, b in enumerate(c.base))
            cand = cell(base, c.dirs + (d,))
            if not box.contains(cand):
                continue
            coeff = boundary(cand)[c]
            if coeff:
                out._accumulate(cand, coeff)
    return out


# ---------------------------------------------------------------------------
# The box's cells as arrays
# ---------------------------------------------------------------------------


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
    * ``edge_plaqs``/``edge_plaq_signs`` (E, 2(m-1)): its transpose (delta on
      2-forms).  Where an edge lies in fewer plaquettes, the padding repeats
      its first plaquette with sign 0, so every entry names a plaquette on
      the edge and a reader that needs no sign may skip the mask.

    ``plaq_base`` (P, m) and ``plaq_axes`` (P, 2, 0-based i < j) locate each
    plaquette, and :meth:`plaq_labels` turns plaquette ranks back into
    cells.  The cell label lists ``vertices``, ``edges``, ``plaqs`` are
    ``LatticeBox.cells`` in the same order, built on first read; the cell
    counts are the table lengths.  The heat-bath sweep's class layout is
    also built on first read: ``plaq_class``, the class of each plaquette,
    ``plaq_classes``, the members of each class, and ``scan_order``, the
    classes concatenated, whose positions index the dense sweep's draws.
    """

    def __init__(self, box: LatticeBox):
        self.box = box
        self._paths = weakref.WeakKeyDictionary()  # LatticePath -> its ``path`` pair
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

        f, c = np.nonzero(self._rank[2] >= 0)
        self.plaq_axes = np.array(self._dirs[2], dtype=int).reshape(-1, 2)[c] - 1
        self.plaq_base = grid[f] + self._lo
        i, j = self.plaq_axes.T
        self.plaq_edges = np.stack([edge[f, i], edge[f, j], edge[f + s[j], i], edge[f + s[i], j]], axis=1)
        self.plaq_signs = np.tile(PLAQ_SIGNS, (len(f), 1))

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
        self.edge_plaqs = np.where(self.edge_plaq_signs != 0, self.edge_plaqs, self.edge_plaqs[:, :1])

    @cached_property
    def vertices(self) -> List[OrientedCell]:
        return list(self.box.cells(0))

    @cached_property
    def edges(self) -> List[OrientedCell]:
        return list(self.box.cells(1))

    @cached_property
    def plaqs(self) -> List[OrientedCell]:
        return list(self.box.cells(2))

    @cached_property
    def plaq_class(self) -> np.ndarray:
        """The class of each plaquette (P,); no two of a class share an edge.

        Class (plane {i, j}, (b_i + b_j) mod 2): two plaquettes of one plane that
        share an edge are neighbours in it, so their b_i + b_j differ by one.
        Classes are numbered plane by plane in canonical order, parity 0 first.
        """
        rows = np.arange(len(self.plaq_axes))
        i, j = self.plaq_axes.T
        parity = (self.plaq_base[rows, i] + self.plaq_base[rows, j]) % 2
        return np.unique(2 * (i * self.box.m + j) + parity, return_inverse=True)[1]

    @cached_property
    def plaq_classes(self) -> List[np.ndarray]:
        """The members of each class, in canonical order."""
        return [np.flatnonzero(self.plaq_class == c) for c in range(self.plaq_class.max() + 1)]

    @cached_property
    def scan_order(self) -> np.ndarray:
        """The sweep's scan order (P,): the plaquettes of ``plaq_classes`` concatenated."""
        return np.concatenate(self.plaq_classes)

    def plaq_labels(self, ranks) -> List[OrientedCell]:
        """Positive plaquette cells of the given ranks, built from ``plaq_base``/``plaq_axes``."""
        bases = self.plaq_base[ranks].tolist()
        dirs = (self.plaq_axes[ranks] + 1).tolist()
        return [OrientedCell(tuple(b), tuple(d)) for b, d in zip(bases, dirs)]

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

    def path(self, gamma: LatticePath) -> Tuple[np.ndarray, np.ndarray]:
        """(edge ranks, coefficients) of gamma's support, in the chain's order.

        Built once per path and index, and read-only.  Raises
        PreconditionError if gamma's dimension is not the box's, or if any
        edge of gamma is not in the box.
        """
        pair = self._paths.get(gamma)
        if pair is None:
            gamma.require_dim(self.box.m)
            coeffs = gamma.chain.coeffs
            pair = self.ids(coeffs), np.fromiter(coeffs.values(), dtype=np.int16, count=len(coeffs))
            for a in pair:
                a.flags.writeable = False
            self._paths[gamma] = pair
        return pair

    def gamma_coeffs(self, gamma: LatticePath) -> np.ndarray:
        """gamma's coefficient on every edge of the box (0 off its support)."""
        ranks, coef = self.path(gamma)
        out = np.zeros(len(self.edge_verts), dtype=np.int8)
        out[ranks] = coef
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
