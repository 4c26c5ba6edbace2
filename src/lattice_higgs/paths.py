"""Lattice paths (Wilson line supports) and their plaquette geometry.

A path is a 1-chain with coefficients in {-1, 0, 1}, connected support and
empty boundary (closed) or boundary x2 - x1 (open); its kind is read off
that boundary, never passed in.  Rectangular paths run along the boundary
of an axis-parallel rectangle and keep its descriptor, whose side lengths
enter the bounds.

|P_gamma| and the number of corner plaquettes |P_gamma,c| are counted on a
``BoxIndex`` of the path's bounding box grown by 1, clipped to the box if
one is given, so their cost does not grow with the box.  Both sets are
computed once per (path, box) and kept as read-only arrays, so a scan of
one path over many parameter points pays for them once.  A path that
leaves the box, or lies in another dimension, raises
``PreconditionError`` on every call; one along a face loses the
plaquettes beyond it.

The proof's objects that no route computes with (P_gamma and P_gamma,c
as cell labels, the completing loop gamma_R, the corner count, the
vertex set V^{gamma,omega}, the event E and the U-shaped half loop) live
in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .cells import BoxIndex, Chain, LatticeBox, OrientedCell, boundary_chain, components, edge
from .errors import PreconditionError


@dataclass(frozen=True)
class RectDescriptor:
    """Axis-parallel rectangle: corner + lengths[i] steps along axes[i]."""

    corner: Tuple[int, ...]
    axes: Tuple[int, int]
    lengths: Tuple[int, int]

    def __post_init__(self):
        a1, a2 = self.axes
        if not (1 <= a1 < a2):
            raise ValueError("axes must be distinct 1-based indices with a1 < a2")
        if min(self.lengths) < 1:
            raise ValueError("rectangle side lengths must be >= 1")

    @property
    def ell1(self) -> int:
        return min(self.lengths)

    @property
    def ell2(self) -> int:
        return max(self.lengths)


class LatticePath:
    """A Wilson-line support path, optionally tagged with its rectangle.

    Its ``kind`` is read off the chain's boundary: "closed" where it is
    empty, "open" where it is x2 - x1; any other boundary raises
    ``ValueError``.
    """

    def __init__(self, chain: Chain, rect: Optional[RectDescriptor] = None):
        if chain.dim != 1:
            raise ValueError("paths are 1-chains")
        if any(abs(v) != 1 for v in chain.coeffs.values()):
            raise ValueError("path coefficients must lie in {-1, 0, 1}")
        self.chain = chain
        self.rect = rect
        self._validate()

    def _validate(self):
        if not self.chain.coeffs:
            raise ValueError("empty path")
        if len(components(self.chain.coeffs)) != 1:
            raise ValueError("path support must be connected")
        b = sorted(boundary_chain(self.chain).coeffs.values())
        if b not in ([], [-1, 1]):
            raise ValueError("path boundary must be empty or x2 - x1")
        self.kind = "open" if b else "closed"
        if self.rect is not None:
            loop = _loop_chain(self.rect, orientation=1)
            # a connected support on the loop with the boundary above is an arc traversed one way
            if any(loop[e] == 0 for e in self.support):
                raise ValueError("path edges must lie on the rectangle boundary")

    @property
    def support(self) -> Set[OrientedCell]:
        return self.chain.support

    def __len__(self) -> int:
        return len(self.chain.coeffs)

    @property
    def m(self) -> int:
        """Dimension of the lattice the path lives in."""
        return len(next(iter(self.chain.coeffs)).base)

    def require_dim(self, m: int):
        """Raise PreconditionError unless the path lives in Z^m."""
        if self.m != m:
            raise PreconditionError(f"{self} lies in Z^{self.m}, not in Z^{m}")

    @cached_property
    def ends(self) -> np.ndarray:
        """(|gamma|, 2, m) coordinates of each support edge's tail and head, in
        chain order; built on first use, and read-only."""
        tails = np.array([e.base for e in self.chain.coeffs])
        steps = np.eye(self.m, dtype=tails.dtype)[[e.dirs[0] - 1 for e in self.chain.coeffs]]
        ends = np.stack([tails, tails + steps], axis=1)
        ends.flags.writeable = False
        return ends

    @property
    def endpoints(self) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(x1, x2) for an open path, None for a closed one."""
        if self.kind == "closed":
            return None
        b = boundary_chain(self.chain)
        x1 = x2 = None
        for c, v in b.coeffs.items():
            if v == 1:
                x2 = c.base
            else:
                x1 = c.base
        return (x1, x2)

    def __repr__(self):
        return f"LatticePath(kind={self.kind}, |support|={len(self)})"


def _loop_edges(rect: RectDescriptor) -> List[Tuple[OrientedCell, int]]:
    """Traversal-ordered (positive edge, coefficient) pairs of the CCW loop."""
    a1, a2 = rect.axes
    l1, l2 = rect.lengths
    c = rect.corner

    def shift(pt, axis, t):
        return tuple(x + (t if i == axis - 1 else 0) for i, x in enumerate(pt))

    out: List[Tuple[OrientedCell, int]] = []
    for t in range(l1):
        out.append((edge(shift(c, a1, t), a1), 1))
    far1 = shift(c, a1, l1)
    for t in range(l2):
        out.append((edge(shift(far1, a2, t), a2), 1))
    far2 = shift(c, a2, l2)
    for t in range(l1 - 1, -1, -1):
        out.append((edge(shift(far2, a1, t), a1), -1))
    for t in range(l2 - 1, -1, -1):
        out.append((edge(shift(c, a2, t), a2), -1))
    return out


def _loop_chain(rect: RectDescriptor, orientation: int = 1) -> Chain:
    coeffs: Dict[OrientedCell, int] = {}
    for e, v in _loop_edges(rect):
        coeffs[e] = orientation * v
    return Chain(1, coeffs)


def rectangle_loop(rect: RectDescriptor, orientation: int = 1) -> LatticePath:
    """Closed rectangular loop along the boundary of rect.

    orientation +1 traverses axes[0] first from the corner (counter-clockwise
    in the (axes[0], axes[1]) plane); -1 reverses every coefficient.
    """
    return LatticePath(_loop_chain(rect, orientation), rect)


def rectangle_open_path(
    rect: RectDescriptor,
    start: int,
    count: int,
    orientation: int = 1,
) -> LatticePath:
    """Open path made of ``count`` consecutive loop edges starting at ``start``.

    Indices follow the traversal order of :func:`rectangle_loop`; the result
    keeps the rectangle descriptor, whose side lengths the bounds read.
    """
    ordered = _loop_edges(rect)
    total = len(ordered)
    if not 1 <= count < total:
        raise ValueError("open path must use between 1 and perimeter-1 edges")
    coeffs: Dict[OrientedCell, int] = {}
    for i in range(start, start + count):
        e, v = ordered[i % total]
        coeffs[e] = orientation * v
    return LatticePath(Chain(1, coeffs), rect)


# ---------------------------------------------------------------------------
# Plaquette geometry along a path
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _border(gamma: LatticePath, box: Optional[LatticeBox]) -> Tuple[BoxIndex, np.ndarray, np.ndarray]:
    """(local index, P_gamma as keys, P_gamma,c as ranks) on the local index.

    A key is 2 rank + 1 for a plaquette that borders gamma in its positive
    orientation, 2 rank for one that borders it in its negative one; the
    corner plaquettes are those bordering two or more edges of gamma.  The
    local index covers gamma's bounding box grown by 1, clipped to ``box``
    unless it is None.  Raises PreconditionError if gamma leaves ``box``.
    Cached per (path object, box); the arrays are read-only, as every caller
    shares them.
    """
    ends = gamma.ends
    lo, hi = ends.min(axis=(0, 1)) - 1, ends.max(axis=(0, 1)) + 1
    if box is not None:
        gamma.require_dim(box.m)
        lo, hi = np.maximum(lo, box.lo), np.minimum(hi, box.hi)
        if (lo > hi).any():
            raise PreconditionError(f"{gamma} lies outside {box}")
    idx = BoxIndex(LatticeBox(gamma.m, tuple(lo.tolist()), tuple(hi.tolist())))
    ranks, coef = idx.path(gamma)
    signs = idx.edge_plaq_signs[ranks] * coef[:, None]
    on = signs != 0  # drops the padding columns
    plaqs = idx.edge_plaqs[ranks][on]
    keys = np.flatnonzero(np.bincount(2 * plaqs + (signs[on] > 0)))
    corners = np.flatnonzero(np.bincount(plaqs) >= 2)
    keys.flags.writeable = corners.flags.writeable = False
    return idx, keys, corners


@dataclass(frozen=True)
class GammaStats:
    """The path statistics entering the explicit bounds."""

    length: int
    p_gamma: int
    p_gamma_c: int
    ell1: int
    ell2: int


def gamma_stats(gamma: LatticePath, box: LatticeBox) -> GammaStats:
    """|gamma|, |P_gamma|, |P_gamma,c| (clipped to the box) and the side lengths; builds no labels."""
    if gamma.rect is None:
        raise PreconditionError("gamma_stats needs a rectangle descriptor")
    _, keys, corners = _border(gamma, box)
    return GammaStats(
        length=len(gamma),
        p_gamma=len(keys),
        p_gamma_c=len(corners),
        ell1=gamma.rect.ell1,
        ell2=gamma.rect.ell2,
    )
