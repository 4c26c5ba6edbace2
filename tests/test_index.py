"""The arithmetic BoxIndex and the incidence kernel against the cell-label route."""

import numpy as np
import pytest

from lattice_higgs.cells import LatticeBox, boundary, coboundary, edge
from lattice_higgs.errors import PreconditionError
from lattice_higgs.forms import FormZn, d, delta, random_form
from lattice_higgs.oracle import BoxIndex, incidence
from lattice_higgs.paths import RectDescriptor, rectangle_loop

BOXES = [LatticeBox.centered(m, N) for m, N in ((2, 1), (2, 2), (2, 16), (3, 1), (3, 3), (4, 1), (4, 3))] + [
    LatticeBox(3, (0, 0, 0), (1, 1, 1)),
    LatticeBox(2, (-3, 1), (2, 4)),
]


def box_id(box):
    return f"{box.lo}..{box.hi}".replace(" ", "")


@pytest.mark.parametrize("box", BOXES, ids=box_id)
def test_index_matches_boundary(box):
    idx = BoxIndex(box)
    verts, edges, plaqs = (list(box.cells(k)) for k in range(3))
    assert (idx.vertices, idx.edges, idx.plaqs) == (verts, edges, plaqs)
    for cells_ in (verts, edges, plaqs):
        assert np.array_equal(idx.ids(cells_), np.arange(len(cells_)))
    vid = {c: i for i, c in enumerate(verts)}
    eid = {c: i for i, c in enumerate(edges)}
    tails = [vid[v] for e in edges for v, s in boundary(e).coeffs.items() if s < 0]
    heads = [vid[v] for e in edges for v, s in boundary(e).coeffs.items() if s > 0]
    assert np.array_equal(idx.edge_verts[:, 0], tails) and np.array_equal(idx.edge_verts[:, 1], heads)
    items = [sorted(boundary(p).coeffs.items()) for p in plaqs]
    assert np.array_equal(idx.plaq_edges, [[eid[e] for e, _ in it] for it in items])
    assert np.array_equal(idx.plaq_signs, [[s for _, s in it] for it in items])
    assert np.array_equal(idx.plaq_base, [p.base for p in plaqs])
    assert np.array_equal(idx.plaq_axes + 1, [p.dirs for p in plaqs])
    assert idx.plaq_labels(np.arange(len(plaqs))) == plaqs
    # the edge -> plaquette table is the box-clipped coboundary
    pid = {c: i for i, c in enumerate(plaqs)}
    for e, row, signs in zip(edges, idx.edge_plaqs, idx.edge_plaq_signs):
        got = {int(q): int(s) for q, s in zip(row, signs) if s}
        assert got == {pid[q]: s for q, s in coboundary(e, box).coeffs.items()}


@pytest.mark.parametrize("box", [LatticeBox.centered(2, 2), LatticeBox.centered(3, 1), BOXES[-2], BOXES[-1]], ids=box_id)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_incidence_matches_forms(box, n):
    idx = BoxIndex(box)
    rng = np.random.default_rng(n)
    dense = lambda form, cells_: np.array([form(c) for c in cells_])
    for _ in range(3):
        phi = FormZn(0, n, {v: int(rng.integers(n)) for v in idx.vertices})
        sigma = FormZn(1, n, {e: int(rng.integers(n)) for e in idx.edges})
        omega = random_form(box, n, 0.5, seed=int(rng.integers(1 << 30)))
        got = incidence(dense(phi, idx.vertices)[None], idx.edge_verts, idx.edge_vert_signs, n)[0]
        assert np.array_equal(got, dense(d(phi, box), idx.edges))
        got = incidence(dense(sigma, idx.edges)[None], idx.plaq_edges, idx.plaq_signs, n)[0]
        assert np.array_equal(got, dense(d(sigma, box), idx.plaqs))
        got = incidence(dense(omega, idx.plaqs)[None], idx.edge_plaqs, idx.edge_plaq_signs, n)[0]
        assert np.array_equal(got, dense(delta(omega), idx.edges))


@pytest.mark.parametrize("box", BOXES, ids=box_id)
def test_class_positions_invert_the_class_order(box):
    # the class of each plaquette inverts the class lists, whose concatenation
    # is the scan order
    idx = BoxIndex(box)
    order = np.concatenate(idx.plaq_classes)
    P = len(idx.plaq_edges)
    assert np.array_equal(idx.scan_order, order)
    assert np.array_equal(np.sort(order), np.arange(P))
    sizes = [len(cls) for cls in idx.plaq_classes]
    assert np.array_equal(idx.plaq_class[order], np.repeat(np.arange(len(sizes)), sizes))
    # each edge's row names its own plaquettes, the padding repeating the first
    ep = idx.edge_plaqs
    assert np.array_equal(ep, np.where(idx.edge_plaq_signs != 0, ep, ep[:, :1]))
    assert (idx.edge_plaq_signs[:, 0] != 0).all()


def test_ids_reject_cells_outside_the_box():
    idx = BoxIndex(LatticeBox.centered(2, 1))
    # base in the box but head outside it; base outside the box
    for bad in (edge((1, 1), 1), edge((5, 0), 2)):
        with pytest.raises(PreconditionError):
            idx.ids([idx.edges[0], bad])


def test_path_pair_is_built_once_and_read_only():
    # one pair per (index, path), which every estimate_wilson call shares
    idx = BoxIndex(LatticeBox.centered(2, 2))
    loop = rectangle_loop(RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(2, 1)))
    ranks, coef = idx.path(loop)
    again = idx.path(loop)
    assert again[0] is ranks and again[1] is coef
    assert np.array_equal(ranks, idx.ids(loop.chain.coeffs))
    assert coef.tolist() == list(loop.chain.coeffs.values())
    for a in (ranks, coef):
        with pytest.raises(ValueError):
            a[0] = 0
    # another index of the same box ranks the path again, to the same values
    other = BoxIndex(idx.box).path(loop)
    assert other[0] is not ranks and np.array_equal(other[0], ranks)
