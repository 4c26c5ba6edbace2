import copy
import pickle

import numpy as np
import pytest

from lattice_higgs.cells import (
    Chain,
    LatticeBox,
    OrientedCell,
    boundary,
    boundary_chain,
    cell,
    coboundary,
    components,
    edge,
    plaquette,
    vertex,
)
from lattice_higgs.errors import PreconditionError


def test_negation_and_canonical_form():
    c = cell((0, 0), (2, 1))  # permuted dirs pick up the permutation sign
    assert c.dirs == (1, 2) and c.sign == -1
    assert -(-c) == c
    with pytest.raises(ValueError):
        cell((0, 0), (1, 1))


def test_equal_cells_hash_equally():
    # the stored hash follows equality through every way a cell is made
    c = cell((1, -2, 0), (3, 1))
    same = [
        cell((1, -2, 0), (1, 3), -1),
        cell(np.array([1, -2, 0]), (3, 1)),
        -cell((1, -2, 0), (1, 3)),
        -(-c),
        c.positive().__neg__(),
        OrientedCell((1, -2, 0), (1, 3), -1),
        copy.copy(c),
        copy.deepcopy(c),
        pickle.loads(pickle.dumps(c)),
    ]
    for d in same:
        assert d == c and hash(d) == hash(c)
    plus = c.positive()
    assert plus != c and plus == -c and hash(plus) == hash(-c)
    assert plus == pickle.loads(pickle.dumps(plus)) and hash(plus) == hash(cell((1, -2, 0), (1, 3)))
    assert len({c, *same, plus, -plus}) == 2
    assert {c: 1}[pickle.loads(pickle.dumps(-plus))] == 1


def test_boundary_of_edge_matches_definition():
    e = edge((0, 0), 1)
    b = boundary(e)
    assert b[vertex((1, 0))] == 1
    assert b[vertex((0, 0))] == -1
    assert len(b.support) == 2


def test_boundary_of_negated_cell_flips():
    p = plaquette((0, 0), 1, 2)
    assert boundary(-p) == -boundary(p)


def test_plaquette_boundary_has_four_signed_edges():
    for base in [(0, 0), (-1, 3), (2, -2)]:
        b = boundary(plaquette(base, 1, 2))
        assert len(b.support) == 4
        assert sorted(b.coeffs.values()) == [-1, -1, 1, 1]


def test_boundary_squared_vanishes_exhaustively():
    # all 2- and 3-cells of small boxes
    for m, N in [(2, 2), (3, 1)]:
        box = LatticeBox.centered(m, N)
        for k in (2, 3):
            if k > m:
                continue
            for c in box.cells(k):
                assert boundary_chain(boundary(c)).is_zero()


def test_boundary_of_vertex_rejected():
    with pytest.raises(PreconditionError):
        boundary(vertex((0, 0)))


def test_chain_sign_rule():
    e = edge((0, 0), 1)
    q = Chain.of(e, 3)
    assert q[e] == 3 and q[-e] == -3
    assert (q - q).is_zero() and repr(q - q) == "Chain(1, 0)"
    assert (2 * q)[e] == 6


def test_chain_membership_convention():
    e = edge((0, 0), 1)
    # the paper's ``c in q`` is q[c] > 0, on either orientation
    q = Chain.of(e, 1) + Chain.of(edge((1, 0), 1), -1)
    assert q[e] > 0
    assert not q[-e] > 0
    assert q[-edge((1, 0), 1)] > 0


def test_box_membership_uses_corners():
    box = LatticeBox.centered(2, 1)
    assert box.contains(plaquette((0, 0), 1, 2))
    assert not box.contains(plaquette((1, 0), 1, 2))  # sticks out at x = 2
    assert box.contains(edge((1, 0), 2))


def test_box_counts_m2():
    box = LatticeBox.centered(2, 1)
    assert len(list(box.cells(0))) == 9
    assert len(list(box.cells(1))) == 12
    assert len(list(box.cells(2))) == 4
    assert list(box.cells(-1)) == list(box.cells(3)) == []


def test_coboundary_duality_by_direct_expansion():
    # coboundary(e)[p] must equal boundary(p)[e] for every pair in the box
    box = LatticeBox.centered(2, 1)
    for e in box.cells(1):
        cb = coboundary(e, box)
        for p in box.cells(2):
            assert cb[p] == boundary(p)[e]


def test_coboundary_counts():
    box4 = LatticeBox.centered(4, 1)
    inner = edge((0, 0, 0, 0), 1)
    assert len(coboundary(inner, box4).support) == 6  # 2(m-1) coordinate planes
    box2 = LatticeBox.centered(2, 1)
    assert len(coboundary(edge((0, 0), 1), box2).support) == 2
    assert len(coboundary(edge((-1, -1), 1), box2).support) == 1  # clipped at the face


def test_coboundary_outside_box_rejected():
    box = LatticeBox.centered(2, 1)
    with pytest.raises(PreconditionError):
        coboundary(edge((5, 5), 1), box)


def test_canonical_cell_order_is_sorted():
    box = LatticeBox.centered(2, 1)
    seq = [(c.base, c.dirs) for c in box.cells(1)]
    assert seq == sorted(seq)


def test_components_of_edges():
    # an L-shape shares its corner vertex: one group
    ell = {edge((0, 0), 1), edge((1, 0), 2)}
    assert components(ell) == [ell]
    # parallel edges one step apart share no vertex: two groups, smallest first
    low, high = edge((0, 0), 1), edge((0, 1), 1)
    assert components([high, low]) == [{low}, {high}]
    assert components([]) == []


def test_components_of_plaquettes_in_pinned_order():
    a = plaquette((0, 0, 0), 1, 2)
    b = plaquette((0, 0, 0), 1, 3)  # shares edge ((0,0,0);1) with a
    c = plaquette((0, 0, 1), 1, 2)  # shares edge ((0,0,1);1) with b
    far = plaquette((-1, -1, -1), 2, 3)
    beside = plaquette((2, 0, 0), 1, 2)  # one step past a: no shared edge
    diagonal = plaquette((1, 1, 0), 1, 2)  # meets a at a vertex only
    got = components([beside, c, diagonal, far, b, a])
    assert got == [{far}, {a, b, c}, {diagonal}, {beside}]
