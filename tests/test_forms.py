import numpy as np
import pytest

from lattice_higgs.cells import Chain, LatticeBox, edge, plaquette, vertex
from lattice_higgs.forms import (
    FormZn,
    connected_components,
    d,
    delta,
    delta_edge,
    lhd,
    random_form,
)
from lattice_higgs.errors import PreconditionError
from reference import omega_E, omega_gamma


def test_sign_rule_and_even_support():
    f = FormZn(2, 3, {plaquette((0, 0), 1, 2): 2})
    p = plaquette((0, 0), 1, 2)
    assert f(p) == 2 and f(-p) == 1  # -2 mod 3
    # oriented support contains the cell with both orientations
    assert f.support == {p}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_form_reads_agree_on_both_orientations(n):
    # w[c] and w(c) read one residue in 0..n-1 on c and on -c, non-zero on both or on neither
    p, q = plaquette((0, 0), 1, 2), plaquette((1, 0), 1, 2)
    for v in range(n):
        w = FormZn(2, n, {p: v})
        assert (w[p], w[-p]) == (v, -v % n)
        for c in (p, -p, q, -q):
            assert w[c] == w(c)
            assert (w(c) != 0) == (c.positive() in w.support)


def test_d_of_zero_is_zero():
    box = LatticeBox.centered(2, 1)
    assert d(FormZn(0, 2), box).is_zero()


def test_dd_zero_exhaustive_small():
    # every 0-form on B_1 with m = 2, n = 2 has dd = 0 (exhaustive over 2^9)
    box = LatticeBox.centered(2, 1)
    verts = list(box.cells(0))
    for mask in range(2 ** len(verts)):
        f = FormZn(0, 2, {v: (mask >> i) & 1 for i, v in enumerate(verts)})
        assert d(d(f, box), box).is_zero()


def test_dd_and_deltadelta_random():
    rng = np.random.default_rng(7)
    for m, N, n in [(2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 1, 3)]:
        box = LatticeBox.centered(m, N)
        for trial in range(20):
            w = random_form(box, n, 0.3, seed=int(rng.integers(1 << 30)))
            assert delta(delta(w)).is_zero()
            f1 = FormZn(1, n, {e: int(rng.integers(n)) for e in box.cells(1)})
            if m >= 3:
                assert d(d(f1, box), box).is_zero()
            f0 = FormZn(0, n, {v: int(rng.integers(n)) for v in box.cells(0)})
            assert d(d(f0, box), box).is_zero()


def test_d_of_vertex_indicator():
    from lattice_higgs.cells import boundary

    box = LatticeBox.centered(2, 1)
    v = vertex((0, 0))
    f = FormZn(0, 2, {v: 1})
    df = d(f, box)
    incident = {e for e in box.cells(1) if v in boundary(e).support}
    assert df.support == incident


def test_delta_single_plaquette():
    box = LatticeBox.centered(2, 1)
    p = plaquette((0, 0), 1, 2)
    w = FormZn(2, 2, {p: 1})
    dw = delta(w)
    from lattice_higgs.cells import boundary

    assert dw.support == boundary(p).support


def test_delta_matches_coboundary_sum():
    # Stokes duality: accumulation route vs per-edge coboundary route
    box = LatticeBox.centered(3, 1)
    w = random_form(box, 3, 0.25, seed=99)
    dw = delta(w)
    for e in box.cells(1):
        assert dw(e) == delta_edge(w, e, box)


def test_delta_of_zero():
    assert delta(FormZn(2, 5)).is_zero()


def test_connected_components_cases():
    box = LatticeBox.centered(2, 2)
    assert connected_components(FormZn(2, 2)) == []
    # sharing an edge: one component
    w = FormZn(2, 2, {plaquette((0, 0), 1, 2): 1, plaquette((1, 0), 1, 2): 1})
    assert len(connected_components(w)) == 1
    # distance >= 2 in the same plane: two components
    w2 = FormZn(2, 2, {plaquette((-2, 0), 1, 2): 1, plaquette((1, 0), 1, 2): 1})
    assert len(connected_components(w2)) == 2
    # diagonal plaquettes share only a vertex: two components
    w3 = FormZn(2, 2, {plaquette((0, 0), 1, 2): 1, plaquette((1, 1), 1, 2): 1})
    assert len(connected_components(w3)) == 2


def test_components_partition_the_form():
    box = LatticeBox.centered(2, 3)
    w = random_form(box, 3, 0.3, seed=5)
    comps = connected_components(w)
    total = FormZn(2, 3)
    for c in comps:
        total = total + c
    assert total == w


def test_omega_gamma_filters_far_components():
    box = LatticeBox.centered(2, 3)
    gamma_edges = {edge((0, 0), 1)}
    near = plaquette((0, 0), 1, 2)  # contains the gamma edge
    far = plaquette((2, 2), 1, 2)
    w = FormZn(2, 2, {near: 1, far: 1})
    og = omega_gamma(w, gamma_edges)
    assert og.support == {near}
    og2 = omega_E(w, gamma_edges)
    assert og2.support == {near}
    assert omega_gamma(FormZn(2, 2), gamma_edges).is_zero()


def test_lhd_basics():
    box = LatticeBox.centered(2, 3)
    w = FormZn(2, 2, {plaquette((0, 0), 1, 2): 1, plaquette((2, 2), 1, 2): 1})
    z = FormZn(2, 2)
    assert lhd(z, w)
    assert lhd(w, w)
    one = FormZn(2, 2, {plaquette((0, 0), 1, 2): 1})
    assert lhd(one, w)  # one component of a two-component form
    # adjacent pair: the single plaquette is NOT cleanly separated
    w2 = FormZn(2, 2, {plaquette((0, 0), 1, 2): 1, plaquette((1, 0), 1, 2): 1})
    assert not lhd(one, w2)
    with pytest.raises(ValueError):
        lhd(FormZn(1, 2), w)


def test_lhd_partial_order_on_component_unions():
    box = LatticeBox.centered(2, 4)
    rng = np.random.default_rng(11)
    for trial in range(25):
        w = random_form(box, 2, 0.15, seed=int(rng.integers(1 << 30)))
        comps = connected_components(w)
        if len(comps) < 2:
            continue
        k = len(comps)
        picks = sorted(rng.choice(k, size=min(3, k), replace=False))
        union = lambda ids: sum((comps[i] for i in ids), FormZn(2, 2))
        j1 = picks[:1]
        j2 = picks[:2]
        j3 = picks
        w1, w2, w3 = union(j1), union(j2), union(j3)
        # reflexive, nested order, antisymmetry, transitivity instances
        assert lhd(w1, w1)
        assert lhd(w1, w2) and lhd(w2, w3) and lhd(w1, w3)
        if w1 != w2:
            assert not (lhd(w2, w1))


def test_lemma_nested_edge_sets():
    # omega^{E1} lhd omega^{E2} for nested edge sets
    box = LatticeBox.centered(2, 4)
    rng = np.random.default_rng(3)
    edges = list(box.cells(1))
    for trial in range(25):
        w = random_form(box, 3, 0.15, seed=int(rng.integers(1 << 30)))
        ids = rng.choice(len(edges), size=8, replace=False)
        e1 = {edges[i] for i in ids[:3]}
        e2 = e1 | {edges[i] for i in ids[3:]}
        assert lhd(omega_E(w, e1), omega_E(w, e2))


def test_random_form_contract():
    box = LatticeBox.centered(2, 2)
    assert random_form(box, 2, 0.0, seed=1).is_zero()
    full = random_form(box, 2, 1.0, seed=1)
    assert full.support == set(box.cells(2))
    assert all(v == 1 for v in full.coeffs.values())
    a = random_form(box, 4, 0.4, seed=123)
    b = random_form(box, 4, 0.4, seed=123)
    assert a == b
    with pytest.raises(PreconditionError):
        random_form(box, 2, 1.5, seed=0)


def test_forms_and_chains_do_not_mix():
    p = plaquette((0, 0), 1, 2)
    assert Chain(2, {p: 1}) != FormZn(2, 2, {p: 1})
    assert FormZn(2, 2, {p: 1}) != Chain(2, {p: 1})
    assert FormZn(2, 2, {p: 1}) != FormZn(2, 3, {p: 1})
    for x, y in [
        (FormZn(2, 2, {p: 1}), Chain(2, {p: 1})),
        (Chain(2, {p: 1}), FormZn(2, 2, {p: 1})),
        (FormZn(2, 2, {p: 1}), FormZn(2, 3, {p: 1})),
        (FormZn(2, 2, {p: 1}), FormZn(1, 2)),
    ]:
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y


def test_delta_of_a_z3_form_is_a_z3_form():
    # delta(p00 + 2 p10): the shared edge ((1,0);2) gets 1 - 2 = -1 = 2 mod 3
    w = FormZn(2, 3, {plaquette((0, 0), 1, 2): 1, plaquette((1, 0), 1, 2): 2})
    dw = delta(w)
    assert type(dw) is FormZn and (dw.dim, dw.n) == (1, 3)
    assert set(dw.coeffs.values()) <= {1, 2}
    assert dw(edge((1, 0), 2)) == 2 and dw(-edge((1, 0), 2)) == 1
    assert dw(edge((0, 0), 2)) == 2 and dw(edge((2, 0), 2)) == 2
    assert len(dw.support) == 7
    ddw = delta(dw)
    assert type(ddw) is FormZn and (ddw.dim, ddw.n) == (0, 3) and ddw.is_zero()
