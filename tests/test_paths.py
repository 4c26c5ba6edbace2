import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from lattice_higgs import paths
from lattice_higgs.cells import BoxIndex, Chain, LatticeBox, OrientedCell, boundary, boundary_chain, edge, plaquette
from lattice_higgs.couplings import ModelParams
from lattice_higgs.errors import PreconditionError
from lattice_higgs.forms import FormZn
from lattice_higgs.oracle import expect_form, expect_unitary
from lattice_higgs.paths import GammaStats, LatticePath, RectDescriptor, gamma_stats, rectangle_loop, rectangle_open_path
from lattice_higgs.sampler import ChainEnsemble, estimate_wilson
from reference import (
    corner_count,
    corner_plaquettes,
    form_distribution,
    gamma_R,
    in_event_E,
    p_gamma,
    rectangle_p_gamma_count,
    u_shaped_path,
    v_set,
)

BOX = LatticeBox.centered(2, 8)
RECT44 = RectDescriptor(corner=(-2, -2), axes=(1, 2), lengths=(4, 4))


def straight_path(y=0, x0=-2, length=4, m=2):
    coeffs = {edge((x0 + t, y), 1): 1 for t in range(length)}
    return LatticePath(Chain(1, coeffs))


def test_rectangle_loop_shape():
    loop = rectangle_loop(RECT44)
    assert loop.kind == "closed"
    assert len(loop) == 16
    assert loop.endpoints is None


def test_open_path_endpoints():
    p = rectangle_open_path(RECT44, start=0, count=2)
    assert p.kind == "open"
    x1, x2 = p.endpoints
    assert x1 == (-2, -2) and x2 == (0, -2)


def test_ends_are_built_once_and_read_only():
    # one array per path, which callers share, so none of them may write it
    p = rectangle_open_path(RECT44, start=0, count=2)
    ends = p.ends
    assert p.ends is ends and not ends.flags.writeable
    assert ends.tolist() == [[[-2, -2], [-1, -2]], [[-1, -2], [0, -2]]]
    with pytest.raises(ValueError):
        ends[0, 0, 0] = 5


def test_path_validation_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        LatticePath(Chain(1, {edge((0, 0), 1): 2}))
    # disconnected support
    with pytest.raises(ValueError):
        LatticePath(Chain(1, {edge((0, 0), 1): 1, edge((5, 5), 1): 1}))
    # two edges into one vertex: boundary 2 (1, 0) - (0, 0) - (2, 0)
    with pytest.raises(ValueError, match=r"^path boundary must be empty or x2 - x1$"):
        LatticePath(Chain(1, {edge((0, 0), 1): 1, edge((1, 0), 1): -1}))


def test_rectangle_paths_report_the_kind_their_boundary_gives():
    for rect in (RECT44, RectDescriptor(corner=(0, 1, 0), axes=(1, 3), lengths=(2, 3))):
        total = 2 * sum(rect.lengths)
        for orientation in (1, -1):
            built = [rectangle_loop(rect, orientation)] + [
                rectangle_open_path(rect, start, count, orientation) for start in range(total) for count in range(1, total)
            ]
            for path in built:
                assert path.kind == ("closed" if boundary_chain(path.chain).is_zero() else "open")
            assert [p.kind for p in built] == ["closed"] + ["open"] * (total * (total - 1))


LOOP44 = paths._loop_edges(RECT44)  # (edge, coefficient) pairs in traversal order


# a support on the rectangle that is connected and passes the boundary check is an arc or the
# whole loop traversed one way, so these inputs, which aim at a mixed orientation or at a cycle
# off the rectangle, are refused by the boundary check or the rectangle check
@pytest.mark.parametrize(
    "pairs, message",
    [
        ([LOOP44[0], (LOOP44[1][0], -LOOP44[1][1]), LOOP44[2]], "path boundary must be empty or x2 - x1"),
        (LOOP44[:5] + [(LOOP44[5][0], -LOOP44[5][1])] + LOOP44[6:], "path boundary must be empty or x2 - x1"),
        (list(boundary(plaquette((-2, -2), 1, 2)).coeffs.items()), "path edges must lie on the rectangle boundary"),
    ],
    ids=["arc-one-edge-reversed", "loop-one-edge-reversed", "cycle-not-the-rectangle"],
)
def test_rectangle_path_validation_refuses_by_an_earlier_check(pairs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LatticePath(Chain(1, dict(pairs)), RECT44)


def test_gamma_r_for_open_paths():
    p = rectangle_open_path(RECT44, start=0, count=5)
    loop = gamma_R(p)
    assert loop.kind == "closed"
    assert all(loop.chain[e] == p.chain[e] for e in p.support)
    q = rectangle_open_path(RECT44, start=0, count=5, orientation=-1)
    loopq = gamma_R(q)
    assert all(loopq.chain[e] == q.chain[e] for e in q.support)


def test_corner_plaquettes_rectangular_loop():
    loop = rectangle_loop(RECT44)
    pc = corner_plaquettes(loop)
    assert len(pc) == 4
    # the four inside-corner plaquettes of the 4x4 rectangle at (-2,-2)
    expected = {
        plaquette((-2, -2), 1, 2),
        plaquette((1, -2), 1, 2),
        plaquette((-2, 1), 1, 2),
        plaquette((1, 1), 1, 2),
    }
    assert pc == expected


def test_corner_plaquettes_straight_and_L():
    assert corner_plaquettes(straight_path()) == set()
    # L-shaped path: exactly one corner plaquette
    L = rectangle_open_path(RECT44, start=2, count=4)  # 2 edges + corner + 2 edges
    assert len(corner_plaquettes(L)) == 1


def test_p_gamma_straight_segment():
    seg = straight_path(length=4)
    pg = p_gamma(seg, BOX)
    assert len(pg) == 2 * (2 - 1) * 4  # 2(m-1) per edge, no corners
    assert len(pg) == rectangle_p_gamma_count(seg)


def test_p_gamma_loop_merges_corners():
    loop = rectangle_loop(RECT44)
    pg = p_gamma(loop, BOX)
    # union semantics: each of the 4 corners merges one oriented plaquette
    assert len(pg) == 2 * (2 - 1) * 16 - 4
    assert len(pg) == rectangle_p_gamma_count(loop)
    # inside corner plaquette appears exactly once, consistently oriented
    corner = plaquette((-2, -2), 1, 2)
    assert corner in pg and -corner not in pg


def test_p_gamma_orientation_consistency():
    seg = straight_path(y=0, x0=0, length=1)
    pg = p_gamma(seg, BOX)
    above = plaquette((0, 0), 1, 2)
    below = plaquette((0, -1), 1, 2)
    assert above in pg
    assert -below in pg


def test_p_gamma_m3_counts():
    box3 = LatticeBox.centered(3, 4)
    rect = RectDescriptor(corner=(-1, -1, 0), axes=(1, 2), lengths=(2, 2))
    loop = rectangle_loop(rect)
    pg = p_gamma(loop, box3)
    assert len(pg) == 2 * (3 - 1) * 8 - 4
    assert len(pg) == rectangle_p_gamma_count(loop)


def test_corner_count_and_v_set():
    loop = rectangle_loop(RECT44)
    z = FormZn(2, 2)
    assert corner_count(z, loop) == 0
    assert v_set(z, loop) == set()

    # single non-corner plaquette bordering gamma: no corners, two kink vertices
    p = plaquette((-1, -2), 1, 2)  # bottom side, not at a corner
    w = FormZn(2, 2, {p: 1})
    assert corner_count(w, loop) == 0
    assert len(v_set(w, loop)) == 2

    # corner plaquette with both gamma edges in supp delta: one corner
    wc = FormZn(2, 2, {plaquette((-2, -2), 1, 2): 1})
    assert corner_count(wc, loop) == 1


def test_v_set_needs_rectangle():
    seg = straight_path()
    with pytest.raises(PreconditionError):
        v_set(FormZn(2, 2), seg)


def test_in_event_E_cases():
    loop = rectangle_loop(RECT44)
    assert in_event_E(FormZn(2, 2), loop)
    # isolated plaquette bordering gamma, not a corner
    w = FormZn(2, 2, {plaquette((-1, -2), 1, 2): 1})
    assert in_event_E(w, loop)
    # two adjacent plaquettes with one bordering gamma
    w2 = FormZn(2, 2, {plaquette((-1, -2), 1, 2): 1, plaquette((-1, -1), 1, 2): 1})
    assert not in_event_E(w2, loop)
    # supported corner plaquette with both gamma edges active
    w3 = FormZn(2, 2, {plaquette((-2, -2), 1, 2): 1})
    assert not in_event_E(w3, loop)


def test_gamma_stats(monkeypatch):
    loop = rectangle_loop(RECT44)
    st = gamma_stats(loop, BOX)
    assert st == GammaStats(length=16, p_gamma=28, p_gamma_c=4, ell1=4, ell2=4)
    pg, pc = p_gamma(loop, BOX), corner_plaquettes(loop, BOX)
    # every caller shares the cached arrays, so none of them may write them
    _, keys, corners = paths._border(loop, BOX)
    assert not keys.flags.writeable and not corners.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 0

    # later calls for the same (path, box) build, gather and rank nothing
    def refuse(*args, **kwargs):
        raise AssertionError("recomputed")

    for owner, name in ((paths, "BoxIndex"), (BoxIndex, "path")):
        monkeypatch.setattr(owner, name, refuse)
    assert gamma_stats(loop, BOX) == st
    assert p_gamma(loop, BOX) == pg and corner_plaquettes(loop, BOX) == pc


def test_u_shaped_path():
    u = u_shaped_path(RECT44)
    assert u.kind == "open"
    assert len(u) == 12  # bottom 4 + right 4 + left 4
    assert len(corner_plaquettes(u)) == 2


# -- the label-set route, kept as the reference for the BoxIndex gather ------


def _plaquettes_with_edge(e, m, box):
    """Positive plaquettes whose boundary supports the positive edge e."""
    (d1,) = e.dirs
    out = []
    for d in range(1, m + 1):
        if d == d1:
            continue
        lo, hi = min(d1, d), max(d1, d)
        for shift in (0, -1):
            base = tuple(b + (shift if i == d - 1 else 0) for i, b in enumerate(e.base))
            p = OrientedCell(base, (lo, hi))
            if box is None or box.contains(p):
                out.append(p)
    return out


def corner_plaquettes_by_labels(gamma, m=None, box=None):
    """P_{gamma,c}: positive plaquettes with >= 2 support edges of gamma on their boundary."""
    m = m if m is not None else len(next(iter(gamma.support)).base)
    supp = gamma.support
    counts = {}
    for e in supp:
        for p in _plaquettes_with_edge(e, m, box):
            counts[p] = counts.get(p, 0) + 1
    return {p for p, k in counts.items() if k >= 2}


def p_gamma_by_labels(gamma, box):
    """P_gamma: oriented plaquettes bordering gamma with consistent orientation."""
    out = set()
    for f in gamma.support:
        ge = gamma.chain[f]
        for p in _plaquettes_with_edge(f, box.m, box):
            s = boundary(p)[f]
            out.add(p if s * ge > 0 else -p)
    return out


def random_paths(m, N, count, seed):
    """Rectangle loops, U-shaped and open paths inside B_N, half of them on a face."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        a, b = sorted(rng.choice(np.arange(1, m + 1), size=2, replace=False).tolist())
        lengths = tuple(int(x) for x in rng.integers(1, min(2 * N, 4) + 1, size=2))
        top = [N] * m
        top[a - 1], top[b - 1] = N - lengths[0], N - lengths[1]
        corner = [int(rng.integers(-N, t + 1)) for t in top]
        if i % 2:  # push one coordinate onto a face of the box
            k = int(rng.integers(m))
            corner[k] = -N if rng.random() < 0.5 else top[k]
        rect = RectDescriptor(corner=tuple(corner), axes=(a, b), lengths=lengths)
        orientation = 1 if rng.random() < 0.5 else -1
        kind = i % 3
        if kind == 0:
            yield rectangle_loop(rect, orientation=orientation)
        elif kind == 1:
            yield u_shaped_path(rect, orientation=orientation)
        else:
            perimeter = 2 * sum(lengths)
            start, n_edges = int(rng.integers(perimeter)), int(rng.integers(1, perimeter))
            yield rectangle_open_path(rect, start=start, count=n_edges, orientation=orientation)


@pytest.mark.parametrize("m, N", [(2, 4), (2, 16), (3, 3), (4, 2)])
def test_gather_matches_label_route(m, N):
    box, wider = LatticeBox.centered(m, N), LatticeBox.centered(m, N + 1)
    clipped = 0
    for gamma in random_paths(m, N, 48, seed=10 * m + N):
        pg = p_gamma_by_labels(gamma, box)
        pc = corner_plaquettes_by_labels(gamma, box=box)
        assert p_gamma(gamma, box) == pg
        assert corner_plaquettes(gamma, box=box) == pc
        assert corner_plaquettes(gamma) == corner_plaquettes_by_labels(gamma)
        rect = gamma.rect
        assert gamma_stats(gamma, box) == GammaStats(len(gamma), len(pg), len(pc), rect.ell1, rect.ell2)
        clipped += len(pg) < len(p_gamma_by_labels(gamma, wider))
    assert clipped > 0  # some paths run along a face and lose plaquettes there


def test_path_leaving_the_box_raises():
    box = LatticeBox.centered(2, 8)
    crossing = rectangle_loop(RectDescriptor((6, 6), (1, 2), (4, 4)))  # reaches x = 10
    beside = rectangle_loop(RectDescriptor((9, 0), (1, 2), (1, 1)))  # its neighbourhood meets the box
    away = rectangle_loop(RectDescriptor((20, 20), (1, 2), (1, 1)))  # its neighbourhood misses the box
    open_crossing = rectangle_open_path(RectDescriptor((6, 0), (1, 2), (4, 1)), start=0, count=3)
    for gamma in (crossing, beside, away, open_crossing):
        for _ in range(2):  # a failure is not cached: it raises every time
            with pytest.raises(PreconditionError):
                p_gamma(gamma, box)
            with pytest.raises(PreconditionError):
                corner_plaquettes(gamma, box=box)
            with pytest.raises(PreconditionError):
                gamma_stats(gamma, box)
    # without a box nothing is clipped
    assert len(corner_plaquettes(crossing)) == 4
    # a loop on the faces x = 8 and y = 8 is inside and keeps its clipped
    # count; in B_9 it keeps all 28, and each box keeps its own cached
    # stats whichever is asked first
    clipped = GammaStats(length=16, p_gamma=20, p_gamma_c=4, ell1=4, ell2=4)
    wider = LatticeBox.centered(2, 9)
    want = {box: clipped, wider: dataclasses.replace(clipped, p_gamma=28)}
    for order in ((box, wider), (wider, box)):
        touching = rectangle_loop(RectDescriptor((4, 4), (1, 2), (4, 4)))
        for b in order + order:
            assert gamma_stats(touching, b) == want[b]
            assert len(p_gamma(touching, b)) == want[b].p_gamma


def test_gamma_stats_reads_only_the_neighbourhood():
    # an index of the whole box B_30 at m = 4 would take several hundred MB
    box = LatticeBox.centered(4, 30)
    loop = rectangle_loop(RectDescriptor(corner=(-4, -4, 0, 0), axes=(1, 2), lengths=(8, 8)))
    tracemalloc.start()
    try:
        st = gamma_stats(loop, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20
    assert st == GammaStats(length=32, p_gamma=rectangle_p_gamma_count(loop), p_gamma_c=4, ell1=8, ell2=8)


def _unit_loop(m):
    return rectangle_loop(RectDescriptor(corner=(0,) * m, axes=(1, 2), lengths=(1, 1)))


# every entry point that reads a path's coordinates against a box of dimension p.m
WRONG_DIM_ENTRY_POINTS = {
    "expect_form": lambda p, g: expect_form(g, p),
    "expect_unitary": lambda p, g: expect_unitary(g, p),
    "form_distribution": lambda p, g: form_distribution(p, tilt=g),
    "ChainEnsemble(tilt=)": lambda p, g: ChainEnsemble(p, tilt=g),
    "normalized_wilson": lambda p, g: ChainEnsemble(p).normalized_wilson(g),
    "estimate_wilson": lambda p, g: estimate_wilson(p, g, sweeps=64),
    "gamma_stats": lambda p, g: gamma_stats(g, LatticeBox.centered(p.m, p.N)),
}


@pytest.mark.parametrize("box_m, path_m", [(2, 3), (3, 2)])
@pytest.mark.parametrize("entry", WRONG_DIM_ENTRY_POINTS)
def test_path_of_wrong_dimension_raises(entry, box_m, path_m):
    p = ModelParams(m=box_m, n=2, N=1, beta=0.1, kappa=0.2)
    with pytest.raises(PreconditionError, match=f"lies in Z\\^{path_m}, not in Z\\^{box_m}"):
        WRONG_DIM_ENTRY_POINTS[entry](p, _unit_loop(path_m))
