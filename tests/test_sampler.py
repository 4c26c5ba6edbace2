import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scistats

from lattice_higgs import sampler
from lattice_higgs.couplings import ModelParams, eta, phi, xi
from lattice_higgs.errors import PreconditionError
from lattice_higgs.forms import FormZn, delta, random_form
from lattice_higgs.oracle import STATE_GUARD, box_index, expect_form, form_distribution
from lattice_higgs.paths import RectDescriptor, rectangle_loop
from lattice_higgs.sampler import ChainEnsemble, _wrap, estimate_wilson

RECT = RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(1, 1))
LOOP = rectangle_loop(RECT)


def params(beta, kappa, n=2, m=2, N=1):
    return ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)


def test_conditional_weights_match_enumeration():
    # single-site conditionals against the exactly enumerated measure
    for n, tilt in [(2, None), (3, None), (2, LOOP), (3, LOOP)]:
        p = params(0.3, 0.4, n=n)
        idx = box_index(2, 1)
        ens = ChainEnsemble(p, tilt=tilt, seed=7)
        # drive the chain into a generic state
        ens.run(3)
        rows, probs = form_distribution(p, tilt=tilt)
        P = len(idx.plaqs)
        weights = n ** np.arange(P - 1, -1, -1)
        for p_idx in range(P):
            cond = ens.conditional_weights(p_idx)
            state = ens.omega[0].copy()
            marg = np.zeros(n)
            for g in range(n):
                state[p_idx] = g
                marg[g] = probs[int(state @ weights)]
            marg /= marg.sum()
            assert np.allclose(cond, marg, atol=1e-12)


def test_heat_bath_kernel_is_reversible():
    # the single-site kernel K(x -> g) = cond(g) satisfies detailed balance
    p = params(0.25, 0.35, n=3)
    ens = ChainEnsemble(p, seed=3)
    ens.run(2)
    cond = ens.conditional_weights(0)
    for x in range(3):
        for y in range(3):
            assert cond[x] * cond[y] == pytest.approx(cond[y] * cond[x])


def test_beta_zero_collapses_to_zero_form():
    p = params(0.0, 0.4)
    ens = ChainEnsemble(p, seed=11)
    ens.omega[:] = 1  # arbitrary start
    ens.delta = ens.recompute_delta()
    ens.sweep()
    assert not ens.omega.any()
    assert ens.validate_cache()


def test_fixed_seed_reproduces_trajectory():
    p = params(0.3, 0.3)
    a = ChainEnsemble(p, seed=42, chains=2)
    b = ChainEnsemble(p, seed=42, chains=2)
    for _ in range(25):
        a.sweep()
        b.sweep()
        assert np.array_equal(a.omega, b.omega)
    c = ChainEnsemble(p, seed=43, chains=2)
    c.run(25)
    assert not np.array_equal(a.omega, c.omega)


def test_cache_coherence_after_sweeps():
    for n in (2, 3):
        p = ModelParams(m=2, n=n, N=2, beta=0.4, kappa=0.5)
        ens = ChainEnsemble(p, seed=5, chains=2)
        ens.run(50)
        assert ens.validate_cache()
        # m = 3: six classes (three planes x two parities); classes of different planes share edges
        p3 = ModelParams(m=3, n=n, N=1, beta=0.3, kappa=0.4)
        ens3 = ChainEnsemble(p3, seed=6)
        ens3.run(10)
        assert ens3.validate_cache()
    # the R2 box, tilted by a 2x2 loop, at R2's couplings and at ones where omega fills in
    tilt = rectangle_loop(RectDescriptor(corner=(0, -1, 0, -1), axes=(2, 4), lengths=(2, 2)))
    for beta, kappa in ((1e-5, 0.25), (0.3, 0.4)):
        ens4 = ChainEnsemble(ModelParams(m=4, n=2, N=3, beta=beta, kappa=kappa), tilt=tilt, seed=8, chains=4)
        ens4.run(5)
        assert ens4.validate_cache()
    assert ens4.omega.any()


@pytest.mark.parametrize("m, N", [(2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 3)])
def test_plaquette_classes_are_edge_disjoint_partition(m, N):
    idx = box_index(m, N)
    classes = idx.plaq_classes
    assert len(classes) == m * (m - 1)
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(len(idx.plaqs)))
    for cls in classes:
        assert len(np.unique(idx.plaq_edges[cls])) == 4 * len(cls)
    if m == 2:  # the checkerboard on base parity, in canonical order
        for c, cls in enumerate(classes):
            assert cls.tolist() == [i for i, p in enumerate(idx.plaqs) if sum(p.base) % 2 == c]


def test_ensembles_share_the_box_layout():
    # the class layout lives on the cached BoxIndex, so a second ensemble on the box builds none
    a = ChainEnsemble(params(0.3, 0.4, N=4), seed=0, chains=2)
    b = ChainEnsemble(params(0.1, 0.2, n=3, N=4), tilt=LOOP, seed=1, chains=3)
    assert b.idx is a.idx is box_index(2, 4)
    assert b.idx.plaq_classes is a.idx.plaq_classes
    assert b.idx.plaq_class_pos is a.idx.plaq_class_pos


def test_path_outside_box_is_rejected():
    outside = rectangle_loop(RectDescriptor(corner=(3, 3), axes=(1, 2), lengths=(1, 1)))
    p = params(0.3, 0.4)
    ens = ChainEnsemble(p, seed=0)
    with pytest.raises(PreconditionError):
        ens.normalized_wilson(outside)
    with pytest.raises(PreconditionError):
        ChainEnsemble(p, tilt=outside)
    with pytest.raises(PreconditionError):
        expect_form(outside, p)


def test_stationarity_smoke_chi_square():
    # scaled-down version of the acceptance check: 16 configurations
    p = params(0.4, 0.4)
    ens = ChainEnsemble(p, seed=17, chains=4)
    sweeps = 20_000
    counts = np.zeros(16)
    ens.run(200)
    for _ in range(sweeps):
        ens.sweep()
        for cid in ens.config_ids():
            counts[cid] += 1
    _, probs = form_distribution(p)
    chi2, pval = scistats.chisquare(counts, probs * counts.sum())
    assert pval > 0.001, f"chi2={chi2:.1f} p={pval:.5f}"


def test_tilted_chain_matches_tilted_distribution():
    p = params(0.4, 0.4)
    ens = ChainEnsemble(p, tilt=LOOP, seed=19, chains=4)
    counts = np.zeros(16)
    ens.run(200)
    for _ in range(20_000):
        ens.sweep()
        for cid in ens.config_ids():
            counts[cid] += 1
    _, probs = form_distribution(p, tilt=LOOP)
    chi2, pval = scistats.chisquare(counts, probs * counts.sum())
    assert pval > 0.001, f"chi2={chi2:.1f} p={pval:.5f}"


def test_estimator_beta_zero_is_exactly_one():
    p = params(0.0, 0.3)
    res = estimate_wilson(p, LOOP, sweeps=2000, seed=1, chains=4)
    assert res.mean == 1.0
    assert res.std_error == 0.0
    assert res.batches >= 32


def test_estimator_matches_oracle_small_box():
    # E_phi[L-hat]/phi_kappa(1)^{|gamma|} against exact enumeration, 3 sigma
    p = params(0.25, 0.35)
    exact = expect_form(LOOP, p) / phi(p.kappa, 1, p.n) ** len(LOOP)
    res = estimate_wilson(p, LOOP, sweeps=30_000, seed=23, chains=4)
    assert res.std_error > 0
    assert abs(res.mean - exact) < 3 * res.std_error + 1e-4, (res, exact)


def test_normalized_observable_lower_bound():
    p = params(0.45, 0.3)
    ens = ChainEnsemble(p, seed=29, chains=2)
    lo = (eta(p.kappa, p.n) / xi(p.kappa, p.n)) ** len(LOOP) - 1e-12
    support = ens.idx.path(LOOP)
    # the support in set order, as ranked label by label: the same factors in another order
    edges = list(LOOP.support)
    by_label = ens.idx.ids(edges), np.array([LOOP.chain.coeffs[e] for e in edges], dtype=np.int16)
    ens.run(100)
    for _ in range(200):
        ens.sweep()
        vals = ens.normalized_wilson(LOOP)
        assert (vals >= lo).all()
        assert np.array_equal(ens.normalized_wilson(support), vals)
        assert np.allclose(ens.normalized_wilson(by_label), vals, rtol=1e-12, atol=0)


def test_margin_precondition():
    p = ModelParams(m=2, n=2, N=8, beta=0.1, kappa=0.3)
    corner_rect = RectDescriptor(corner=(5, 5), axes=(1, 2), lengths=(3, 3))
    with pytest.raises(PreconditionError):
        estimate_wilson(p, rectangle_loop(corner_rect), sweeps=100, seed=0)
    with pytest.raises(PreconditionError):
        estimate_wilson(params(0.1, 0.3), LOOP, sweeps=100, seed=0, chains=1)


@pytest.mark.parametrize("m, N", [(2, 8), (3, 4)])
def test_margin_at_its_edge(m, N):
    # a unit loop whose nearest corner lies `margin` steps inside the face x_1 = -N
    need = N // 4
    p = ModelParams(m=m, n=2, N=N, beta=0.1, kappa=0.3)

    def loop(margin):
        corner = (-N + margin,) + (0,) * (m - 1)
        return rectangle_loop(RectDescriptor(corner=corner, axes=(1, 2), lengths=(1, 1)))

    res = estimate_wilson(p, loop(need), sweeps=40, seed=0, chains=2)
    assert res.sweeps == 40
    with pytest.raises(PreconditionError):
        estimate_wilson(p, loop(need - 1), sweeps=40, seed=0, chains=2)


def _tilted_snapshots(p, schedule, seed):
    burn_in, interval, count = schedule
    ens = ChainEnsemble(p, tilt=LOOP, seed=seed, chains=1)
    ens.run(burn_in)
    out = []
    for _ in range(count):
        ens.run(interval)
        out.append(ens.snapshot())
    return out


def test_snapshots_valid_and_deterministic():
    p = params(0.5, 0.5)
    snaps = _tilted_snapshots(p, (100, 50, 4), seed=31)
    assert len(snaps) == 4
    for w in snaps:
        assert delta(delta(w)).is_zero()
    again = _tilted_snapshots(p, (100, 50, 4), seed=31)
    assert snaps == again
    zero_snaps = _tilted_snapshots(params(0.0, 0.5), (50, 10, 3), seed=1)
    assert all(w.is_zero() for w in zero_snaps)


def test_snapshot_labels_only_nonzero_plaquettes():
    box_index.cache_clear()
    ens = ChainEnsemble(params(0.3, 0.4, n=3, m=3), seed=9, chains=2)
    ens.run(20)
    assert ens.omega.any() and not ens.omega.all()
    plaqs = list(ens.idx.box.cells(2))
    for chain in range(2):
        w = ens.omega[chain]
        want = FormZn(2, 3, {plaqs[r]: int(w[r]) for r in np.flatnonzero(w)})
        assert ens.snapshot(chain) == want
    assert "plaqs" not in vars(ens.idx)  # the whole label list was never built


def _unit_loop(m):
    return rectangle_loop(RectDescriptor(corner=(0,) * m, axes=(1, 2), lengths=(1, 1)))


@pytest.mark.parametrize(
    "p, tilt, seed, chains, sweeps, digest",
    [
        (ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25), None, 0, 4, 100, "9f1dcbc35c350d60"),
        (
            ModelParams(m=4, n=2, N=3, beta=1e-5, kappa=0.25),
            rectangle_loop(RectDescriptor(corner=(-1, -1, 0, 0), axes=(1, 2), lengths=(2, 2))),
            0, 4, 20, "267ada766002da21",
        ),
        (ModelParams(m=3, n=3, N=2, beta=0.3, kappa=0.4), _unit_loop(3), 5, 3, 30, "ef8432ec688d7564"),
        (ModelParams(m=2, n=5, N=3, beta=0.3, kappa=0.4), _unit_loop(2), 5, 3, 50, "5ac2f3e54c0b4e79"),
    ],
    ids=["R1", "R2-tilted", "m3-n3-tilted", "m2-n5-tilted"],
)
def test_pinned_trajectory_digests(p, tilt, seed, chains, sweeps, digest):
    # sha256 prefix of omega after a fixed run, pinned to the per-site heat-bath trajectories
    ens = ChainEnsemble(p, tilt=tilt, seed=seed, chains=chains)
    ens.run(sweeps)
    assert hashlib.sha256(ens.omega.tobytes()).hexdigest()[:16] == digest
    assert ens.validate_cache()


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("m, N", [(2, 2), (3, 1)])
@pytest.mark.parametrize("tilted", [False, True])
def test_table_rows_match_conditional_weights(n, m, N, tilted):
    tilt = _unit_loop(m) if tilted else None
    ens = ChainEnsemble(ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.4), tilt=tilt, seed=2, chains=3)
    rng = np.random.default_rng(n * m)
    ens.omega[:] = rng.integers(0, n, size=ens.omega.shape)
    ens.delta = ens.recompute_delta()
    idx, digits = ens.idx, n ** np.arange(4)
    for chain in range(3):
        for p in range(len(idx.plaq_edges)):
            e = idx.plaq_edges[p]
            key = ens.omega[chain, p] * n**4 + ((ens.delta[chain, e] + ens.tilt[e]) % n) @ digits
            row = ens._cum[key]
            weights = np.diff(row, prepend=0.0) / row[-1]
            assert np.allclose(weights, ens.conditional_weights(p, chain), rtol=0, atol=1e-12)


def test_table_size_guard():
    # n^6 table entries: n = 20 is the largest group order under the guard
    assert 20**6 <= STATE_GUARD < 21**6
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError):
            ChainEnsemble(params(0.1, 0.1, n=21))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the table alone would take 21^6 * 8 bytes, about 690 MB


def test_assigned_delta_stays_coherent():
    # a sweep writes delta through a flat view, so an assigned delta must be written in place
    ens = ChainEnsemble(params(0.3, 0.4, n=3), seed=4, chains=3)
    ens.omega[:] = np.random.default_rng(4).integers(0, 3, size=ens.omega.shape)
    ens.delta = ens.recompute_delta()
    assert ens.delta.flags.c_contiguous
    ens.sweep()
    assert ens.validate_cache()
    ens.delta = np.asfortranarray(ens.delta)
    ens.run(3)
    assert ens.validate_cache()


def test_chain_count_precondition():
    with pytest.raises(PreconditionError):
        ChainEnsemble(params(0.1, 0.3), chains=0)


def test_too_few_sweeps_for_batches():
    # 10 sweeps keep 9 samples per chain, fewer than 16 batches per chain
    with pytest.raises(PreconditionError):
        estimate_wilson(params(0.1, 0.3), LOOP, sweeps=10, seed=0)


def test_negative_burn_in_precondition():
    with pytest.raises(PreconditionError):
        estimate_wilson(params(0.1, 0.3), LOOP, sweeps=100, burn_in=-5, seed=0)


# -- the dense sweep, kept as the reference for the sweep that skips quiet plaquettes --


def dense_blocks(ens):
    """Per class: its slice of the sweep's draws and flat ranks into omega, delta."""
    chains, P = ens.omega.shape
    E = ens.delta.shape[1]
    chain = np.arange(chains)[:, None]
    blocks = []
    lo = 0
    for cls in ens.idx.plaq_classes:
        e = ens.idx.plaq_edges[cls]
        blocks.append((slice(lo, lo + len(cls)), chain * P + cls, chain[:, :, None] * E + e, ens.tilt[e]))
        lo += len(cls)
    return blocks


def dense_sweep(ens, blocks):
    """One sweep that updates every member of every class."""
    n = ens.n
    # the scatters write through flat views, which needs C-contiguous state
    ens.omega = np.ascontiguousarray(ens.omega)
    ens.delta = np.ascontiguousarray(ens.delta)
    om, dl = ens.omega.reshape(-1), ens.delta.reshape(-1)
    u = np.stack([rng.random(ens.omega.shape[1]) for rng in ens.rngs])
    for draws, p_flat, e_flat, tl in blocks:
        own = om[p_flat]  # (K, C)
        d = dl[e_flat]  # (K, C, 4)
        a = _wrap(d + tl, n)
        key = own.astype(np.int32)  # own n^4 + sum_k a_k n^k, by Horner
        for k in (3, 2, 1, 0):
            key *= n
            key += a[..., k]
        cum = ens._cum.take(key, axis=0)  # (K, C, n)
        r = u[:, draws] * cum[..., -1]
        # u < 1, so r never exceeds cum[..., -1]: the last column never counts
        new = (cum[..., 0] < r).astype(np.int16)
        for g in range(1, n - 1):
            new += cum[..., g] < r
        om[p_flat] = new
        # d + (new - own) * PLAQ_SIGNS, shifted by n into [0, 3n) for _wrap
        change = new - own
        d += n
        d[..., 0] += change
        d[..., 1] -= change
        d[..., 2] -= change
        d[..., 3] += change
        dl[e_flat] = _wrap(_wrap(d, n), n)
    ens.sweeps += 1


def _all_ones(ens):
    ens.omega[:] = 1
    ens.delta = ens.recompute_delta()


def _random_state(ens):
    ens.omega[:] = np.random.default_rng(1).integers(0, ens.n, size=ens.omega.shape)
    ens.delta = ens.recompute_delta()


R2_LOOP = rectangle_loop(RectDescriptor(corner=(-1, -1, 0, 0), axes=(1, 2), lengths=(2, 2)))


@pytest.mark.parametrize("route", ["as-built", "skip-always"])
@pytest.mark.parametrize(
    "p, tilt, chains, sweeps, start",
    [
        (ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25), None, 4, 100, None),
        (ModelParams(m=4, n=2, N=3, beta=1e-5, kappa=0.25), R2_LOOP, 4, 20, None),
        (ModelParams(m=3, n=3, N=2, beta=0.3, kappa=0.4), _unit_loop(3), 3, 30, None),
        (ModelParams(m=2, n=5, N=3, beta=0.3, kappa=0.4), None, 3, 50, None),
        (ModelParams(m=2, n=2, N=8, beta=0.0, kappa=0.4), None, 4, 3, _all_ones),
        (ModelParams(m=2, n=3, N=8, beta=0.3, kappa=0.4), _unit_loop(2), 4, 20, _random_state),
        # few non-zero plaquettes, but moves in every sweep: a member that moves
        # in one class must make its neighbours in later classes candidates
        (ModelParams(m=2, n=2, N=16, beta=0.01, kappa=0.25), None, 4, 60, None),
        (ModelParams(m=3, n=2, N=4, beta=0.01, kappa=0.3), _unit_loop(3), 4, 40, None),
    ],
    ids=["R1", "R2-tilted", "m3-n3-tilted", "m2-n5", "beta0-from-ones", "random-state", "m2-sparse-moves", "m3-sparse-moves"],
)
def test_sweep_matches_dense_reference(p, tilt, chains, sweeps, start, route, monkeypatch):
    # the skipping sweep reproduces the dense sweep's omega and delta after every sweep;
    # "skip-always" never falls back to full member lists, so small boxes exercise the skips too
    if route == "skip-always":
        monkeypatch.setattr(sampler, "_SKIP_MIN", -math.inf)
    ens = ChainEnsemble(p, tilt=tilt, seed=5, chains=chains)
    ref = ChainEnsemble(p, tilt=tilt, seed=5, chains=chains)
    if start is not None:
        start(ens)
        start(ref)
    blocks = dense_blocks(ref)
    moves = 0
    for _ in range(sweeps):
        before = ref.omega.copy()
        ens.sweep()
        dense_sweep(ref, blocks)
        assert np.array_equal(ens.omega, ref.omega)
        assert np.array_equal(ens.delta, ref.delta)
        moves += int(np.count_nonzero(ref.omega != before))
    assert ens.moves == moves
    assert ens.sweeps == ref.sweeps == sweeps


def _largest_cold_draw(c0, c1):
    """The largest float u with u * c1 <= c0 in floating point: on row 0 of the
    table (c0 its first, c1 its last entry) such a draw leaves a quiet member as it is."""
    t = c0 / c1
    while t * c1 > c0:
        t = np.nextafter(t, 0.0)
    while np.nextafter(t, 2.0) * c1 <= c0:
        t = np.nextafter(t, 2.0)
    return t


class _PresetDraws:
    """Stands in for a chain's generator: every sweep gets the same draws."""

    def __init__(self, row):
        self.row = row

    def random(self, size=None, out=None):
        if out is None:
            return self.row.copy()
        out[:] = self.row
        return out


# (1e-5, 0.25, 2): c0 / c1 lies one float below the largest cold draw, so a
# threshold of c0 / c1 marks that cold draw hot; (1e-4, 0.25, 2): they coincide
@pytest.mark.parametrize("beta, kappa, n", [(1e-5, 0.25, 2), (1e-4, 0.25, 2), (0.1, 0.2, 3), (0.3, 0.3, 5)])
def test_hot_draw_boundary_is_exact(beta, kappa, n, monkeypatch):
    # on a quiet state, draws at the largest cold value make no candidate, and
    # the next float up, at one position of one chain, moves exactly that member;
    # skipping always, so that the first class's update shows the pool
    monkeypatch.setattr(sampler, "_SKIP_MIN", -math.inf)
    p = ModelParams(m=2, n=n, N=4, beta=beta, kappa=kappa)
    ens = ChainEnsemble(p, chains=2)
    ref = ChainEnsemble(p, chains=2)
    cold = _largest_cold_draw(ens._cum[0, 0], ens._cum[0, -1])
    rows = np.full(ens.omega.shape, cold)
    hot = 5  # a draw position in the first class
    rows[1, hot] = np.nextafter(cold, 2.0)
    for e in (ens, ref):
        e.rngs = [_PresetDraws(row) for row in rows]
    sizes = []
    update = ens._update
    monkeypatch.setattr(ens, "_update", lambda p_flat, *rest: sizes.append(p_flat.shape[1]) or update(p_flat, *rest))
    ens.sweep()
    dense_sweep(ref, dense_blocks(ref))
    assert sizes[0] == 1  # the first class updates the hot draw's member only
    first = ens.idx.plaq_classes[0]
    assert ens.omega[1, first[hot]] != 0
    assert np.count_nonzero(ens.omega[:, first]) == 1
    assert np.array_equal(ens.omega, ref.omega)
    assert np.array_equal(ens.delta, ref.delta)


def test_estimate_wilson_results_are_pinned():
    # reusing the observable after sweeps that move nothing leaves every sample as it was;
    # the values were taken from the code that evaluated it after every sweep
    loop2 = rectangle_loop(RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(2, 2)))
    res = estimate_wilson(params(0.3, 0.3, n=3, N=4), loop2, sweeps=2000, seed=3)
    assert (res.mean, res.std_error) == (13.15971987321753, 3.9964785046038287)
    r1 = ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25)
    loop8 = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    res = estimate_wilson(r1, loop8, sweeps=2000, seed=3)
    assert (res.mean, res.std_error) == (1.0039295854695094, 0.002991372516016938)


def test_no_moves_at_beta_zero():
    ens = ChainEnsemble(params(0.0, 0.4, N=8), seed=2, chains=4)
    ens.run(20)
    assert ens.moves == 0
    ens = ChainEnsemble(params(0.3, 0.4, N=8), seed=2, chains=4)
    ens.run(20)
    assert ens.moves > 0


@pytest.mark.parametrize("chain", [-1, 2])
def test_snapshot_rejects_chain_out_of_range(chain):
    ens = ChainEnsemble(params(0.3, 0.4), seed=0, chains=2)
    with pytest.raises(PreconditionError):
        ens.snapshot(chain)


@pytest.mark.parametrize("chain", [-1, 2])
def test_conditional_weights_rejects_chain_out_of_range(chain):
    ens = ChainEnsemble(params(0.3, 0.4), seed=0, chains=2)
    with pytest.raises(PreconditionError):
        ens.conditional_weights(0, chain)


def test_ensemble_rejects_couplings_whose_table_overflows():
    with pytest.raises(PreconditionError):
        ChainEnsemble(params(0.1, 800.0), tilt=None, seed=0)
