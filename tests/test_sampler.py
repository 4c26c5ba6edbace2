import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats as scistats

from lattice_higgs import sampler
from lattice_higgs.cells import PLAQ_SIGNS
from lattice_higgs.couplings import ModelParams, eta, phi, xi
from lattice_higgs.errors import PreconditionError
from lattice_higgs.forms import FormZn, delta, random_form
from lattice_higgs.oracle import STATE_GUARD, box_index, expect_form
from lattice_higgs.paths import RectDescriptor, rectangle_loop
from lattice_higgs.sampler import ChainEnsemble, estimate_wilson
from reference import form_distribution

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
    c = ChainEnsemble(p, seed=43, chains=2)
    ours, theirs = [], []
    for _ in range(25):
        a.sweep()
        b.sweep()
        c.sweep()
        assert np.array_equal(a.omega, b.omega)
        ours.append(a.omega.copy())
        theirs.append(c.omega.copy())
    # another seed, another trajectory (the state after any one sweep is often zero)
    assert not np.array_equal(ours, theirs)


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
    assert b.idx.plaq_class is a.idx.plaq_class


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
    assert res.chains * sampler.BATCHES_PER_CHAIN >= 32


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
    ens.run(100)
    for _ in range(200):
        ens.sweep()
        assert (ens.normalized_wilson(LOOP) >= lo).all()


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
    "p, tilt, seed, chains, sweeps, digest, moves",
    [
        (ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25), None, 0, 4, 1000, "9f1dcbc35c350d60", 88),
        (
            ModelParams(m=4, n=2, N=3, beta=1e-5, kappa=0.25),
            rectangle_loop(RectDescriptor(corner=(-1, -1, 0, 0), axes=(1, 2), lengths=(2, 2))),
            0, 4, 20, "267ada766002da21", 2,
        ),
        (ModelParams(m=3, n=3, N=2, beta=0.3, kappa=0.4), _unit_loop(3), 5, 3, 30, "ef8432ec688d7564", 2619),
        (ModelParams(m=2, n=5, N=3, beta=0.3, kappa=0.4), _unit_loop(2), 5, 3, 50, "5ac2f3e54c0b4e79", 158),
    ],
    ids=["R1", "R2-tilted", "m3-n3-tilted", "m2-n5-tilted"],
)
def test_pinned_trajectory_digests(p, tilt, seed, chains, sweeps, digest, moves):
    # sha256 prefix of omega after a fixed run, and the values changed on the way,
    # pinned to the heat-bath trajectories; R1 and R2-tilted take the thinned route
    # and end in the zero state, so their moves carry the pin; R1 runs 1,000 sweeps,
    # as its first 100 draw nothing hot; each thinned pin was first reproduced by
    # the dense sweep replayed on the recorded draws
    ens = ChainEnsemble(p, tilt=tilt, seed=seed, chains=chains)
    ens.run(sweeps)
    assert hashlib.sha256(ens.omega.tobytes()).hexdigest()[:16] == digest
    assert ens.moves == moves
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


def test_estimator_rejects_kappa_zero(monkeypatch):
    # phi_kappa(1) = 0 makes the normalized observable 0 / 0; rejected before
    # any ensemble is built
    built = []
    monkeypatch.setattr(sampler, "ChainEnsemble", lambda *args, **kwargs: built.append(args))
    with pytest.raises(PreconditionError, match="phi_kappa"):
        estimate_wilson(ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.0), LOOP, sweeps=200, seed=0)
    assert built == []


def test_tilted_ensemble_rejects_kappa_zero():
    # at kappa = 0 a base row next to the tilt has total weight 0; untilted, the
    # zero state has positive weight and no draw moves it
    p = ModelParams(m=2, n=2, N=2, beta=0.1, kappa=0.0)
    with pytest.raises(PreconditionError, match="total weight 0"):
        ChainEnsemble(p, tilt=LOOP)
    ens = ChainEnsemble(p, seed=1, chains=2)
    ens.run(20)
    assert ens.moves == 0 and ens.validate_cache()


# -- the dense route, the reference for the sweep that skips quiet plaquettes --


def _record_draws(ens, monkeypatch):
    """Per sweep of ``ens``, a (K, P) array of the draws it made, by chain and
    plaquette rank, and NaN where none was made.  On the thinned route these
    are the hot draws of ``_draws`` and the cold draws of ``_cold``; each
    plaquette is drawn at most once a sweep.  The dense route's draws, by
    position in the scan order, are stored by rank too."""
    sweeps = []
    if not ens._thin:
        uniforms = ens._uniforms

        def recording_uniforms():
            u = uniforms()
            sweeps.append(np.empty_like(u))
            sweeps[-1][:, ens.idx.scan_order] = u
            return u

        monkeypatch.setattr(ens, "_uniforms", recording_uniforms)
        return sweeps
    draws, cold = ens._draws, ens._cold

    def record(chain, rank, got):
        assert np.isnan(sweeps[-1][chain, rank])  # each plaquette is drawn at most once a sweep
        sweeps[-1][chain, rank] = got
        return got

    def recording_draws():
        hot = draws()
        sweeps.append(np.full(ens.omega.shape, np.nan))
        for chain, by_rank in hot.items():
            for rank, v in by_rank.items():
                record(chain, rank, v)
        return hot

    monkeypatch.setattr(ens, "_draws", recording_draws)
    monkeypatch.setattr(ens, "_cold", lambda chain, rank: record(chain, rank, cold(chain, rank)))
    return sweeps


def _largest_cold(ens):
    """Each plaquette's largest cold draw, (k* - 1) 2^-53 of its base row."""
    kstar = np.full(len(ens._base_first), 2**53)
    for k, _, members in ens._groups:
        kstar[members] = k
    return (kstar - 1) / 2**53


def _dense(p, tilt, chains, monkeypatch, seed=0):
    """An ensemble on the dense route, whatever route the couplings pick."""
    with monkeypatch.context() as dense:
        dense.setattr(sampler, "_HOT_COST", math.inf)
        ens = ChainEnsemble(p, tilt=tilt, seed=seed, chains=chains)
    assert not ens._thin
    return ens


def _replay(ref, recorded):
    """One ``sweep()`` of the dense-route ensemble ``ref`` on the draws of the
    last recorded sweep, with the largest cold draw of the base row where none
    was made: a quiet member stays with it, while a member that is not quiet
    mostly moves, so one that the sweep should have updated and did not shows.
    The dense route reads its draws in scan order."""
    u = recorded[-1]
    ref._uniforms = lambda: np.where(np.isnan(u), _largest_cold(ref), u)[:, ref.idx.scan_order]
    ref.sweep()


def _skip_always(monkeypatch):
    """The thinned route at any couplings."""
    monkeypatch.setattr(sampler, "_HOT_COST", 0)


def _all_ones(ens):
    ens.omega[:] = 1
    ens.delta = ens.recompute_delta()


def _random_state(ens):
    ens.omega[:] = np.random.default_rng(1).integers(0, ens.n, size=ens.omega.shape)
    ens.delta = ens.recompute_delta()


R1 = ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25)
R2 = ModelParams(m=4, n=2, N=3, beta=1e-5, kappa=0.25)
R2_LOOP = rectangle_loop(RectDescriptor(corner=(-1, -1, 0, 0), axes=(1, 2), lengths=(2, 2)))


@pytest.mark.parametrize("route", ["as-built", "skip-always"])
@pytest.mark.parametrize(
    "p, tilt, chains, sweeps, start",
    [
        (R1, None, 4, 100, None),
        (R2, R2_LOOP, 4, 20, None),
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
    # the sweep reproduces, after every sweep, the omega and delta of the dense
    # sweep run on the draws it used (a cold draw where it drew none); "skip-always"
    # takes the thinned route, so small boxes and large couplings exercise the
    # skips too.  The thinned route has one kernel: every candidate takes _step,
    # and _update is never called, not even from a dense start
    if route == "skip-always":
        _skip_always(monkeypatch)
    ens = ChainEnsemble(p, tilt=tilt, seed=5, chains=chains)
    ref = _dense(p, tilt, chains, monkeypatch, seed=5)
    if start is not None:
        start(ens)
        start(ref)
    recorded = _record_draws(ens, monkeypatch)
    updates, update = [], ens._update
    monkeypatch.setattr(ens, "_update", lambda *args: updates.append(args) or update(*args))
    moves = 0
    for _ in range(sweeps):
        before = ref.omega.copy()
        ens.sweep()
        _replay(ref, recorded)
        assert np.array_equal(ens.omega, ref.omega)
        assert np.array_equal(ens.delta, ref.delta)
        moves += int(np.count_nonzero(ref.omega != before))
    assert ens.moves == moves
    assert ens.sweeps == ref.sweeps == sweeps
    assert not (ens._thin and updates)


class _StubDraws:
    """Stands in for a chain's generator on the thinned route: every draw is
    0.0, except that plaquette ``hot`` (a rank, if given) is hot at its first
    hot grid point k* in sweep ``call`` (counted from 0); no other trial is hot."""

    def __init__(self, ens, hot=None, call=0):
        self.first = {}  # the q of hot's group (groups differ in q): the first gap, to hot
        for kstar, q, members in ens._groups:
            if hot in members:
                self.first[q] = call * len(members) + int(np.flatnonzero(members == hot)[0]) + 1

    def geometric(self, q):
        return self.first.pop(q, 2**62)  # a gap that no test reaches the end of

    def integers(self, low, high):
        return low

    def random(self, size=None, out=None):
        if size is None and out is None:
            return 0.0
        if out is None:
            return np.zeros(size)
        out[:] = 0.0
        return out


def _record_steps(ens, monkeypatch):
    """The (chain, plaquette rank) of each per-candidate step of ``ens``, in call order."""
    steps = []
    step = ens._step
    monkeypatch.setattr(ens, "_step", lambda om, dl, chain, rank, hot: steps.append((chain, rank)) or step(om, dl, chain, rank, hot))
    return steps


def _check_hot_boundary(ens, tilt, at, monkeypatch):
    """Two checks of the hot draws on ``ens`` (thinned, two chains): every base
    row's grid point k* - 1 is cold and k* is hot, by the comparison of
    ``_update``; and a sweep with plaquette ``at`` (a rank) of the first class
    forced hot in chain 1 (stub generators) updates and moves that member only,
    and draws nothing in chain 0."""
    kstar = np.full(len(ens._base_first), 2**53)
    for k, q, members in ens._groups:
        assert q == (2**53 - k) / 2**53
        kstar[members] = k
    first, last = ens._base_first, ens._base_last
    assert np.all(first >= (kstar - 1) / 2**53 * last)
    assert np.all((first < kstar / 2**53 * last)[kstar < 2**53])
    assert kstar[at] < 2**53
    ref = _dense(ens.params, tilt, 2, monkeypatch)
    steps = _record_steps(ens, monkeypatch)
    recorded = _record_draws(ens, monkeypatch)
    ens.rngs = [_StubDraws(ens), _StubDraws(ens, hot=at)]
    ens.sweep()
    _replay(ref, recorded)
    # the first class updates the hot draw's member only, and chain 0 draws nothing
    assert [step for step in steps if ens.idx.plaq_class[step[1]] == 0] == [(1, at)]
    assert np.isnan(recorded[-1][0]).all()
    assert ens.omega[1, at] != 0
    assert ens.moves == np.count_nonzero(ens.omega) == 1
    assert recorded[-1][1, at] == kstar[at] / 2**53
    assert np.array_equal(ens.omega, ref.omega)
    assert np.array_equal(ens.delta, ref.delta)


# (1e-5, 0.25, 2): c0 / c1 lies one float below the largest cold draw, so a
# threshold of c0 / c1 marks that cold draw hot; (1e-4, 0.25, 2): they coincide
@pytest.mark.parametrize("beta, kappa, n", [(1e-5, 0.25, 2), (1e-4, 0.25, 2), (0.1, 0.2, 3), (0.3, 0.3, 5)])
def test_hot_draw_boundary_is_exact(beta, kappa, n, monkeypatch):
    _skip_always(monkeypatch)
    ens = ChainEnsemble(ModelParams(m=2, n=n, N=4, beta=beta, kappa=kappa), chains=2)
    _check_hot_boundary(ens, None, ens.idx.plaq_classes[0][5], monkeypatch)


@pytest.mark.parametrize("beta, kappa, n", [(1e-5, 0.25, 2), (1e-4, 0.25, 2), (0.1, 0.2, 3), (0.3, 0.3, 5)])
def test_hot_draw_boundary_is_exact_on_the_tilt(beta, kappa, n, monkeypatch):
    # a quiet member on the tilt is hot from its own base row's k*, which is
    # cold for row 0; with no hot draw, the tilt makes no candidate
    _skip_always(monkeypatch)
    ens = ChainEnsemble(ModelParams(m=2, n=n, N=4, beta=beta, kappa=kappa), tilt=_unit_loop(2), chains=2)
    first = ens.idx.plaq_classes[0]
    base = ens.tilt[ens.idx.plaq_edges[first]] @ n ** np.arange(4)
    j = np.flatnonzero(base)[0]  # a member of the first class, off row 0
    at, b = first[j], base[j]
    k = sampler._first_hot(ens._cum[b, 0], ens._cum[b, -1])
    assert k / 2**53 * ens._cum[0, -1] <= ens._cum[0, 0]
    # a twin takes the sweep with no hot draw: the first gaps of a chain are
    # drawn on its first sweep, so ens must sweep first under the hot stubs
    quiet = ChainEnsemble(ens.params, tilt=_unit_loop(2), chains=2)
    steps = _record_steps(quiet, monkeypatch)
    quiet.rngs = [_StubDraws(quiet), _StubDraws(quiet)]
    quiet.sweep()
    assert steps == [] and quiet.moves == 0
    _check_hot_boundary(ens, _unit_loop(2), at, monkeypatch)


def _first_hot_by_bisection(first, last):
    """The smallest k with first < (k 2^-53) * last, or 2^53, by bisection on
    [0, 2^53]: the reference for ``sampler._first_hot``."""
    lo, hi = 0, 2**53
    while lo < hi:
        mid = (lo + hi) // 2
        if first < mid / 2**53 * last:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_first_hot_matches_bisection():
    # every base row of R1 and R2-tilted, and of the boundary tests' couplings
    # on and off the tilt
    ensembles = [ChainEnsemble(R1, chains=1), ChainEnsemble(R2, tilt=R2_LOOP, chains=1)]
    for beta, kappa, n in [(1e-5, 0.25, 2), (1e-4, 0.25, 2), (0.1, 0.2, 3), (0.3, 0.3, 5)]:
        for tilt in (None, _unit_loop(2)):
            ensembles.append(ChainEnsemble(ModelParams(m=2, n=n, N=4, beta=beta, kappa=kappa), tilt=tilt, chains=1))
    rows = 0
    for ens in ensembles:
        for b in np.unique(_base_rows(ens)):
            first, last = float(ens._cum[b, 0]), float(ens._cum[b, -1])
            assert sampler._first_hot(first, last) == _first_hot_by_bisection(first, last), (ens.params, b)
            rows += 1
    assert rows > len(ensembles)  # the tilted ones have base rows other than 0
    # q near 2^-53: hot only at the last grid point, or nowhere; and random rows
    rng = np.random.default_rng(53)
    cases = [(1 - 2.0**-52, 1.0), (1 - 2.0**-53, 1.0), (1.0, 1.0), (0.0, 1.0), (3 - 2.0**-51, 3.0)]
    cases += [(f * last, last) for f, last in zip(rng.random(200), 10.0 ** rng.uniform(-30, 30, 200))]
    cases += [((1 - x) * last, last) for x, last in zip(10.0 ** rng.uniform(-16, -1, 200), 10.0 ** rng.uniform(-30, 30, 200))]
    for first, last in cases:
        assert sampler._first_hot(first, last) == _first_hot_by_bisection(first, last), (first, last)
    assert sampler._first_hot(1 - 2.0**-52, 1.0) == 2**53 - 1 and sampler._first_hot(1.0, 1.0) == 2**53


def test_tilt_adds_no_candidates(monkeypatch):
    # in the zero state with no hot draw every member is quiet and cold, on the tilt too
    ens = ChainEnsemble(R2, tilt=R2_LOOP, chains=4)
    assert ens._thin
    steps = _record_steps(ens, monkeypatch)
    ens.rngs = [_StubDraws(ens) for _ in range(4)]
    ens.sweep()
    assert steps == []
    assert ens.moves == 0 and not ens.omega.any()


# -- the thinned route's law: it draws the dense sweep's hot positions and uniforms --


@pytest.mark.parametrize("route", ["as-built", "skip-always", "dense"])
@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_sweep_samples_form_distribution(n, tilted, route, monkeypatch):
    # configuration frequencies of many short chains against exact enumeration;
    # "dense" takes the dense route, "skip-always" the thinned one, and
    # "as-built" the one the route rule picks
    if route == "skip-always":
        _skip_always(monkeypatch)
    if route == "dense":
        monkeypatch.setattr(sampler, "_HOT_COST", math.inf)
    p = params(0.4, 0.4, n=n)
    tilt = LOOP if tilted else None
    ens = ChainEnsemble(p, tilt=tilt, seed=23 + n, chains=8)
    if route != "as-built":
        assert ens._thin == (route != "dense")
    ens.run(20)
    counts = np.zeros(n**4)
    for _ in range(1200):
        ens.sweep()
        counts += np.bincount(ens.config_ids(), minlength=n**4)
    _, probs = form_distribution(p, tilt=tilt)
    expected = probs * counts.sum()
    rare = expected < 5  # pooled into one cell
    if rare.any():
        counts = np.append(counts[~rare], counts[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    chi2, pval = scistats.chisquare(counts, expected)
    assert pval > 0.001, f"chi2={chi2:.1f} p={pval:.5f}"


def _base_rows(ens):
    """Each plaquette's base row."""
    return ens.tilt[ens.idx.plaq_edges] @ ens.n ** np.arange(4)


@pytest.mark.parametrize("p, tilt", [(R1, None), (R2, R2_LOOP)], ids=["R1", "R2-tilted"])
def test_hot_frequency_per_base_row(p, tilt):
    # the hot positions of many sweeps' draws, base row by base row, against
    # q = 1 - first / last, the chance that a uniform draw u has first < u * last
    ens = ChainEnsemble(p, tilt=tilt, seed=29, chains=4)
    assert ens._thin
    base = _base_rows(ens)
    calls = 20_000
    hits = np.zeros(len(base), dtype=np.int64)
    for _ in range(calls):
        for by_rank in ens._draws().values():
            hits[list(by_rank)] += 1  # a rank is drawn at most once per chain and call
    for row in np.unique(base):
        at = base == row
        q = 1 - ens._cum[row, 0] / ens._cum[row, -1]
        test = scistats.binomtest(int(hits[at].sum()), calls * ens.k * int(at.sum()), q)
        assert test.pvalue > 0.001, (row, hits[at].sum(), q)


def test_hot_counts_per_call_are_binomial_and_uncorrelated(monkeypatch):
    # each group's next hot trial carries over from call to call; per call, a
    # group's hot count is Binomial(len, q), and the counts of consecutive calls
    # are uncorrelated.  q * len is 0.4-1.8 here, so most gaps cross a call boundary
    _skip_always(monkeypatch)
    ens = ChainEnsemble(params(0.2, 0.3, N=4), tilt=_unit_loop(2), seed=37, chains=1)
    group = np.zeros(len(ens._base_first), dtype=np.intp)
    for g, (_, _, members) in enumerate(ens._groups):
        group[members] = g
    calls = 20_000
    hot = (np.fromiter(ens._draws().get(0, ()), dtype=np.intp) for _ in range(calls))
    counts = np.array([np.bincount(group[at], minlength=len(ens._groups)) for at in hot])
    for g, (_, q, members) in enumerate(ens._groups):
        x = counts[:, g]
        assert 0.1 < np.mean(x == 0) < 0.9  # calls with no hot trial are common, and others too
        expected = scistats.binom.pmf(np.arange(len(members) + 1), len(members), q) * calls
        observed = np.bincount(x, minlength=len(members) + 1).astype(float)
        rare = expected < 5  # pooled into one cell
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        assert scistats.chisquare(observed, expected).pvalue > 0.001, (g, observed, expected)
        assert scistats.pearsonr(x[:-1], x[1:]).pvalue > 0.001, g


class _ClampedGaps:
    """A generator whose geometric gaps are 1, 1, then numpy's INT64_MAX clamp."""

    def __init__(self):
        self.gaps = [np.int64(1), np.int64(1)]

    def geometric(self, q):
        return self.gaps.pop(0) if self.gaps else np.int64(np.iinfo(np.int64).max)

    def integers(self, low, high):
        return low


def test_skip_ahead_at_the_last_grid_point():
    # a group hot only from k* = 2^53 - 1 (q = 2^-53) has gaps of order 2^53
    # trials; its trial clock must neither overflow nor hit
    everything = np.arange(len(box_index(R1.m, R1.N).plaq_edges))
    ens = ChainEnsemble(R1, seed=41, chains=4)
    ens._groups = [(2**53 - 1, 2.0**-53, everything)]
    ens.run(2000)
    assert ens.moves == 0 and ens._clock == 2000 < ens._due
    # at the clamp: trials 0 and 1 hot, then 2^63 - 1 trials to the next, which
    # int64 arithmetic would wrap round to a negative trial
    ens = ChainEnsemble(R1, seed=41, chains=1)
    ens._groups = [(2**53 - 1, 2.0**-53, everything)]
    ens.rngs = [_ClampedGaps()]
    assert list(ens._draws()[0]) == [0, 1]
    for _ in range(1000):
        assert ens._draws() == {}
    assert ens._due == (2**63) // len(everything)


class _CountingDraws:
    """Wraps a chain's generator and counts the calls of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_quiet_sweep_makes_no_generator_call():
    # the quiet path, by count: at R2-tilted, a sweep of the zero state before
    # _due calls no generator method, and the sweep at _due does
    ens = ChainEnsemble(R2, tilt=R2_LOOP, seed=43, chains=4)
    assert ens._thin
    ens.sweep()  # draws the first gaps
    while ens.omega.any() or ens._clock >= ens._due:
        ens.sweep()
    ens.rngs = [_CountingDraws(rng) for rng in ens.rngs]
    quiet = ens._due - ens._clock
    ens.run(quiet)
    assert [rng.calls for rng in ens.rngs] == [0] * 4 and not ens.omega.any()
    ens.sweep()
    assert sum(rng.calls for rng in ens.rngs) >= 2  # a hot draw and the gap after it


@pytest.mark.parametrize("p, tilt", [(R1, None), (R2, R2_LOOP)], ids=["R1", "R2-tilted"])
def test_quiet_chains_draw_nothing_in_a_busy_sweep(p, tilt, monkeypatch):
    # chain 1 has one hot draw in the second sweep; chains 0, 2 and 3 have no
    # candidate then, so they make no generator call while chain 1 moves
    ens = ChainEnsemble(p, tilt=tilt, chains=4)
    assert ens._thin
    first = ens.idx.plaq_classes[0]
    at = first[len(first) // 2]
    ens.rngs = [_StubDraws(ens), _StubDraws(ens, hot=at, call=1), _StubDraws(ens), _StubDraws(ens)]
    steps = _record_steps(ens, monkeypatch)
    ens.sweep()  # draws the first gaps; nothing is hot
    assert steps == [] and ens.moves == 0
    counted = {chain: _CountingDraws(ens.rngs[chain]) for chain in (0, 2, 3)}
    for chain, rng in counted.items():
        ens.rngs[chain] = rng
    ens.sweep()
    assert {chain: rng.calls for chain, rng in counted.items()} == {0: 0, 2: 0, 3: 0}
    assert ens.moves == 1 and ens.omega[1, at] != 0
    assert not ens.omega[[0, 2, 3]].any()
    assert {chain for chain, _ in steps} == {1}
    assert ens.validate_cache()


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("m, N", [(2, 2), (3, 1)])
@pytest.mark.parametrize("tilted", [False, True])
def test_scalar_step_matches_update(n, m, N, tilted, monkeypatch):
    # on the same draws, the per-candidate step of every member of a class gives
    # _update's new values, delta writes and moves, in random states; the
    # step belongs to the thinned route, which these couplings would not take
    _skip_always(monkeypatch)
    tilt = _unit_loop(m) if tilted else None
    p = ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.4)
    rng = np.random.default_rng(10 * n + m)
    for trial in range(3):
        a = ChainEnsemble(p, tilt=tilt, chains=2)
        b = ChainEnsemble(p, tilt=tilt, chains=2)
        # sparse, half-full and full random states
        state = rng.integers(0, n, size=a.omega.shape) * (rng.random(a.omega.shape) < (0.1, 0.5, 1.0)[trial])
        for ens in (a, b):
            ens.omega[:] = state
            ens.delta = ens.recompute_delta()
        P, E = a.omega.shape[1], a.delta.shape[1]
        om, dl = memoryview(a.omega.reshape(-1)), memoryview(a.delta.reshape(-1))
        for cls in a.idx.plaq_classes:
            for chain in range(2):
                u = rng.random(len(cls))
                u[: len(u) // 4] = 0.0  # some draws that move nothing quiet
                draws = dict(zip(cls.tolist(), u.tolist()))
                moved = [a._step(om, dl, chain, rank, draws) for rank in cls.tolist()]
                e = b.idx.plaq_edges[cls]
                before = b.omega[chain, cls].copy()
                b._update(chain * P + cls, chain * E + e, b.tilt[e], u)
                assert moved == (b.omega[chain, cls] != before).tolist()
                assert np.array_equal(a.omega, b.omega)
                assert np.array_equal(a.delta, b.delta)
        assert a.moves == b.moves > 0
        assert a.validate_cache()


def test_thinned_and_dense_routes_agree_at_r1(monkeypatch):
    # two-sample tests on R1 runs of each route: the normalized Wilson sample and
    # the values changed per sweep, compared through their batch means
    loop8 = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    batches, size = 30, 100
    runs = {}
    for route, hot_cost in (("thinned", 0), ("dense", math.inf)):
        monkeypatch.setattr(sampler, "_HOT_COST", hot_cost)
        ens = ChainEnsemble(R1, seed=31, chains=4)
        assert ens._thin == (route == "thinned")
        ens.run(100)
        wilson, moves = np.empty(batches * size), np.empty(batches * size)
        for t in range(batches * size):
            before = ens.moves
            ens.sweep()
            wilson[t] = ens.normalized_wilson(loop8).mean()
            moves[t] = ens.moves - before
        runs[route] = wilson.reshape(batches, size).mean(axis=1), moves.reshape(batches, size).mean(axis=1)
    for route, (_, moves) in runs.items():
        assert moves.mean() > 0.05, route  # the moves compared are not all zero
    for (a, b), name in zip(zip(runs["thinned"], runs["dense"]), ("wilson", "moves")):
        test = scistats.ttest_ind(a, b, equal_var=False)
        assert test.pvalue > 0.001, (name, a.mean(), b.mean(), test.pvalue)


def test_estimate_wilson_results_are_pinned(monkeypatch):
    # reusing the observable after sweeps that move nothing leaves every sample as it was;
    # the values were taken from the code that evaluated it after every sweep (R1 on
    # the thinned route, the n=3 box on the dense one, which it is held to); the R1
    # value was first reproduced from the dense sweep replayed on the recorded draws
    loop2 = rectangle_loop(RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(2, 2)))
    with monkeypatch.context() as dense:
        dense.setattr(sampler, "_HOT_COST", math.inf)
        res = estimate_wilson(params(0.3, 0.3, n=3, N=4), loop2, sweeps=2000, seed=3)
    assert (res.mean, res.std_error) == (13.15971987321753, 3.9964785046038287)
    r1 = ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25)
    loop8 = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    res = estimate_wilson(r1, loop8, sweeps=2000, seed=3)
    assert (res.mean, res.std_error) == (1.0049525561297403, 0.003055992520874402)


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


# -- quiet stretches in one step, and the constructor's tables, against the per-sweep code --


def _plain(state):
    """A generator state with its arrays as lists, so that states compare with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _ensemble_state(ens):
    """Everything a sweep changes: state, counters, clock and generator states."""
    return (
        ens.omega.tobytes(),
        ens.delta.tobytes(),
        ens.moves,
        ens.sweeps,
        getattr(ens, "_clock", None),
        getattr(ens, "_due", None),
        [_plain(rng.bit_generator.state) for rng in ens.rngs],
    )


@pytest.mark.parametrize("route", ["R1", "R2-tilted", "dense"])
def test_run_matches_single_sweeps(route, monkeypatch):
    # run(k) steps over each quiet stretch at once, and gives what k calls of
    # sweep() give, bit for bit, over chunks of several lengths, most of which
    # start or end inside a stretch
    p, tilt = (R2, R2_LOOP) if route == "R2-tilted" else (R1, None)
    if route == "dense":
        monkeypatch.setattr(sampler, "_HOT_COST", math.inf)
    stepped = ChainEnsemble(p, tilt=tilt, seed=7, chains=4)
    ref = ChainEnsemble(p, tilt=tilt, seed=7, chains=4)
    assert stepped._thin == (route != "dense")
    calls, sweep = [], stepped.sweep
    monkeypatch.setattr(stepped, "sweep", lambda: calls.append(1) or sweep())
    for k in (1, 3, 40, 7, 300, 0, 1, 649):
        stepped.run(k)
        for _ in range(k):
            ref.sweep()
        assert _ensemble_state(stepped) == _ensemble_state(ref), k
    assert stepped.sweeps == 1001 and stepped.moves > 0 and stepped.validate_cache()
    if route == "dense":
        assert len(calls) == 1001
    else:
        assert len(calls) < 1001 // 2  # the quiet stretches took no sweep() call


def _per_sweep_estimate(p, gamma, sweeps, burn_in, seed, chains):
    """``estimate_wilson`` as it ran with one ``sweep()`` call per sweep, after
    its preconditions: the reference for the quiet-stretch step.  Returns the
    result and the ensemble."""
    batches = sampler.BATCHES_PER_CHAIN
    ens = ChainEnsemble(p, tilt=None, seed=seed, chains=chains)
    keep = sweeps - burn_in
    samples = np.empty((chains, keep))
    seen = None
    for t in range(sweeps):
        ens.sweep()
        if t >= burn_in:
            if ens.moves != seen:
                vals, seen = ens.normalized_wilson(gamma), ens.moves
            samples[:, t - burn_in] = vals
    bs = keep // batches
    bmeans = samples[:, : bs * batches].reshape(chains, batches, bs).mean(axis=2).ravel()
    if np.allclose(bmeans, bmeans[0], rtol=0, atol=0):
        se = 0.0
    else:
        se = float(bmeans.std(ddof=1) / math.sqrt(len(bmeans)))
    res = sampler.EstimatorResult(
        mean=float(samples.mean()), std_error=se, sweeps=sweeps,
        burn_in=burn_in, seed=seed, chains=chains, moves=ens.moves,
    )
    return res, ens


def _inside_quiet_stretch(p, seed, chains, sweeps):
    """A sweep t, near the middle of a run, such that sweeps t - 1 and t are
    both quiet: the state is zero and the clock before ``_due`` when each starts."""
    ens = ChainEnsemble(p, seed=seed, chains=chains)
    quiet = []
    for _ in range(sweeps):
        quiet.append(ens._clock < ens._due and not ens.omega.any())
        ens.sweep()
    return next(t for t in range(sweeps // 2, sweeps) if quiet[t - 1] and quiet[t])


LOOP8 = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))


@pytest.mark.parametrize("burn", ["zero", "quiet", "last16"])
@pytest.mark.parametrize("chains", [2, 4])
@pytest.mark.parametrize("route", ["thinned", "dense"])
def test_estimate_wilson_matches_per_sweep_loop(route, chains, burn, monkeypatch):
    # the same result, ensemble state and generator streams as one sweep() per
    # sweep, at R1 on each route, with burn-in at 0, inside a quiet stretch
    # (the first kept sample is filled by a stretch that began in burn-in), and
    # at sweeps - 16 (one sample per batch)
    sweeps, seed = 600, 13
    # inside a stretch of the thinned route; on the dense route, a burn-in like any other
    burn_in = {"zero": 0, "quiet": _inside_quiet_stretch(R1, seed, chains, sweeps), "last16": sweeps - 16}[burn]
    if route == "dense":
        monkeypatch.setattr(sampler, "_HOT_COST", math.inf)
    made = []

    class Recorded(ChainEnsemble):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    ref, ref_ens = _per_sweep_estimate(R1, LOOP8, sweeps, burn_in, seed, chains)
    monkeypatch.setattr(sampler, "ChainEnsemble", Recorded)
    res = estimate_wilson(R1, LOOP8, sweeps=sweeps, burn_in=burn_in, seed=seed, chains=chains)
    assert res == ref
    (ens,) = made
    assert ens._thin == (route == "thinned")
    assert _ensemble_state(ens) == _ensemble_state(ref_ens)
    assert res.moves > 0


def _table_by_loop(phi_b, phi_k, n):
    """The conditional table built one column g at a time: the reference for
    ``sampler._conditional_table``."""
    row = np.arange(n**5)
    own = row // n**4
    a = (row[:, None] // n ** np.arange(4)) % n
    w = np.empty((n**5, n))
    for g in range(n):
        resid = (a + (g - own)[:, None] * PLAQ_SIGNS) % n
        w[:, g] = phi_b[g] * phi_k[resid].prod(axis=1)
    return w.cumsum(axis=1)


@pytest.mark.parametrize("n", range(2, 8))
def test_conditional_table_matches_per_column_loop(n):
    # bit for bit, so the factors are multiplied in the loop's order; random
    # weights, where another order of the same product rounds differently
    rng = np.random.default_rng(n)
    for _ in range(3):
        phi_b, phi_k = rng.random(n), rng.random(n)
        assert np.array_equal(sampler._conditional_table(phi_b, phi_k, n), _table_by_loop(phi_b, phi_k, n))


def _layout_by_unique(ens):
    """The base rows' columns, the groups and the route as the constructor found
    them with ``np.unique`` over the plaquettes' base rows and their k*, each
    group's members in scan order: the reference for the bincount over the n^4
    possible rows."""
    idx, n, P = ens.idx, ens.n, ens.omega.shape[1]
    base = _base_rows(ens)
    cum = _table_by_loop(ens.phi_b, ens.phi_k, n)
    rows, row_of = np.unique(base, return_inverse=True)
    kstar = np.array([sampler._first_hot(float(cum[r, 0]), float(cum[r, -1])) for r in rows])[row_of]
    order = np.concatenate(idx.plaq_classes)
    groups = [(k, (2**53 - k) / 2**53, order[kstar[order] == k]) for k in np.unique(kstar) if k < 2**53]
    hot = ens.k * sum(q * len(at) for _, q, at in groups)
    thin = hot * sampler._HOT_COST * (ens.params.m - 1) < ens.k * P + sampler._HOT_COST * len(idx.plaq_classes)
    return cum, cum[base, 0], cum[base, -1], groups, thin


@pytest.mark.parametrize(
    "p, tilt",
    [
        (R1, None),
        (R2, R2_LOOP),
        (ModelParams(m=2, n=3, N=4, beta=0.1, kappa=0.2), _unit_loop(2)),
        (ModelParams(m=2, n=5, N=3, beta=0.3, kappa=0.4), _unit_loop(2)),
        (ModelParams(m=3, n=2, N=2, beta=0.01, kappa=0.3), _unit_loop(3)),
        (ModelParams(m=3, n=3, N=1, beta=1e-3, kappa=0.25), None),
    ],
    ids=["R1", "R2-tilted", "n3-tilted", "n5-tilted", "m3-tilted", "m3-n3"],
)
def test_constructor_matches_unique_construction(p, tilt):
    # the broadcast table, the bincount over base rows and the skipped unique of
    # an empty tilt build what the per-column loop and np.unique built
    ens = ChainEnsemble(p, tilt=tilt, seed=0, chains=3)
    cum, first, last, groups, thin = _layout_by_unique(ens)
    assert np.array_equal(ens._cum, cum) and ens._cum.flags.c_contiguous
    assert np.array_equal(ens._base_first, first) and np.array_equal(ens._base_last, last)
    assert len(ens._groups) == len(groups) > 0
    for (k, q, at), (k_ref, q_ref, at_ref) in zip(ens._groups, groups):
        assert (k, q) == (k_ref, q_ref)
        assert at.dtype == at_ref.dtype and np.array_equal(at, at_ref)
    assert ens._thin == thin


def test_kappa_zero_tilt_raises_before_the_route(monkeypatch):
    # the zero-weight base row is found before any k* or route state is built
    def no_route(*args):
        raise AssertionError("route state built")

    monkeypatch.setattr(sampler, "_first_hot", no_route)
    with pytest.raises(PreconditionError, match="total weight 0"):
        ChainEnsemble(params(0.3, 0.0), tilt=LOOP)


@pytest.mark.parametrize("route", ["thinned", "dense"])
def test_estimator_beta_zero_has_exactly_zero_error(route, monkeypatch):
    # every batch mean is exactly 1, so the constant check gives 0.0, and nothing moves
    if route == "dense":
        monkeypatch.setattr(sampler, "_HOT_COST", math.inf)
    res = estimate_wilson(params(0.0, 0.3, N=4), LOOP, sweeps=600, seed=2, chains=4)
    assert (res.mean, res.std_error, res.moves) == (1.0, 0.0, 0)


def test_constant_observable_has_exactly_zero_error(monkeypatch):
    # equal batch means of a value whose sums round (0.1 in 64 batches) give a
    # spread of about 1e-17 by the standard deviation; the constant check gives 0
    monkeypatch.setattr(ChainEnsemble, "normalized_wilson", lambda self, gamma: np.full(self.k, 0.1))
    res = estimate_wilson(R1, LOOP8, sweeps=320, seed=2, chains=4)
    assert res.chains * sampler.BATCHES_PER_CHAIN == 64 and res.std_error == 0.0


def test_estimate_wilson_reports_moves():
    # positive at R1 and equal to the moves of the same ensemble run outside it
    res = estimate_wilson(R1, LOOP8, sweeps=1000, seed=4, chains=4)
    replay = ChainEnsemble(R1, seed=4, chains=4)
    replay.run(1000)
    assert res.moves == replay.moves > 0


# -- the seed-free layout, kept per box index for its last (couplings, tilt), the tables
# kept for the last couplings, and the observable read once per change; each
# _unit_loop call is a new path object, so a new key of the layout --


def test_warm_construction_builds_no_table(monkeypatch):
    # a second ensemble of the same couplings and tilt object, at another seed and
    # chain count, builds neither the table nor any k*, and shares the first one's arrays
    tilt = _unit_loop(2)
    p = params(0.3, 0.4, n=3, N=2)
    cold = ChainEnsemble(p, tilt=tilt, seed=1, chains=2)

    def unbuilt(*args):
        raise AssertionError("layout rebuilt")

    monkeypatch.setattr(sampler, "_conditional_table", unbuilt)
    monkeypatch.setattr(sampler, "_first_hot", unbuilt)
    warm = ChainEnsemble(p, tilt=tilt, seed=2, chains=3)
    assert warm._cum is cold._cum and warm._groups is cold._groups and warm.tilt is cold.tilt
    warm.run(5)
    assert warm.moves > 0 and warm.validate_cache()


def test_cached_layout_is_read_only():
    ens = ChainEnsemble(params(0.3, 0.4, n=3, N=2), tilt=_unit_loop(2), seed=0, chains=2)
    arrays = [ens.phi_b, ens.phi_k, ens.tilt, ens._cum, ens._base_first, ens._base_last]
    arrays += [members for _, _, members in ens._groups]
    assert len(ens._groups) > 0
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.reshape(-1)[0] = 0


def test_dropped_ensembles_leave_one_table_and_one_layout():
    # ensembles at distinct couplings on one box, each with a fresh tilt, then
    # dropped: only the last couplings' table and the last layout stay alive
    tables, layouts = [], []
    for beta in (0.1, 0.2, 0.3, 0.4):
        ens = ChainEnsemble(params(beta, 0.4, N=2), tilt=_unit_loop(2), seed=0, chains=2)
        tables.append(weakref.ref(ens._cum))
        layouts.append(weakref.ref(ens._base_first))
    del ens
    gc.collect()
    assert [r() is not None for r in tables] == [False, False, False, True]
    assert [r() is not None for r in layouts] == [False, False, False, True]


def test_layout_holds_no_box_index():
    # the layout keeps no BoxIndex alive, and goes with it: once box_index
    # forgets the index and the ensemble is gone, both are freed
    box_index.cache_clear()
    ens = ChainEnsemble(params(0.3, 0.4, N=3), tilt=_unit_loop(2), seed=0, chains=2)
    ref, layout = weakref.ref(ens.idx), weakref.ref(ens._base_first)
    del ens
    box_index.cache_clear()
    gc.collect()
    assert ref() is None and layout() is None


def test_zero_weight_refusal_raises_on_every_call():
    # the refusal is not kept: the same key raises again, and the box's last
    # layout stays the one before
    p, tilt = params(0.3, 0.0, N=2), _unit_loop(2)
    ens = ChainEnsemble(params(0.3, 0.4, N=2), seed=0)
    before = sampler._layouts[ens.idx]
    for _ in range(3):
        with pytest.raises(PreconditionError, match="total weight 0"):
            ChainEnsemble(p, tilt=tilt)
    assert sampler._layouts[ens.idx] is before


def test_route_is_chosen_per_construction(monkeypatch):
    # the route reads _HOT_COST at construction, also when the layout is warm
    assert ChainEnsemble(R1, seed=0, chains=4)._thin
    monkeypatch.setattr(sampler, "_HOT_COST", math.inf)
    assert not ChainEnsemble(R1, seed=0, chains=4)._thin
    monkeypatch.setattr(sampler, "_HOT_COST", 0)
    assert ChainEnsemble(R1, seed=0, chains=4)._thin


def test_estimate_wilson_reads_the_observable_once_per_change(monkeypatch):
    # at R1 the observable is evaluated exactly when delta on gamma's edges differs
    # from where it was last evaluated, far less often than a sweep moves something
    sweeps, burn_in, seed = 2000, 200, 5
    g_ids = box_index(R1.m, R1.N).path(LOOP8)[0]
    read = []

    class Recording(ChainEnsemble):
        def normalized_wilson(self, gamma):
            read.append(self.delta[:, g_ids].tobytes())
            return super().normalized_wilson(gamma)

    ref = ChainEnsemble(R1, seed=seed, chains=4)
    changes, moved = [], 0
    for t in range(sweeps):
        before = ref.moves
        ref.sweep()
        if t >= burn_in:
            moved += ref.moves != before
            on_gamma = ref.delta[:, g_ids].tobytes()
            if not changes or on_gamma != changes[-1]:
                changes.append(on_gamma)
    monkeypatch.setattr(sampler, "ChainEnsemble", Recording)
    res = estimate_wilson(R1, LOOP8, sweeps=sweeps, burn_in=burn_in, seed=seed)
    assert read == changes
    assert res.moves == ref.moves
    assert 1 < len(read) < moved / 3, (len(read), moved)
