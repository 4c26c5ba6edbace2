import math

import numpy as np
import pytest

from lattice_higgs import oracle
from lattice_higgs.cells import LatticeBox, incidence, plaquette, vertex
from lattice_higgs.couplings import ModelParams, eta, eta_hat, phi, phi_table
from lattice_higgs.errors import GuardError, PreconditionError
from lattice_higgs.forms import FormZn, connected_components, lhd, random_form, zero_form
from lattice_higgs.oracle import (
    STATE_GUARD,
    _all_digits,
    _check_imag,
    _cos_table,
    _digits,
    _pair_blocks,
    _row_classes,
    _sin_table,
    _wilson,
    action,
    activity,
    box_index,
    expect_form,
    expect_full,
    expect_unitary,
    form_distribution,
    gauge_transform,
    wilson_hat,
)
from lattice_higgs.paths import RectDescriptor, rectangle_loop, rectangle_open_path
from lattice_higgs.forms import omega_gamma

RECT = RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(1, 1))
LOOP = rectangle_loop(RECT)  # 4-edge plaquette loop in B_1
OPEN2 = rectangle_open_path(RECT, start=0, count=2)
RECT_HI = RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(1, 1))
LOOP_HI = rectangle_loop(RECT_HI)  # boundary of plaquette rank 0
OPEN_HI = rectangle_open_path(RECT_HI, start=0, count=2)
BIG = rectangle_loop(RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(2, 2)))


def params(beta, kappa, n=2, m=2, N=1):
    return ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)


def random_gauge(rng, idx, n):
    return FormZn(1, n, {e: int(rng.integers(n)) for e in idx.edges})


def random_higgs(rng, idx, n):
    return FormZn(0, n, {v: int(rng.integers(n)) for v in idx.vertices})


def test_action_at_zero_configuration():
    p = params(0.37, 0.21)
    sigma = FormZn(1, 2)
    higgs = FormZn(0, 2)
    # 8 oriented plaquettes and 24 oriented edges in B_1, all with rho(0) = 1
    assert action(sigma, higgs, p) == pytest.approx(-0.37 * 8 - 0.21 * 24, rel=1e-14)


def test_action_real_and_gauge_invariant():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        p = params(0.13, 0.29, n=n)
        idx = box_index(2, 1)
        for _ in range(5):
            sigma = random_gauge(rng, idx, n)
            higgs = random_higgs(rng, idx, n)
            s0 = action(sigma, higgs, p)  # raises if an imaginary part appears
            eta_cfg = random_higgs(rng, idx, n)
            s2, h2 = gauge_transform(sigma, higgs, eta_cfg, idx.box)
            assert action(s2, h2, p) == pytest.approx(s0, rel=1e-12, abs=1e-12)


def test_expectation_of_one_is_one():
    p = params(0.2, 0.3)
    assert expect_unitary(None, p) == pytest.approx(1.0, rel=1e-14)
    assert expect_form(None, p) == pytest.approx(1.0, rel=1e-14)
    assert expect_full(None, p) == pytest.approx(1.0, rel=1e-14)


def test_unitary_gauge_identity():
    # full two-field enumeration equals unitary-gauge enumeration
    rng = np.random.default_rng(8)
    for gamma in (LOOP, OPEN2):
        for _ in range(3):
            beta, kappa = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            p = params(beta, kappa)
            assert expect_full(gamma, p) == pytest.approx(
                expect_unitary(gamma, p), abs=1e-10
            )


def test_high_temperature_identity_spot():
    p = params(0.2, 0.3)
    g = expect_unitary(LOOP, p)
    f = expect_form(LOOP, p)
    assert abs(g - f) < 1e-10


def test_high_temperature_identity_includes_kappa_zero():
    # at kappa = 0 the ratio observable degenerates but the uncancelled
    # product form still matches the gauge side
    for gamma in (LOOP, OPEN2):
        p = params(0.4, 0.0)
        assert abs(expect_unitary(gamma, p) - expect_form(gamma, p)) < 1e-10


def test_high_temperature_identity_n3():
    p = params(0.25, 0.5, n=3)
    for gamma in (LOOP, OPEN2):
        assert abs(expect_unitary(gamma, p) - expect_form(gamma, p)) < 1e-10


def test_beta_zero_product_law():
    for n in (2, 3):
        for kappa in (0.2, 0.45):
            p = params(0.0, kappa, n=n)
            want_loop = eta_hat(kappa, n) ** len(LOOP)
            if n == 2:  # the two-field state space fits the guard only at n = 2
                assert expect_full(LOOP, p) == pytest.approx(want_loop, abs=1e-12)
            assert expect_unitary(LOOP, p) == pytest.approx(want_loop, abs=1e-12)
            assert expect_form(LOOP, p) == pytest.approx(want_loop, abs=1e-12)
            want_open = eta_hat(kappa, n) ** len(OPEN2)
            assert expect_unitary(OPEN2, p) == pytest.approx(want_open, abs=1e-12)


def test_perimeter_law_on_grid():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for n in (2, 3):
        for beta in grid:
            for kappa in grid:
                p = params(beta, kappa, n=n)
                bound = eta(kappa, n) ** len(LOOP)
                assert expect_unitary(LOOP, p) >= bound - 1e-12


def test_callable_observable_rejected():
    p = params(0.2, 0.3)
    for expect in (expect_unitary, expect_full, expect_form):
        with pytest.raises(TypeError):
            expect(lambda config: 1.0, p)


def test_state_space_guard():
    with pytest.raises(GuardError):
        expect_unitary(None, ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.1))


def test_wilson_hat_basics():
    kappa, n = 0.3, 2
    w0 = zero_form(2, n)
    assert wilson_hat(w0, LOOP, kappa) == pytest.approx(
        phi(kappa, 1, n) ** len(LOOP), rel=1e-14
    )
    box = LatticeBox.centered(2, 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = random_form(box, n, 0.5, seed=int(rng.integers(1 << 30)))
        val = wilson_hat(w, LOOP, kappa)
        # localization: only components touching gamma matter
        og = omega_gamma(w, LOOP.support)
        assert val == pytest.approx(wilson_hat(og, LOOP, kappa), rel=1e-12)
        assert val >= eta(kappa, n) ** len(LOOP) - 1e-12
        assert val > 0


def test_activity_values():
    n = 2
    p = params(0.2, 0.3)
    assert activity(zero_form(2, n), p) == 1.0
    w = FormZn(2, n, {plaquette((0, 0), 1, 2): 1})
    want = math.tanh(2 * 0.2) * math.tanh(2 * 0.3) ** 4
    assert activity(w, p) == pytest.approx(want, rel=1e-12)


def test_activity_factorization_under_lhd():
    box = LatticeBox.centered(2, 2)
    p = ModelParams(m=2, n=3, N=2, beta=0.15, kappa=0.4)
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(40):
        w = random_form(box, 3, 0.2, seed=int(rng.integers(1 << 30)))
        comps = connected_components(w)
        if not comps:
            continue
        sub = comps[0]
        if lhd(sub, w):
            hits += 1
            assert activity(w, p) == pytest.approx(
                activity(sub, p) * activity(w - sub, p), rel=1e-12
            )
    assert hits > 5


def test_form_measure_dominates_lhd_probability():
    # P(omega' lhd omega) <= activity(omega'), exactly enumerated
    p = params(0.3, 0.35)
    idx = box_index(2, 1)
    rows, probs = form_distribution(p)
    forms = [
        FormZn(2, 2, {pl: int(v) for pl, v in zip(idx.plaqs, row) if v}) for row in rows
    ]
    for wprime in forms[:8]:
        mass = sum(pr for f, pr in zip(forms, probs) if lhd(wprime, f))
        assert mass <= activity(wprime, p) + 1e-12


def test_form_measure_wilson_indicator_bound():
    # E[L-hat * 1(omega^gamma lhd omega' lhd omega)] <= L-hat(omega') activity(omega')
    p = params(0.3, 0.35)
    idx = box_index(2, 1)
    rows, probs = form_distribution(p)
    forms = [
        FormZn(2, 2, {pl: int(v) for pl, v in zip(idx.plaqs, row) if v}) for row in rows
    ]
    gsup = LOOP.support
    for wprime in forms[:8]:
        acc = 0.0
        for f, pr in zip(forms, probs):
            og = omega_gamma(f, gsup)
            if lhd(og, wprime) and lhd(wprime, f):
                acc += pr * wilson_hat(f, LOOP, p.kappa)
        assert acc <= wilson_hat(wprime, LOOP, p.kappa) * activity(wprime, p) + 1e-12


def test_increasing_box_stabilization_reported(capsys):
    # informational: |E_{N=1} - E_{N=2}| for the form-side Wilson expectation
    vals = {}
    for N in (1, 2):
        p = params(0.15, 0.25, N=N)
        vals[N] = expect_form(LOOP, p)
    drift = abs(vals[1] - vals[2])
    print(f"form-side Wilson expectation: N=1 {vals[1]:.12f}  N=2 {vals[2]:.12f}  |diff| {drift:.3e}")
    assert drift < 0.05  # sanity only; the limit exists but is not pinned here


def test_wilson_line_open_in_two_field_model():
    # open path through vertices exercises the Higgs endpoint factor
    p = params(0.3, 0.4)
    assert expect_full(OPEN2, p) == pytest.approx(expect_unitary(OPEN2, p), abs=1e-10)


# -- the previous chunked enumerations, the reference for the split-half routes --

_CHUNK = 1 << 16  # the reference's own block size; monkeypatching oracle._CHUNK leaves it


def _digit_chunks(n: int, k: int, chunk: int = _CHUNK):
    """Yield (offset, digits) blocks of the mixed-radix counter, base n, k cells.

    Cell 0 is the most significant digit, matching canonical cell order.
    """
    total = n**k
    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % n
        yield start, digits.astype(np.int8)


def unitary_chunked(observable, params: ModelParams) -> float:
    """Expectation under the unitary-gauge measure by full enumeration of sigma.

    ``observable`` is a LatticePath (Wilson line/loop) or None for the constant 1.
    """
    idx = box_index(params.m, params.N)
    E = len(idx.edge_verts)
    if params.n**E > STATE_GUARD:
        raise GuardError(f"unitary enumeration needs {params.n}^{E} states")
    coeffs, _ = _wilson(idx, observable)
    cos_t, sin_t = _cos_table(params.n), _sin_table(params.n)
    num_re, num_im, den = [], [], []
    for _, sig in _digit_chunks(params.n, E):
        # sum over positive plaquettes and edges of Re rho; both orientations double it
        a_w = cos_t[incidence(sig, idx.plaq_edges, idx.plaq_signs, params.n)].sum(axis=1)
        w = np.exp(2 * params.beta * a_w + 2 * params.kappa * cos_t[sig].sum(axis=1))
        if observable is None:
            obs_re = np.ones(len(sig))
            obs_im = np.zeros(len(sig))
        else:
            hol = (sig @ coeffs) % params.n
            obs_re, obs_im = cos_t[hol], sin_t[hol]
        num_re.append(float(w @ obs_re))
        num_im.append(float(w @ obs_im))
        den.append(float(w.sum()))
    nr, ni, dn = math.fsum(num_re), math.fsum(num_im), math.fsum(den)
    _check_imag(ni, dn)
    return nr / dn


def full_chunked(observable, params: ModelParams) -> float:
    """Expectation under the two-field measure; enumerates sigma x phi."""
    idx = box_index(params.m, params.N)
    E, V, n = len(idx.edge_verts), len(idx._rank[0]), params.n
    if n ** (E + V) > STATE_GUARD:
        raise GuardError(f"two-field enumeration needs {n}^{E + V} states")
    coeffs, ends_v = _wilson(idx, observable)
    cos_t, sin_t = _cos_table(n), _sin_table(n)

    sig_blocks = list(_digit_chunks(n, E, chunk=min(_CHUNK, n**E)))
    phi_chunk = max(1, (1 << 22) // (n**E))
    num_re, num_im, den = [], [], []
    for _, phi_blk in _digit_chunks(n, V, chunk=phi_chunk):
        dphi = incidence(phi_blk, idx.edge_verts, idx.edge_vert_signs, n)
        for _, sig in sig_blocks:
            dsig = incidence(sig, idx.plaq_edges, idx.plaq_signs, n)
            w_gauge = np.exp(2 * params.beta * cos_t[dsig].sum(axis=1))
            # Higgs energy accumulated edge by edge to avoid a 3-d array
            h = np.zeros((len(sig), len(phi_blk)))
            for j in range(E):
                h += cos_t[(sig[:, j][:, None].astype(np.int16) - dphi[None, :, j]) % n]
            w = w_gauge[:, None] * np.exp(2 * params.kappa * h)
            if observable is None:
                obs_re, obs_im = np.ones_like(w), np.zeros_like(w)
            else:
                hol = (sig @ coeffs) % n
                if ends_v is not None:
                    dph = (phi_blk[:, ends_v[1]].astype(np.int64) - phi_blk[:, ends_v[0]]) % n
                    tot = (hol[:, None] - dph[None, :]) % n
                else:
                    tot = np.broadcast_to(hol[:, None] % n, w.shape)
                obs_re, obs_im = cos_t[tot], sin_t[tot]
            num_re.append(float((w * obs_re).sum()))
            num_im.append(float((w * obs_im).sum()))
            den.append(float(w.sum()))
    nr, ni, dn = math.fsum(num_re), math.fsum(num_im), math.fsum(den)
    _check_imag(ni, dn)
    return nr / dn


def form_chunked(observable, params: ModelParams) -> float:
    """Expectation under the 2-form measure.

    ``observable``: a LatticePath evaluates the high-temperature Wilson
    observable (via the uncancelled product, valid also at kappa = 0);
    None gives 1.
    """
    idx = box_index(params.m, params.N)
    P, n = len(idx.plaq_edges), params.n
    if n**P > STATE_GUARD:
        raise GuardError(f"form enumeration needs {n}^{P} states")
    phi_b = phi_table(params.beta, n)
    phi_k = phi_table(params.kappa, n)
    coeffs, _ = _wilson(idx, observable)
    tilt = coeffs.astype(np.int16) % n if observable is not None else None
    num, den = [], []
    for _, om in _digit_chunks(n, P):
        dw = incidence(om, idx.edge_plaqs, idx.edge_plaq_signs, n)
        w = phi_k[dw].prod(axis=1) * phi_b[om].prod(axis=1)
        if tilt is None:
            vals_num = w
        else:
            shifted = (dw + tilt[None, :]) % n
            vals_num = phi_k[shifted].prod(axis=1) * phi_b[om].prod(axis=1)
        num.append(float(vals_num.sum()))
        den.append(float(w.sum()))
    return math.fsum(num) / math.fsum(den)


# -- the split-half routes against the reference --------------------------

SPLIT = {
    "expect_unitary": (expect_unitary, unitary_chunked),
    "expect_form": (expect_form, form_chunked),
    "expect_full": (expect_full, full_chunked),
}
OBSERVABLES = dict(none=None, loop=LOOP, open2=OPEN2, loop_hi=LOOP_HI, open_hi=OPEN_HI, big=BIG)
# (beta, kappa, observables): every observable at a generic point, two at each zero coupling
COUPLING_CASES = [
    (0.3, 0.45, tuple(OBSERVABLES)),
    (0.0, 0.35, ("loop", "open_hi")),
    (0.4, 0.0, ("open2", "big")),
]
# (route, (m, n, N), _CHUNK): each chunk splits the pairs into several blocks,
# and all but the (2, 2, 1) form point end on a ragged block
REFERENCE_POINTS = [
    ("expect_unitary", (2, 2, 1), 7),  # 64 x 64 pairs: lo blocks of 7, last of 1
    ("expect_unitary", (2, 3, 1), 2 * 729 + 1),  # 729 x 729: hi blocks of 2, last of 1
    ("expect_form", (2, 2, 1), 7),  # 4 x 4: one hi row per block
    ("expect_form", (2, 3, 1), 7),
    ("expect_form", (2, 4, 1), 7),
    ("expect_form", (2, 5, 1), 7),
    ("expect_form", (2, 2, 2), 250),  # 256 x 256: lo blocks of 250, last of 6
    ("expect_full", (2, 2, 1), 3 * 512 + 1),  # 4096 sigma x 512 phi: hi blocks of 3, last of 1
]


def _point_id(route, box, *rest):
    return "-".join([route, "x".join(map(str, box)), *map(str, rest)])


@pytest.mark.parametrize("route, box, chunk", REFERENCE_POINTS, ids=[_point_id(*pt) for pt in REFERENCE_POINTS])
def test_split_routes_match_chunked_reference(monkeypatch, route, box, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    split, reference = SPLIT[route]
    m, n, N = box
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)
        for name in names:
            got, want = split(OBSERVABLES[name], p), reference(OBSERVABLES[name], p)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


# Near STATE_GUARD the reference takes 5-55 s a call, so its values there are
# pinned: each was computed once by unitary_chunked / form_chunked above.
PINNED_NEAR_GUARD = [
    ("expect_unitary", (2, 4, 1), "none", 0.3, 0.45, 1.0),
    ("expect_unitary", (2, 4, 1), "loop", 0.3, 0.45, 0.32261434293116237),
    ("expect_unitary", (2, 4, 1), "open2", 0.3, 0.45, 0.23759137707181205),
    ("expect_unitary", (2, 4, 1), "loop_hi", 0.3, 0.45, 0.3226143429311623),
    ("expect_unitary", (2, 4, 1), "big", 0.3, 0.45, 0.014043901386152191),
    ("expect_unitary", (2, 4, 1), "loop", 0.0, 0.35, 0.012802584597307235),
    ("expect_unitary", (2, 4, 1), "open_hi", 0.4, 0.0, -1.0557487595003724e-17),
    ("expect_form", (2, 3, 2), "loop", 0.3, 0.45, 0.41322192088987053),
    ("expect_form", (2, 3, 2), "open2", 0.3, 0.45, 0.3842192959382134),
    ("expect_form", (2, 3, 2), "loop_hi", 0.3, 0.45, 0.41322192088987053),
    ("expect_form", (2, 3, 2), "big", 0.3, 0.45, 0.04835302319330614),
    ("expect_form", (2, 3, 2), "loop", 0.0, 0.35, 0.021387072067831126),
    ("expect_form", (2, 3, 2), "open_hi", 0.4, 0.0, 0.0),
]
PINNED_CHUNK = {
    (2, 4, 1): 3 * 4096 + 1,  # 4096 x 4096 pairs: hi blocks of 3, last of 1
    (2, 3, 2): 2 * 6561 + 1,  # 6561 x 6561 pairs: hi blocks of 2, last of 1
}


@pytest.mark.parametrize(
    "route, box, name, beta, kappa, want", PINNED_NEAR_GUARD, ids=[_point_id(*pt[:5]) for pt in PINNED_NEAR_GUARD]
)
def test_split_routes_match_pinned_reference_near_guard(monkeypatch, route, box, name, beta, kappa, want):
    monkeypatch.setattr(oracle, "_CHUNK", PINNED_CHUNK[box])
    m, n, N = box
    got = SPLIT[route][0](OBSERVABLES[name], ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa))
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("N", [1, 2])
def test_reference_observables_tilt_every_row_class(N):
    # the form points above put tilts on hi-only, lo-only and straddling edges
    idx = box_index(2, N)
    P = len(idx.plaq_edges)
    classes = _row_classes(idx.edge_plaqs, idx.edge_plaq_signs, P - P // 2)
    tilted = [idx.gamma_coeffs(g) != 0 for g in OBSERVABLES.values() if g is not None]
    for rows in classes:
        assert any((t & rows).any() for t in tilted)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 12])
def test_split_digits_visit_each_row_once(n, k):
    hi, lo = _digits(n, k)
    k_lo = k // 2  # k = 1 leaves the low half empty: one all-zero row
    assert hi.shape == (n ** (k - k_lo), k) and lo.shape == (n**k_lo, k)
    assert not hi[:, k - k_lo :].any() and not lo[:, : k - k_lo].any()
    rows = (hi[:, None, :] + lo[None, :, :]).reshape(-1, k)
    assert rows.min() >= 0 and rows.max() < n
    # row a * n^k_lo + b is the counter value a * n^k_lo + b: each row once, in order
    values = rows.astype(np.int64) @ n ** np.arange(k - 1, -1, -1)
    np.testing.assert_array_equal(values, np.arange(n**k))
    np.testing.assert_array_equal(_all_digits(n, k), rows)
    np.testing.assert_array_equal(rows, np.concatenate([d for _, d in _digit_chunks(n, k)]))


@pytest.mark.parametrize("n_hi, n_lo, chunk", [(1, 1, 7), (4, 4, 7), (9, 9, 7), (5, 3, 7), (3, 8, 5), (64, 64, 1 << 16)])
def test_pair_blocks_cover_each_pair_once(monkeypatch, n_hi, n_lo, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    seen = np.zeros((n_hi, n_lo), dtype=int)
    for a, b in _pair_blocks(n_hi, n_lo):
        block = seen[a, b]
        assert 0 < block.size <= chunk
        block += 1
    assert (seen == 1).all()


def test_high_temperature_identity_n4():
    p = params(0.25, 0.5, n=4)
    for gamma in (LOOP, OPEN2):
        assert abs(expect_unitary(gamma, p) - expect_form(gamma, p)) < 1e-10


@pytest.mark.parametrize("route, n", [(expect_unitary, 3), (expect_full, 2)])
def test_exact_routes_raise_when_weights_overflow(route, n):
    loop = rectangle_loop(RectDescriptor((0, 0), (1, 2), (1, 1)))
    at = lambda kappa: ModelParams(m=2, n=n, N=1, beta=0.1, kappa=kappa)
    assert math.isfinite(route(loop, at(20.0)))
    with pytest.raises(PreconditionError):
        route(loop, at(30.0))


@pytest.mark.parametrize("beta, kappa", [(0.1, 360.0), (360.0, 0.1)])
def test_expect_form_raises_when_phi_overflows(beta, kappa):
    loop = rectangle_loop(RectDescriptor((0, 0), (1, 2), (1, 1)))
    with pytest.raises(PreconditionError):
        expect_form(loop, ModelParams(m=2, n=2, N=1, beta=beta, kappa=kappa))
