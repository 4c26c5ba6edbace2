import math
from functools import lru_cache

import numpy as np
import pytest

from lattice_higgs import oracle
from lattice_higgs.cells import LatticeBox, incidence, plaquette, vertex
from lattice_higgs.couplings import ModelParams, eta, eta_hat, phi, phi_table, xi
from lattice_higgs.errors import GuardError, PreconditionError
from lattice_higgs.forms import FormZn, connected_components, lhd, random_form
from lattice_higgs.oracle import (
    STATE_GUARD,
    _all_digits,
    _check_imag,
    _cos_table,
    _digits,
    _form_plan,
    _full_tables,
    _gauge_halves,
    _row_classes,
    _sin_table,
    _sum_matrix,
    _transfer,
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
from lattice_higgs.paths import LatticePath, RectDescriptor, rectangle_loop, rectangle_open_path
from lattice_higgs.forms import omega_gamma

RECT = RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(1, 1))
LOOP = rectangle_loop(RECT)  # 4-edge plaquette loop in B_1
OPEN2 = rectangle_open_path(RECT, start=0, count=2)
RECT_HI = RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(1, 1))
LOOP_HI = rectangle_loop(RECT_HI)  # boundary of plaquette rank 0
OPEN_HI = rectangle_open_path(RECT_HI, start=0, count=2)
BIG = rectangle_loop(RectDescriptor(corner=(-1, -1), axes=(1, 2), lengths=(2, 2)))
LOOP_3D = rectangle_loop(RectDescriptor(corner=(-1, 0, -1), axes=(1, 3), lengths=(2, 1)))
OPEN_3D = rectangle_open_path(RectDescriptor(corner=(0, -1, 0), axes=(2, 3), lengths=(1, 1)), start=1, count=3)


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
    # full two-field enumeration equals unitary-gauge enumeration; n = 3 is
    # the first n whose Higgs phases have a sine part
    rng = np.random.default_rng(8)
    for n in (2, 3):
        for gamma in (LOOP, OPEN2):
            for _ in range(3):
                beta, kappa = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
                p = params(beta, kappa, n=n)
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


def test_two_field_guard_counts_gauge_and_higgs_states(monkeypatch):
    # N = 2 has 2^40 gauge states: refused before any per-cell table is built
    def no_tables(*args):
        raise AssertionError("expect_full allocated before its guard")

    monkeypatch.setattr(oracle, "_full_tables", no_tables)
    with pytest.raises(GuardError):
        expect_full(LOOP, ModelParams(m=2, n=2, N=2, beta=0.1, kappa=0.1))


def test_endpoint_ranks_are_looked_up_by_the_two_field_route_only(monkeypatch):
    # once the path cache is warm, only expect_full reads BoxIndex.ids, for an open path's ends;
    # a new path object has no cached end ranks
    p = params(0.3, 0.45)
    fresh = rectangle_open_path(RECT, start=0, count=2)
    routes = (expect_unitary, expect_form, lambda g, q: form_distribution(q, tilt=g)[1])
    for route in routes:
        route(fresh, p)

    def no_ids(cells):
        raise AssertionError("endpoint ranks looked up")

    monkeypatch.setattr(box_index(2, 1), "ids", no_ids)
    for route in routes:
        for g in (fresh, LOOP, None):
            route(g, p)
    expect_full(LOOP, p)
    with pytest.raises(AssertionError, match="endpoint ranks"):
        expect_full(fresh, p)


def test_endpoint_ranks_are_built_once_per_path(monkeypatch):
    # a warm second call reads neither the path's end points nor BoxIndex.ids
    p = params(0.3, 0.45)
    fresh = rectangle_open_path(RECT, start=1, count=2)
    first = expect_full(fresh, p)

    def unread(*args):
        raise AssertionError("end points rebuilt")

    monkeypatch.setattr(LatticePath, "endpoints", property(unread))
    monkeypatch.setattr(box_index(2, 1), "ids", unread)
    assert expect_full(fresh, p) == first
    ranks = box_index(2, 1).endpoint_ranks(fresh)
    assert not ranks.flags.writeable
    with pytest.raises(AssertionError, match="end points rebuilt"):
        box_index(2, 1).endpoint_ranks(rectangle_open_path(RECT, start=1, count=2))


def test_wilson_hat_basics():
    kappa, n = 0.3, 2
    w0 = FormZn(2, n)
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
    assert activity(FormZn(2, n), p) == 1.0
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


# -- the previous chunked enumerations, the reference for the split-half and transfer routes --

_CHUNK = 1 << 16  # the reference's own block size


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


def unitary_chunked(observable, params: ModelParams, chunk: int = _CHUNK) -> float:
    """Expectation under the unitary-gauge measure by full enumeration of sigma.

    ``observable`` is a LatticePath (Wilson line/loop) or None for the constant 1.
    """
    idx = box_index(params.m, params.N)
    E = len(idx.edge_verts)
    if params.n**E > STATE_GUARD:
        raise GuardError(f"unitary enumeration needs {params.n}^{E} states")
    coeffs = _wilson(idx, observable)
    cos_t, sin_t = _cos_table(params.n), _sin_table(params.n)
    num_re, num_im, den = [], [], []
    for _, sig in _digit_chunks(params.n, E, chunk):
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
    coeffs, ends_v = _wilson(idx, observable), None
    if observable is not None and observable.kind != "closed":
        ends_v = idx.ids(vertex(x) for x in observable.endpoints)
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


def form_chunked(observable, params: ModelParams, chunk: int = _CHUNK) -> float:
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
    coeffs = _wilson(idx, observable)
    tilt = coeffs.astype(np.int16) % n if observable is not None else None
    num, den = [], []
    for _, om in _digit_chunks(n, P, chunk):
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


# -- the keyed split-half 2-form route, the reference for the elimination route --
# It reads oracle's helpers through the module, so a test that patches them there reaches it.


@lru_cache(maxsize=8)
def _form_halves(m: int, N: int, n: int):
    """Coupling-free tables of the 2-form route: (hi, lo, edge classes).

    hi is (digits of its own plaquettes, delta's residues on the hi-only
    edges, key on the straddling edges); lo is (digits of its own
    plaquettes, residues on the lo-only edges, residues on the straddling
    edges); the classes are the (hi-only, lo-only, straddling) edge masks.
    One row per half-configuration, all read-only.
    """
    idx = box_index(m, N)
    P = len(idx.plaq_edges)
    k_hi, (hi_rows, lo_rows, mid) = oracle._split(idx.edge_plaqs, idx.edge_plaq_signs, P, n, "form")
    hi, lo = oracle._digits(n, P)
    d_hi = incidence(hi, idx.edge_plaqs, idx.edge_plaq_signs, n)
    d_lo = incidence(lo, idx.edge_plaqs, idx.edge_plaq_signs, n)
    return (
        oracle._frozen(hi[:, :k_hi].copy(), d_hi[:, hi_rows].copy(), oracle._keys(d_hi[:, mid], n)),
        oracle._frozen(lo[:, k_hi:].copy(), d_lo[:, lo_rows].copy(), d_lo[:, mid].copy()),
        oracle._frozen(hi_rows, lo_rows, mid),
    )


def form_split(observable, params: ModelParams) -> float:
    """Expectation under the 2-form measure, by split-half enumeration.

    ``observable``: a LatticePath evaluates the high-temperature Wilson
    observable (via the uncancelled product, valid also at kappa = 0);
    None gives 1.  The plaquettes split into two halves.  Per tilt (none
    for the denominator, the path's coefficients for the numerator) each
    half-row weighs its own plaquettes' phi_beta times phi_kappa on the
    edges only it reads; the lo rows are binned by their tilted residues
    on the s straddling edges into one tensor on Z_n^s, ``_transfer``
    with M[b, a] = phi_kappa((a + b) mod n) adds each straddling edge's
    factor, and every hi row reads the result at its own key.

    Raises GuardError when n^P + n^s exceeds ``STATE_GUARD``.
    """
    idx = box_index(params.m, params.N)
    coeffs = _wilson(idx, observable)
    n = params.n
    (om_hi, d_hi, key_hi), (om_lo, d_lo, d_mid), (hi_rows, lo_rows, mid) = _form_halves(params.m, params.N, n)
    phi_b = phi_table(params.beta, n)
    phi_k = phi_table(params.kappa, n)
    b_hi, b_lo = phi_b[om_hi].prod(axis=1), phi_b[om_lo].prod(axis=1)
    matrix, s = _sum_matrix(phi_k), d_mid.shape[1]

    def total(tilt):
        # a hi-only edge takes its tilt on the hi side, every other edge on the lo side
        w_hi = b_hi * phi_k[(d_hi + tilt[hi_rows]) % n].prod(axis=1)
        w_lo = b_lo * phi_k[(d_lo + tilt[lo_rows]) % n].prod(axis=1)
        g = np.bincount(oracle._keys((d_mid + tilt[mid]) % n, n), w_lo, minlength=n**s)
        return math.fsum((w_hi * oracle._transfer(g, matrix, s)[key_hi]).tolist())

    den = total(np.zeros(len(idx.edge_plaqs), dtype=np.int64))
    num = den if observable is None else total(coeffs % n)
    return num / den


# -- the exact routes against the references ------------------------------
# keyed by the measure: the unitary-gauge measure and the 2-form measure

SPLIT = {
    "expect_unitary": (expect_unitary, unitary_chunked),
    "expect_form": (expect_form, form_chunked),
}
HALVES = {"expect_unitary": expect_unitary, "expect_form": form_split}  # the split-half route of each
OBSERVABLES = dict(none=None, loop=LOOP, open2=OPEN2, loop_hi=LOOP_HI, open_hi=OPEN_HI, big=BIG)
# (beta, kappa, observables): every observable at a generic point, two at each zero coupling
COUPLING_CASES = [
    (0.3, 0.45, tuple(OBSERVABLES)),
    (0.0, 0.35, ("loop", "open_hi")),
    (0.4, 0.0, ("open2", "big")),
]
# (measure, (m, n, N), block size of the chunked reference's enumeration); every block
# size leaves the reference a ragged last block; the half-rows and straddling rows are
# those of the split-half route
REFERENCE_POINTS = [
    ("expect_unitary", (2, 2, 1), 7),  # 64 x 64 half-rows, 3 straddling plaquettes; 4096 states: last block of 1
    ("expect_unitary", (2, 3, 1), 2 * 729 + 1),  # 729 x 729; 531441 states: last block of 365
    ("expect_form", (2, 2, 1), 7),  # 4 x 4 half-rows, 3 straddling edges; 16 states: last block of 2
    ("expect_form", (2, 3, 1), 7),
    ("expect_form", (2, 4, 1), 7),
    ("expect_form", (2, 5, 1), 7),
    ("expect_form", (2, 2, 2), 250),  # 256 x 256 half-rows, 4 straddling edges; 65536 states: last block of 36
]


def _point_id(route, box, *rest):
    return "-".join([route, "x".join(map(str, box)), *map(str, rest)])


@pytest.mark.parametrize("route, box, chunk", REFERENCE_POINTS, ids=[_point_id(*pt) for pt in REFERENCE_POINTS])
def test_split_routes_match_chunked_reference(route, box, chunk):
    split, reference = SPLIT[route]
    m, n, N = box
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)
        for name in names:
            got, want = split(OBSERVABLES[name], p), reference(OBSERVABLES[name], p, chunk)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


def test_full_matches_chunked_reference():
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=2, n=2, N=1, beta=beta, kappa=kappa)
        for name in names:
            got, want = expect_full(OBSERVABLES[name], p), full_chunked(OBSERVABLES[name], p)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


def _recording_transfer(monkeypatch):
    """Patch oracle._transfer to record (tensor shape, k) of each call."""
    calls = []

    def recording(g, matrix, k):
        calls.append((g.shape, k))
        return _transfer(g, matrix, k)

    monkeypatch.setattr(oracle, "_transfer", recording)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_full_never_pairs_sigma_with_phi(monkeypatch, n):
    # sigma is summed for every d phi at once, by one transfer over all E edge axes
    calls = _recording_transfer(monkeypatch)
    p = params(0.3, 0.45, n=n)
    E = len(box_index(2, 1).edge_verts)
    for gamma in (None, LOOP, OPEN2):
        assert math.isfinite(expect_full(gamma, p))
    assert calls == [((3, n**E), E)] * 3


@pytest.mark.parametrize("route, box", [pt[:2] for pt in REFERENCE_POINTS], ids=[_point_id(*pt[:2]) for pt in REFERENCE_POINTS])
def test_split_routes_transfer_over_straddling_keys_only(monkeypatch, route, box):
    # each call bins one half by its key on the s straddling rows: a tensor of n^s entries
    m, n, N = box
    idx = box_index(m, N)
    if route == "expect_unitary":  # cells are edges, straddling rows plaquettes
        table, sign, k = idx.plaq_edges, idx.plaq_signs, len(idx.edge_verts)
    else:  # cells are plaquettes, straddling rows edges
        table, sign, k = idx.edge_plaqs, idx.edge_plaq_signs, len(idx.plaq_edges)
    s = int(_row_classes(table, sign, k - k // 2)[2].sum())
    assert 0 < s <= k - k // 2
    calls = _recording_transfer(monkeypatch)
    p = ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.45)
    HALVES[route](LOOP, p)
    want = [((3, n**s), s)] if route == "expect_unitary" else [((n**s,), s)] * 2
    assert calls == want
    calls.clear()
    expect_form(LOOP, p)  # elimination makes no transfer
    assert calls == []


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


@pytest.mark.parametrize(
    "route, box, name, beta, kappa, want", PINNED_NEAR_GUARD, ids=[_point_id(*pt[:5]) for pt in PINNED_NEAR_GUARD]
)
def test_split_routes_match_pinned_reference_near_guard(route, box, name, beta, kappa, want):
    m, n, N = box
    p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)
    for exact in {SPLIT[route][0], HALVES[route]}:
        assert abs(exact(OBSERVABLES[name], p) - want) <= 1e-12


# every 2-form point above: the chunked reference's boxes and the pinned box near the guard
ELIMINATION_POINTS = [box for route, box, _ in REFERENCE_POINTS if route == "expect_form"] + [(2, 3, 2)]


@pytest.mark.parametrize("box", ELIMINATION_POINTS, ids=["x".join(map(str, box)) for box in ELIMINATION_POINTS])
def test_elimination_matches_split_half_reference(box):
    m, n, N = box
    pinned = [(b, k, (name,)) for route, at, name, b, k, _ in PINNED_NEAR_GUARD if route == "expect_form" and at == box]
    for beta, kappa, names in COUPLING_CASES + pinned:
        p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)
        for name in names:
            got, want = expect_form(OBSERVABLES[name], p), form_split(OBSERVABLES[name], p)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


@pytest.mark.parametrize("N", [1, 2])
def test_reference_observables_tilt_every_row_class(N):
    # the form points above put tilts on the split-half reference's hi-only, lo-only and
    # straddling edges
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


# chunks are 4 digits wide at n = 2 and 2 at n = 3 and 4: k = 5 and 13 at n = 2, 5 at n = 3
# and 3 at n = 4 leave a short last chunk
TRANSFER_CASES = [(n, k) for k in (0, 1, 2, 3) for n in (2, 3)] + [(2, 5), (2, 13), (3, 5), (4, 3), (4, 4)]


@pytest.mark.parametrize("n, k", TRANSFER_CASES, ids=[f"{k}-{n}" for n, k in TRANSFER_CASES])
def test_transfer_matches_direct_sum(n, k):
    rng = np.random.default_rng(10 * n + k)
    g = rng.normal(size=(2, n**k))
    matrix = rng.normal(size=(n, n))  # not symmetric: the sum reads matrix[b_j, a_j]
    digits = (np.arange(n**k)[:, None] // n ** np.arange(k - 1, -1, -1)) % n  # one row per counter value
    # want[:, a] = sum_b g[:, b] prod_j matrix[b_j, a_j], at every counter value a, or at 64 past 1024
    cols = np.arange(n**k) if n**k <= 1024 else rng.choice(n**k, 64, replace=False)
    factors = np.ones((n**k, len(cols)))
    for j in range(k):
        factors *= matrix[digits[:, None, j], digits[None, cols, j]]
    got = _transfer(g, matrix, k)
    assert got.shape == g.shape
    np.testing.assert_allclose(got[:, cols], g @ factors, rtol=1e-12, atol=1e-12)
    if k == 0:
        assert _transfer(g, matrix, k) is g


HALF_TABLES = [(_gauge_halves, (2, 3, 1)), (_form_halves, (2, 2, 2)), (_full_tables, (2, 1, 2))]


@pytest.mark.parametrize("build, box", HALF_TABLES, ids=["gauge", "form", "full"])
def test_half_tables_are_read_only(build, box):
    arrays = [a for part in build(*box) if isinstance(part, tuple) for a in part]
    assert arrays and all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 1


def _split_values(box):
    m, n, N = box
    p = ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.45)
    return [route(g, p) for route in (expect_unitary, form_split) for g in (LOOP, OPEN2, BIG)]


def test_half_tables_give_the_same_bits_in_any_call_order():
    first = _split_values((2, 3, 1))
    small = _split_values((2, 2, 1))
    assert _split_values((2, 3, 1)) == first
    box_index.cache_clear()
    assert _split_values((2, 3, 1)) == first
    for build, _ in HALF_TABLES:
        build.cache_clear()
    assert _split_values((2, 2, 1)) == small
    assert _split_values((2, 3, 1)) == first


def test_form_plan_is_read_only():
    arrays, steps = _form_plan(2, 2, 2)
    assert len(arrays) == 3 and all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 1
    assert isinstance(steps, tuple) and len(steps) == len(box_index(2, 2).plaq_edges)


def _form_values(box):
    m, n, N = box
    p = ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.45)
    return [expect_form(g, p) for g in (None, LOOP, OPEN2, BIG, LOOP_3D, OPEN_3D) if g is None or g.m == m]


def test_form_plan_gives_the_same_bits_in_any_call_order():
    boxes = [(2, 3, 1), (2, 2, 2), (2, 2, 1), (3, 2, 1)]
    first = [_form_values(box) for box in boxes]
    assert [_form_values(box) for box in boxes[::-1]] == first[::-1]
    _form_plan.cache_clear()
    box_index.cache_clear()
    assert [_form_values(box) for box in boxes[::-1]] == first[::-1]
    assert [_form_values(box) for box in boxes] == first


def test_full_tables_give_the_same_bits_in_any_call_order():
    p2, p3 = params(0.3, 0.45), params(0.3, 0.45, n=3)
    first = [expect_full(g, p2) for g in (LOOP, OPEN2, BIG, None)]
    expect_full(OPEN2, p3)
    assert [expect_full(g, p2) for g in (LOOP, OPEN2, BIG, None)] == first
    _full_tables.cache_clear()
    box_index.cache_clear()
    assert [expect_full(g, p2) for g in (None, BIG, OPEN2, LOOP)] == first[::-1]


# the ids name the measure, as in SPLIT
@pytest.mark.parametrize(
    "route, build",
    [(expect_unitary, _gauge_halves), (form_split, _form_halves)],
    ids=["expect_unitary-_gauge_halves", "expect_form-_form_halves"],
)
def test_split_guard_counts_states_and_keys(monkeypatch, route, build):
    # at m=2 n=2 N=1 the unitary route holds 2^12 states (edges) and 2^3 keys (straddling
    # plaquettes), the form route 2^4 states (plaquettes) and 2^2 keys (straddling edges)
    k, s = (12, 3) if route is expect_unitary else (4, 2)
    p = params(0.3, 0.45)
    build.cache_clear()
    monkeypatch.setattr(oracle, "STATE_GUARD", 2**k + 2**s - 1)
    with pytest.raises(GuardError):
        route(LOOP, p)
    monkeypatch.setattr(oracle, "STATE_GUARD", 2**k + 2**s)
    assert math.isfinite(route(LOOP, p))
    build.cache_clear()


@pytest.mark.parametrize("route", [expect_unitary, form_split], ids=["expect_unitary", "expect_form"])
def test_split_guard_refuses_before_any_table(monkeypatch, route):
    def no_tables(*args):
        raise AssertionError("a split-half route allocated before its guard")

    monkeypatch.setattr(oracle, "_digits", no_tables)
    with pytest.raises(GuardError):
        route(LOOP, ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.1))


def test_elimination_guard_counts_its_widest_frontier(monkeypatch):
    # at m=2 N=1 the widest frontier is 3 plaquettes: 2 x 2^3 entries at n = 2
    p = params(0.3, 0.45)
    want = form_split(LOOP, p)
    _form_plan.cache_clear()
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**3 - 1)
    with pytest.raises(GuardError, match="2 x 2\\^3 entries"):
        expect_form(LOOP, p)
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**3)
    assert abs(expect_form(LOOP, p) - want) <= 1e-15
    _form_plan.cache_clear()


@pytest.mark.parametrize("m, N, width", [(3, 2, 47), (4, 1, 73)])
def test_elimination_guard_refuses_before_any_plan_table(monkeypatch, m, N, width):
    def no_tables(*args):
        raise AssertionError("the elimination built a plan table before its guard")

    _form_plan.cache_clear()
    monkeypatch.setattr(oracle, "_all_digits", no_tables)
    loop = rectangle_loop(RectDescriptor(corner=(0,) * m, axes=(1, 2), lengths=(1, 1)))
    with pytest.raises(GuardError, match=f"2 x 2\\^{width} entries"):
        expect_form(loop, ModelParams(m=m, n=2, N=N, beta=0.1, kappa=0.1))


def test_elimination_reaches_past_the_split_half_guard():
    # m=2 N=4 has 2^64 2-forms; its widest frontier is 9 plaquettes
    p = ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.1)
    with pytest.raises(GuardError):
        form_split(LOOP, p)
    assert eta(0.1, 2) ** len(LOOP) <= expect_form(LOOP, p) <= 1


@pytest.mark.parametrize("box", [(2, 2, 1), (2, 3, 1), (2, 2, 2)], ids=["2x2x1", "2x3x1", "2x2x2"])
def test_elimination_gives_zero_for_an_open_path_at_kappa_zero(box):
    # no 2-form has delta equal to an open path, so every numerator entry is 0; the rescale
    # divides by the denominator's maximum, never by the numerator's 0
    m, n, N = box
    for beta in (0.0, 0.4):
        p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=0.0)
        assert expect_form(OPEN2, p) == 0.0 and expect_form(OPEN_HI, p) == 0.0


def test_r1_loop_exact_value_is_pinned():
    # R1's 8x8 loop at corner (-4, -4): the N=7 and N=8 boxes agree, and the N=8 value is pinned
    loop = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    n7, n8 = (expect_form(loop, ModelParams(m=2, n=2, N=N, beta=1e-4, kappa=0.25)) for N in (7, 8))
    assert abs(n7 - n8) <= 1e-13 * n8
    assert n8 == pytest.approx(1.875925810390806e-11, rel=1e-13)


def test_m3_loop_exact_value_is_pinned():
    # the 2x2 loop at (-1, -1, 0) on the m=3 N=1 box, normalized by xi^|gamma|
    loop = rectangle_loop(RectDescriptor(corner=(-1, -1, 0), axes=(1, 2), lengths=(2, 2)))
    got = expect_form(loop, ModelParams(m=3, n=2, N=1, beta=1e-2, kappa=0.25))
    assert got / xi(0.25, 2) ** len(loop) == pytest.approx(1.1460463625462645, rel=1e-13)


def test_high_temperature_identity_n4():
    p = params(0.25, 0.5, n=4)
    for gamma in (LOOP, OPEN2):
        assert abs(expect_unitary(gamma, p) - expect_form(gamma, p)) < 1e-10


@pytest.mark.parametrize(
    "route, n", [(expect_unitary, 2), (expect_unitary, 3), (expect_unitary, 4), (expect_full, 2), (expect_full, 3)]
)
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
