import math
from functools import lru_cache

import numpy as np
import pytest

from lattice_higgs import oracle
from lattice_higgs.cells import BoxIndex, LatticeBox, incidence, plaquette, vertex
from lattice_higgs.couplings import ModelParams, eta, eta_hat, phi, phi_table, xi
from lattice_higgs.errors import GuardError, PreconditionError
from lattice_higgs.forms import FormZn, connected_components, lhd, random_form
from lattice_higgs.oracle import (
    STATE_GUARD,
    _all_digits,
    _frozen,
    _lookup,
    _plan,
    _wilson,
    box_index,
    expect_form,
    expect_full,
    expect_unitary,
)
from lattice_higgs.paths import LatticePath, RectDescriptor, rectangle_loop, rectangle_open_path
from reference import action, activity, form_distribution, gauge_transform, omega_gamma, wilson_hat

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
    # the two-field measure equals the unitary-gauge measure; n = 3 is the
    # first n whose Higgs phases have a sine part
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


ROUTES = {"form": expect_form, "unitary": expect_unitary, "full": expect_full}


def test_state_space_guard(monkeypatch):
    # one engine for all three measures: at m=2 N=1 the widest frontier is 3 plaquettes
    # (2-form), 5 edges (unitary gauge) and 8 edges and vertices (two-field); a box whose
    # frontier is past the guard is refused before any plan table is built
    p = params(0.3, 0.45)
    want = {name: route(LOOP, p) for name, route in ROUTES.items()}
    for name, width in (("form", 3), ("unitary", 5), ("full", 8)):
        _plan.cache_clear()
        monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**width - 1)
        with pytest.raises(GuardError, match=f"{name} elimination holds 2 x 2\\^{width} entries"):
            ROUTES[name](LOOP, p)
        monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**width)
        assert ROUTES[name](LOOP, p) == want[name]
    monkeypatch.undo()
    _plan.cache_clear()

    def no_tables(*args):
        raise AssertionError("the elimination built a plan table before its guard")

    monkeypatch.setattr(oracle, "_all_digits", no_tables)
    for m, N, widths in ((3, 2, dict(form=47, unitary=48, full=73)), (4, 1, dict(form=73, unitary=67, full=93))):
        loop = rectangle_loop(RectDescriptor(corner=(0,) * m, axes=(1, 2), lengths=(1, 1)))
        for name, width in widths.items():
            with pytest.raises(GuardError, match=f"{name} elimination holds 2 x 2\\^{width} entries"):
                ROUTES[name](loop, ModelParams(m=m, n=2, N=N, beta=0.1, kappa=0.1))


def test_two_field_guard_counts_gauge_and_higgs_states(monkeypatch):
    # the two-field frontier holds gauge and Higgs states: at m=2 N=1 it is 8 edges and
    # vertices against the unitary gauge's 5 edges, so a guard that admits the unitary
    # elimination refuses the two-field one until it admits 2 x 2^8 entries
    p = params(0.3, 0.45)
    want = expect_full(LOOP, p)
    _plan.cache_clear()
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**8 - 1)
    assert math.isfinite(expect_unitary(LOOP, p))
    with pytest.raises(GuardError, match="full elimination holds 2 x 2\\^8 entries"):
        expect_full(LOOP, p)
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**8)
    assert expect_full(LOOP, p) == want
    _plan.cache_clear()


def test_endpoint_ranks_are_looked_up_by_the_two_field_route_only(monkeypatch):
    # of the two-field routes only the references (full_chunked, full_transfer) look an open
    # path's end points up; expect_full's Wilson phase sum_e c_e (sigma_e - (d phi)_e) reads
    # the path's edges alone, as do the unitary-gauge and 2-form routes
    p = params(0.3, 0.45)
    fresh = rectangle_open_path(RECT, start=0, count=2)

    def unread(self):
        raise AssertionError("end points looked up")

    monkeypatch.setattr(LatticePath, "endpoints", property(unread))
    for route in (expect_full, expect_unitary, expect_form):
        assert math.isfinite(route(fresh, p))
    for reference in (full_chunked, full_transfer):
        with pytest.raises(AssertionError, match="end points looked up"):
            reference(fresh, p)


def test_endpoint_ranks_are_built_once_per_path(monkeypatch):
    # an open path enters the two-field route through its edge ranks and coefficients, built
    # once per path: a warm second call reads neither the path's end points nor BoxIndex.ids
    p = params(0.3, 0.45)
    fresh = rectangle_open_path(RECT, start=1, count=2)
    first = expect_full(fresh, p)

    def unread(*args):
        raise AssertionError("path ranks rebuilt")

    monkeypatch.setattr(LatticePath, "endpoints", property(unread))
    monkeypatch.setattr(box_index(2, 1), "ids", unread)
    assert expect_full(fresh, p) == first
    ranks, coef = box_index(2, 1).path(fresh)
    assert not ranks.flags.writeable and not coef.flags.writeable
    with pytest.raises(AssertionError, match="path ranks rebuilt"):
        expect_full(rectangle_open_path(RECT, start=1, count=2), p)


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
    # an open path's phase reads the Higgs field at its end points, through r_e = sigma_e - (d phi)_e
    p = params(0.3, 0.4)
    assert expect_full(OPEN2, p) == pytest.approx(expect_unitary(OPEN2, p), abs=1e-10)


# -- the chunked enumerations, a reference for every measure --

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


def _cos_table(n: int) -> np.ndarray:
    return np.cos(2 * np.pi * np.arange(n) / n)


def _sin_table(n: int) -> np.ndarray:
    return np.sin(2 * np.pi * np.arange(n) / n)


def _check_imag(num_im: float, scale: float):
    # the accumulated numerator must be real relative to the partition function
    if abs(num_im) > 1e-9 * abs(scale):
        raise AssertionError(f"expected a real accumulation, got imag {num_im} at scale {scale}")


# -- the per-edge transfer, the reference for the two-field measure at n = 3 --


def _transfer(g: np.ndarray, matrix: np.ndarray, k: int) -> np.ndarray:
    """h[..., a] = sum_b g[..., b] prod_j matrix[b_j, a_j] over Z_n^k.

    The last axis of ``g`` holds the n^k points of Z_n^k in counter order.
    Each step contracts the c trailing digits, n^c <= 16, with the c-fold
    Kronecker power of ``matrix`` (the last step takes what is left) and
    rotates them to the front, so after the last step the digits are back
    in counter order; k = 0 returns ``g``.
    """
    n, lead = len(matrix), g.shape[:-1]
    c = 1
    while c < k and n ** (c + 1) <= 16:
        c += 1
    powers = [None, matrix]  # powers[j][b, a] = prod over j digits of matrix[b_i, a_i]
    for j in range(2, c + 1):
        powers.append(np.multiply.outer(powers[-1], matrix).swapaxes(1, 2).reshape(n**j, n**j))
    while k:
        step = min(c, k)
        g = (g.reshape(*lead, -1, n**step) @ powers[step]).swapaxes(-1, -2).reshape(*lead, -1)
        k -= step
    return g


@lru_cache(maxsize=8)
def _full_tables(m: int, N: int, n: int):
    """Coupling-free per-cell tables of the per-edge transfer, all read-only.

    (edge digits, plaquette cosines, vertex digits, edge key terms): cell
    c's digit is arange(n) along axis c of the (n,)*E gauge or (n,)*V Higgs
    axes; a plaquette's cosine cos(2 pi (d sigma)_p / n) and an edge's key
    term n^(E-1-e) (d phi)_e live on the axes of the cells they read, so
    summing them by broadcasting gives the cosine sum of every sigma and the
    counter value of d phi for every phi.  No table has more than n^4 entries.
    """
    idx = box_index(m, N)
    E, V = len(idx.edge_verts), len(idx.vertices)
    cos_t = _cos_table(n)

    def axes(k):
        return [np.arange(n).reshape([n if a == c else 1 for a in range(k)]) for c in range(k)]

    def derivative(digits, cols, signs):
        return sum(int(s) * digits[c] for c, s in zip(cols, signs) if s) % n

    sig, phis = axes(E), axes(V)
    plaq = [cos_t[derivative(sig, *row)] for row in zip(idx.plaq_edges, idx.plaq_signs)]
    keys = [n ** (E - 1 - e) * derivative(phis, *row) for e, row in enumerate(zip(idx.edge_verts, idx.edge_vert_signs))]
    return tuple(_frozen(*part) for part in (sig, plaq, phis, keys))


def full_transfer(observable, params: ModelParams) -> float:
    """Expectation under the two-field measure; sums sigma by a per-edge transfer.

    The Higgs weight is a product over edges, prod_e T[sigma_e, t_e] with
    T[s, t] = exp(2 kappa cos(2 pi (s - t) / n)) and t = d phi.  Each of the
    three sigma-tensors c in {w, w cos hol, w sin hol} on Z_n^E (w the
    plaquette weight, hol the observable's holonomy) is multiplied by T
    along each of its E edge axes (:func:`_transfer`), which gives
    G_c(t) = sum_sigma c(sigma) prod_e T[sigma_e, t_e] for every t at once.
    Each of the n^V Higgs configurations then reads G_c at t = d phi and
    adds its end point phase phi(x1) - phi(x2).  No gauge is fixed.

    Raises GuardError when n^E or n^V exceeds ``STATE_GUARD``.
    """
    idx = box_index(params.m, params.N)
    coeffs = _wilson(idx, observable)
    E, V, n = len(idx.edge_verts), len(idx.vertices), params.n
    if max(n**E, n**V) > STATE_GUARD:
        raise GuardError(f"two-field transfer holds {n}^{E} gauge and {n}^{V} Higgs states")
    sig, plaq, phis, keys = _full_tables(params.m, params.N, n)
    cos_t, sin_t = _cos_table(n), _sin_table(n)
    a_w = np.zeros((n,) * E)
    for table in plaq:
        a_w += table
    w = np.exp(2 * params.beta * a_w)
    hol = sum(int(c) * sig[e] for e, c in enumerate(coeffs) if c) % n
    g = np.stack([w, w * cos_t[hol], w * sin_t[hol]]).reshape(3, -1)
    transfer = np.exp(2 * params.kappa * cos_t[np.subtract.outer(np.arange(n), np.arange(n)) % n])
    t = np.zeros((n,) * V, dtype=np.int64)
    for table in keys:
        t += table
    ends = 0
    if observable is not None and observable.kind != "closed":
        x1, x2 = idx.ids(vertex(x) for x in observable.endpoints)
        ends = (phis[x1] - phis[x2]) % n
    cos_e, sin_e = cos_t[ends], sin_t[ends]
    den, g_re, g_im = _transfer(g, transfer, E)[:, t]
    num_re, num_im = g_re * cos_e - g_im * sin_e, g_im * cos_e + g_re * sin_e
    nr, ni, dn = (math.fsum(x.ravel().tolist()) for x in (num_re, num_im, den))
    _check_imag(ni, dn)
    return nr / dn


# -- the keyed split-half 2-form route, the reference for the elimination route --


def _digits(n: int, k: int):
    """Digit tables (hi, lo) of the base-n counter over k cells, split in two.

    ``hi`` has n^(k - k//2) rows over the leading cells, ``lo`` n^(k//2)
    rows over the trailing ones; both are k columns wide and zero outside
    their own half, so hi[a] + lo[b] is the digit row of counter value
    a * n^(k//2) + b.  Cell 0 is the most significant digit, matching
    canonical cell order.
    """
    kl = k // 2

    def table(start, width):
        rows = np.arange(n**width, dtype=np.int64)
        out = np.zeros((len(rows), k), dtype=np.int8)
        out[:, start : start + width] = (rows[:, None] // n ** np.arange(width - 1, -1, -1)) % n
        return out

    return table(0, k - kl), table(k - kl, kl)


def _row_classes(table: np.ndarray, sign: np.ndarray, k_hi: int):
    """Masks (hi-only, lo-only, straddling) of an operator's rows for cells split at k_hi.

    A row that reads no cell is hi-only: it is 0 on both halves.
    """
    live = sign != 0
    reads_hi = (live & (table < k_hi)).any(axis=1)
    reads_lo = (live & (table >= k_hi)).any(axis=1)
    return ~reads_lo, reads_lo & ~reads_hi, reads_hi & reads_lo


def _sum_matrix(f: np.ndarray) -> np.ndarray:
    """M[b, a] = f[(a + b) mod n]: a straddling row's factor at hi residue a and lo residue b."""
    n = len(f)
    return f[np.add.outer(np.arange(n), np.arange(n)) % n]


def _keys(residues: np.ndarray, n: int) -> np.ndarray:
    """Each row's residues on the straddling rows read as one base-n counter value."""
    return residues.astype(np.int64) @ n ** np.arange(residues.shape[1] - 1, -1, -1, dtype=np.int64)


def _split(table: np.ndarray, sign: np.ndarray, k: int, n: int):
    """(k_hi, row classes) of an operator on k cells; GuardError before any table is built.

    The split-half route holds the n^k configurations it enumerates and the
    n^s key tensor of the s straddling rows.
    """
    k_hi = k - k // 2
    classes = _row_classes(table, sign, k_hi)
    s = int(classes[2].sum())
    if n**k + n**s > STATE_GUARD:
        raise GuardError(f"form enumeration holds {n}^{k} states and {n}^{s} straddling keys")
    return k_hi, classes


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
    k_hi, (hi_rows, lo_rows, mid) = _split(idx.edge_plaqs, idx.edge_plaq_signs, P, n)
    hi, lo = _digits(n, P)
    d_hi = incidence(hi, idx.edge_plaqs, idx.edge_plaq_signs, n)
    d_lo = incidence(lo, idx.edge_plaqs, idx.edge_plaq_signs, n)
    return (
        _frozen(hi[:, :k_hi].copy(), d_hi[:, hi_rows].copy(), _keys(d_hi[:, mid], n)),
        _frozen(lo[:, k_hi:].copy(), d_lo[:, lo_rows].copy(), d_lo[:, mid].copy()),
        _frozen(hi_rows, lo_rows, mid),
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
        g = np.bincount(_keys((d_mid + tilt[mid]) % n, n), w_lo, minlength=n**s)
        return math.fsum((w_hi * _transfer(g, matrix, s)[key_hi]).tolist())

    den = total(np.zeros(len(idx.edge_plaqs), dtype=np.int64))
    num = den if observable is None else total(coeffs % n)
    return num / den


# -- the engine against the references -------------------------------------
# keyed by the measure: the unitary-gauge measure and the 2-form measure

CHUNKED = {
    "expect_unitary": (expect_unitary, unitary_chunked),
    "expect_form": (expect_form, form_chunked),
}
OBSERVABLES = dict(none=None, loop=LOOP, open2=OPEN2, loop_hi=LOOP_HI, open_hi=OPEN_HI, big=BIG)
# (beta, kappa, observables): every observable at a generic point, two at each zero coupling
COUPLING_CASES = [
    (0.3, 0.45, tuple(OBSERVABLES)),
    (0.0, 0.35, ("loop", "open_hi")),
    (0.4, 0.0, ("open2", "big")),
]
# (measure, (m, n, N), block size of the chunked reference's enumeration); every block
# size leaves the reference a ragged last block; the 2-form boxes' half-rows and
# straddling edges are those of form_split
REFERENCE_POINTS = [
    ("expect_unitary", (2, 2, 1), 7),  # 4096 states: last block of 1
    ("expect_unitary", (2, 3, 1), 2 * 729 + 1),  # 531441 states: last block of 365
    ("expect_form", (2, 2, 1), 7),  # 4 x 4 half-rows, 3 straddling edges; 16 states: last block of 2
    ("expect_form", (2, 3, 1), 7),
    ("expect_form", (2, 4, 1), 7),
    ("expect_form", (2, 5, 1), 7),
    ("expect_form", (2, 2, 2), 250),  # 256 x 256 half-rows, 4 straddling edges; 65536 states: last block of 36
]
FORM_POINTS = [box for route, box, _ in REFERENCE_POINTS if route == "expect_form"]


def _point_id(route, box, *rest):
    return "-".join([route, "x".join(map(str, box)), *map(str, rest)])


# the test keeps the name it had when the split-half routes were the ones checked
@pytest.mark.parametrize("route, box, chunk", REFERENCE_POINTS, ids=[_point_id(*pt) for pt in REFERENCE_POINTS])
def test_split_routes_match_chunked_reference(route, box, chunk):
    engine, reference = CHUNKED[route]
    m, n, N = box
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)
        for name in names:
            got, want = engine(OBSERVABLES[name], p), reference(OBSERVABLES[name], p, chunk)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


def test_full_matches_chunked_reference():
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=2, n=2, N=1, beta=beta, kappa=kappa)
        for name in names:
            got, want = expect_full(OBSERVABLES[name], p), full_chunked(OBSERVABLES[name], p)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


def test_full_matches_transfer_reference():
    # at n = 3 the chunked reference is past the guard (3^21 states); the per-edge transfer is not
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=2, n=3, N=1, beta=beta, kappa=kappa)
        for name in names:
            got, want = expect_full(OBSERVABLES[name], p), full_transfer(OBSERVABLES[name], p)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


OPEN_PATHS = (OPEN2, OPEN_HI, rectangle_open_path(RECT, start=1, count=3), rectangle_open_path(RECT_HI, start=3, count=2))


def test_full_matches_both_references_on_open_paths():
    # the engine's Wilson phase sum_e c_e (sigma_e - (d phi)_e) needs no end point factor;
    # both references add the end points' Higgs phase by a lookup of their own
    p = params(0.7, 0.2)
    for gamma in OPEN_PATHS:
        got = expect_full(gamma, p)
        assert abs(got - full_chunked(gamma, p)) <= 1e-12, gamma
        assert abs(got - full_transfer(gamma, p)) <= 1e-12, gamma


@pytest.mark.parametrize("N, n", [(2, 3), (3, 2)], ids=["2x3x2", "2x2x3"])
def test_full_matches_form_past_the_transfer_guard(N, n):
    # no two-field reference reaches these boxes: 3^40 and 2^84 gauge states
    for beta, kappa, names in COUPLING_CASES:
        p = ModelParams(m=2, n=n, N=N, beta=beta, kappa=kappa)
        for name in names:
            got, want = expect_full(OBSERVABLES[name], p), expect_form(OBSERVABLES[name], p)
            assert abs(got - want) <= 1e-12, (name, beta, kappa, got, want)


def _recording_transfer(monkeypatch):
    """Patch this module's _transfer to record (tensor shape, k) of each call."""
    calls, transfer = [], _transfer

    def recording(g, matrix, k):
        calls.append((g.shape, k))
        return transfer(g, matrix, k)

    monkeypatch.setitem(globals(), "_transfer", recording)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_full_never_pairs_sigma_with_phi(monkeypatch, n):
    # the per-edge reference sums sigma for every d phi at once, by one transfer over all E edge axes
    calls = _recording_transfer(monkeypatch)
    p = params(0.3, 0.45, n=n)
    E = len(box_index(2, 1).edge_verts)
    for gamma in (None, LOOP, OPEN2):
        assert math.isfinite(full_transfer(gamma, p))
    assert calls == [((3, n**E), E)] * 3


@pytest.mark.parametrize("box", FORM_POINTS, ids=[_point_id("expect_form", box) for box in FORM_POINTS])
def test_split_routes_transfer_over_straddling_keys_only(monkeypatch, box):
    # each form_split call bins one half by its key on the s straddling edges: a tensor of n^s entries
    m, n, N = box
    idx = box_index(m, N)
    P = len(idx.plaq_edges)
    s = int(_row_classes(idx.edge_plaqs, idx.edge_plaq_signs, P - P // 2)[2].sum())
    assert 0 < s <= P - P // 2
    calls = _recording_transfer(monkeypatch)
    form_split(LOOP, ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.45))
    assert calls == [((n**s,), s)] * 2


# Near STATE_GUARD the chunked references take 5-55 s a call, so their values there are
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
# every route that reaches a pinned box: the two-field measure equals the unitary-gauge one
PINNED_ROUTES = {"expect_unitary": (expect_unitary, expect_full), "expect_form": (expect_form, form_split)}


@pytest.mark.parametrize(
    "route, box, name, beta, kappa, want", PINNED_NEAR_GUARD, ids=[_point_id(*pt[:5]) for pt in PINNED_NEAR_GUARD]
)
def test_split_routes_match_pinned_reference_near_guard(route, box, name, beta, kappa, want):
    m, n, N = box
    p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)
    for exact in PINNED_ROUTES[route]:
        assert abs(exact(OBSERVABLES[name], p) - want) <= 1e-12, exact.__name__


# every 2-form point above: the chunked reference's boxes and the pinned box near the guard
ELIMINATION_POINTS = FORM_POINTS + [(2, 3, 2)]


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


HALF_TABLES = [(_form_halves, (2, 2, 2)), (_full_tables, (2, 1, 2))]


@pytest.mark.parametrize("build, box", HALF_TABLES, ids=["form", "full"])
def test_half_tables_are_read_only(build, box):
    arrays = [a for part in build(*box) if isinstance(part, tuple) for a in part]
    assert arrays and all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0] = 1


def _split_values(box):
    m, n, N = box
    p = ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.45)
    return [form_split(g, p) for g in (LOOP, OPEN2, BIG)]


def test_half_tables_give_the_same_bits_in_any_call_order():
    first = _split_values((2, 3, 1))
    small = _split_values((2, 2, 1))
    assert _split_values((2, 3, 1)) == first
    box_index.cache_clear()
    assert _split_values((2, 3, 1)) == first
    _form_halves.cache_clear()
    assert _split_values((2, 2, 1)) == small
    assert _split_values((2, 3, 1)) == first


MEASURES = ("form", "unitary", "full")


def test_form_plan_is_read_only():
    # the plan of every measure, the 2-form one among them
    for measure in MEASURES:
        arrays, steps = _plan(measure, 2, 2, 2)
        assert len(arrays) == 3 and all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 1
        idx = box_index(2, 2)  # a two-field edge joins in a step of its own
        assert isinstance(steps, tuple) and len(steps) == len(idx.plaq_edges) + (len(idx.edges) if measure == "full" else 0)
    # the coupling-free parts of the unitary-gauge and two-field lut, per n
    for n in (2, 3):
        parts = oracle._gauge_parts(n)
        assert len(parts) == 3 and all(not a.flags.writeable for a in parts)
        with pytest.raises(ValueError):
            parts[0][0] = 1
        assert parts[2].dtype == (np.float64 if n == 2 else np.complex128)
    assert oracle._gauge_parts(2)[2].tolist() == [1, 1, 1, -1]


def _form_values(box):
    # every measure's engine: the two-field frontier at m = 3 is past the guard (2 x 2^28)
    m, n, N = box
    p = ModelParams(m=m, n=n, N=N, beta=0.3, kappa=0.45)
    routes = [ROUTES[measure] for measure in MEASURES if m == 2 or measure != "full"]
    return [route(g, p) for route in routes for g in (None, LOOP, OPEN2, BIG, LOOP_3D, OPEN_3D) if g is None or g.m == m]


def test_form_plan_gives_the_same_bits_in_any_call_order():
    boxes = [(2, 3, 1), (2, 2, 2), (2, 2, 1), (3, 2, 1)]
    first = [_form_values(box) for box in boxes]
    assert [_form_values(box) for box in boxes[::-1]] == first[::-1]
    _plan.cache_clear()
    box_index.cache_clear()
    assert [_form_values(box) for box in boxes[::-1]] == first[::-1]
    assert [_form_values(box) for box in boxes] == first
    _lookup.cache_clear()
    assert [_form_values(box) for box in boxes] == first


# the observables of the lookup-cache tests: the constant 1, a loop and an open path, each
# built afresh so that no other test has cached it
FRESH = {
    "none": lambda: None,
    "loop": lambda: rectangle_loop(RECT),
    "open": lambda: rectangle_open_path(RECT, start=1, count=3),
}
LOOKUP_CASES = [(measure, name) for measure in MEASURES for name in FRESH]


@pytest.mark.parametrize("measure, name", LOOKUP_CASES)
def test_warm_call_builds_no_lookup(monkeypatch, measure, name):
    # the (denominator, numerator) index is cached per path object: a call at new couplings
    # reads neither the path's edge ranks nor its coefficients, and a warm call, a cold one
    # and one on a fresh path object with the same edges give the same bits
    g, route, p = FRESH[name](), ROUTES[measure], params(0.2, 0.6, n=3)
    _lookup.cache_clear()
    route(g, params(0.3, 0.45, n=3))

    def unread(*args):
        raise AssertionError("lookup rebuilt")

    monkeypatch.setattr(BoxIndex, "path", unread)
    monkeypatch.setattr(BoxIndex, "gamma_coeffs", unread)
    monkeypatch.setattr(oracle, "_wilson", unread)
    warm = route(g, p).hex()
    monkeypatch.undo()
    assert route(FRESH[name](), p).hex() == warm
    _lookup.cache_clear()
    assert route(g, p).hex() == warm


@pytest.mark.parametrize("measure, name", LOOKUP_CASES)
def test_lookup_is_read_only(measure, name):
    (res, _, _), _ = _plan(measure, 2, 1, 2)
    index = _lookup(measure, 2, 1, 2, FRESH[name]())
    assert index.shape == (2, len(res)) and not index.flags.writeable
    assert index[0].tolist() == res.tolist()  # the denominator reads every factor untilted
    with pytest.raises(ValueError):
        index[0, 0] = 1


@pytest.mark.parametrize("measure", MEASURES)
def test_lookup_refuses_a_bad_path_on_every_call(measure):
    # a refusal is not cached: the path is checked again on the next call
    outside = rectangle_loop(RectDescriptor(corner=(1, 1), axes=(1, 2), lengths=(1, 1)))
    flat = rectangle_loop(RectDescriptor(corner=(0, 0, 0), axes=(1, 2), lengths=(1, 1)))
    for g, match in ((outside, "outside"), (flat, "lies in Z\\^3, not in Z\\^2")):
        for _ in range(2):
            with pytest.raises(PreconditionError, match=match):
                ROUTES[measure](g, params(0.3, 0.45))


@pytest.mark.parametrize("measure", MEASURES)
def test_lookup_cache_is_bounded(measure):
    size = _lookup.cache_info().maxsize
    _lookup.cache_clear()
    for _ in range(size + 3):
        ROUTES[measure](rectangle_loop(RECT), params(0.3, 0.45))
    assert _lookup.cache_info().currsize == size


def test_full_tables_give_the_same_bits_in_any_call_order():
    p2, p3 = params(0.3, 0.45), params(0.3, 0.45, n=3)
    first = [full_transfer(g, p2) for g in (LOOP, OPEN2, BIG, None)]
    full_transfer(OPEN2, p3)
    assert [full_transfer(g, p2) for g in (LOOP, OPEN2, BIG, None)] == first
    _full_tables.cache_clear()
    box_index.cache_clear()
    assert [full_transfer(g, p2) for g in (None, BIG, OPEN2, LOOP)] == first[::-1]


# the ids name the measure, as in CHUNKED; the expect_unitary case keeps the id of the
# split-half tables it counted before the unitary route became an elimination
@pytest.mark.parametrize(
    "route, build, bound",
    [(form_split, _form_halves, 2**4 + 2**2), (expect_unitary, _plan, 2 * 2**5)],
    ids=["expect_form-_form_halves", "expect_unitary-_gauge_halves"],
)
def test_split_guard_counts_states_and_keys(monkeypatch, route, build, bound):
    # at m=2 n=2 N=1 the split-half 2-form reference holds 2^4 states (plaquettes) and 2^2 keys
    # (straddling edges); the unitary elimination holds 2 x 2^5 entries (a frontier of 5 edges)
    def guard(value):
        monkeypatch.setitem(globals(), "STATE_GUARD", value)
        monkeypatch.setattr(oracle, "STATE_GUARD", value)

    p = params(0.3, 0.45)
    build.cache_clear()
    guard(bound - 1)
    with pytest.raises(GuardError):
        route(LOOP, p)
    guard(bound)
    assert math.isfinite(route(LOOP, p))
    build.cache_clear()


@pytest.mark.parametrize("route", [expect_unitary, form_split], ids=["expect_unitary", "expect_form"])
def test_split_guard_refuses_before_any_table(monkeypatch, route):
    # the split-half 2-form reference refuses m=2 N=4 (2^64 2-forms); the unitary elimination,
    # whose frontier there is 11 edges, is first refused at m=3 N=2 (48 edges)
    def no_tables(*args):
        raise AssertionError("a route allocated before its guard")

    monkeypatch.setitem(globals(), "_digits", no_tables)
    monkeypatch.setattr(oracle, "_all_digits", no_tables)
    m, N = (2, 4) if route is form_split else (3, 2)
    loop = rectangle_loop(RectDescriptor(corner=(0,) * m, axes=(1, 2), lengths=(1, 1)))
    with pytest.raises(GuardError):
        route(loop, ModelParams(m=m, n=2, N=N, beta=0.1, kappa=0.1))


def test_elimination_guard_counts_its_widest_frontier(monkeypatch):
    # at m=2 N=1 the widest frontier is 3 plaquettes: 2 x 2^3 entries at n = 2
    p = params(0.3, 0.45)
    want = form_split(LOOP, p)
    _plan.cache_clear()
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**3 - 1)
    with pytest.raises(GuardError, match="2 x 2\\^3 entries"):
        expect_form(LOOP, p)
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**3)
    assert abs(expect_form(LOOP, p) - want) <= 1e-15
    _plan.cache_clear()


@pytest.mark.parametrize("m, N, width", [(3, 2, 47), (4, 1, 73)])
def test_elimination_guard_refuses_before_any_plan_table(monkeypatch, m, N, width):
    def no_tables(*args):
        raise AssertionError("the elimination built a plan table before its guard")

    _plan.cache_clear()
    monkeypatch.setattr(oracle, "_all_digits", no_tables)
    loop = rectangle_loop(RectDescriptor(corner=(0,) * m, axes=(1, 2), lengths=(1, 1)))
    with pytest.raises(GuardError, match=f"2 x 2\\^{width} entries"):
        expect_form(loop, ModelParams(m=m, n=2, N=N, beta=0.1, kappa=0.1))


@pytest.mark.parametrize(
    "route, N", [(expect_unitary, 6), (expect_full, 3), (expect_form, 6)], ids=["unitary", "full", "form"]
)
def test_elimination_holds_its_largest_entries_without_rescaling(route, N):
    # at beta = kappa = 0 every gauge configuration weighs 1, so the unitary-gauge and two-field
    # denominators are exactly n^V, the bound on every entry (2^312 and 2^133 here); at n = 2
    # every phase is +-1 and every sum exact, so the loop's numerator is exactly 0 (the 2-form
    # measure weighs the zero form alone)
    p = ModelParams(m=2, n=2, N=N, beta=0.0, kappa=0.0)
    values = route(None, p), route(LOOP, p)
    assert all(map(math.isfinite, values)) and values == (1.0, 0.0)


def test_elimination_guard_refuses_entries_past_the_double_range(monkeypatch):
    # the unitary-gauge entries reach 2^E: 2^1012 at m=2 N=11, the largest box within
    # STATE_GUARD (a frontier of 25 edges), and 2^1200 at N=12, past the double range
    def no_tables(*args):
        raise AssertionError("the elimination built a plan table before its guard")

    _plan.cache_clear()
    monkeypatch.setattr(oracle, "_all_digits", no_tables)
    with pytest.raises(AssertionError, match="before its guard"):
        expect_unitary(LOOP, ModelParams(m=2, n=2, N=11, beta=0.1, kappa=0.1))
    monkeypatch.setattr(oracle, "STATE_GUARD", 2 * 2**27)  # passes the frontier of 27 edges at N=12
    with pytest.raises(GuardError, match="2\\^1200, past the double range"):
        expect_unitary(LOOP, ModelParams(m=2, n=2, N=12, beta=0.1, kappa=0.1))


def test_elimination_reaches_past_the_split_half_guard():
    # m=2 N=4 has 2^64 2-forms and 2^144 gauge configurations; the widest frontiers are
    # 9 plaquettes and 11 edges
    p = ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.1)
    with pytest.raises(GuardError):
        form_split(LOOP, p)
    form = expect_form(LOOP, p)
    assert eta(0.1, 2) ** len(LOOP) <= form <= 1
    assert abs(expect_unitary(LOOP, p) - form) <= 1e-12


@pytest.mark.parametrize("box", [(2, 2, 1), (2, 3, 1), (2, 2, 2)], ids=["2x2x1", "2x3x1", "2x2x2"])
def test_elimination_gives_zero_for_an_open_path_at_kappa_zero(box):
    # no 2-form has delta equal to an open path, so every numerator entry is 0, and the ratio
    # divides by the denominator, whose all-zero entry is at least 1
    m, n, N = box
    for beta in (0.0, 0.4):
        p = ModelParams(m=m, n=n, N=N, beta=beta, kappa=0.0)
        assert expect_form(OPEN2, p) == 0.0 and expect_form(OPEN_HI, p) == 0.0


def test_r1_loop_exact_value_is_pinned():
    # R1's 8x8 loop at corner (-4, -4): the N=7 and N=8 boxes agree, the N=8 value is pinned,
    # and the unitary-gauge measure gives the N=7 value
    loop = rectangle_loop(RectDescriptor(corner=(-4, -4), axes=(1, 2), lengths=(8, 8)))
    at = lambda N: ModelParams(m=2, n=2, N=N, beta=1e-4, kappa=0.25)
    n7, n8 = (expect_form(loop, at(N)) for N in (7, 8))
    assert abs(n7 - n8) <= 1e-13 * n8
    assert n8 == pytest.approx(1.875925810390806e-11, rel=1e-13)
    assert expect_unitary(loop, at(7)) == pytest.approx(n7, rel=1e-13)


def test_m3_loop_exact_value_is_pinned():
    # the 2x2 loop at (-1, -1, 0) on the m=3 N=1 box, normalized by xi^|gamma|, by both
    # measures that reach it
    loop = rectangle_loop(RectDescriptor(corner=(-1, -1, 0), axes=(1, 2), lengths=(2, 2)))
    p = ModelParams(m=3, n=2, N=1, beta=1e-2, kappa=0.25)
    for route in (expect_form, expect_unitary):
        assert route(loop, p) / xi(0.25, 2) ** len(loop) == pytest.approx(1.1460463625462645, rel=1e-13)


def test_high_temperature_identity_n4():
    p = params(0.25, 0.5, n=4)
    for gamma in (LOOP, OPEN2):
        assert abs(expect_unitary(gamma, p) - expect_form(gamma, p)) < 1e-10


@pytest.mark.parametrize(
    "route, n", [(expect_unitary, 2), (expect_unitary, 3), (expect_unitary, 4), (expect_full, 2), (expect_full, 3)]
)
def test_exact_routes_raise_when_weights_overflow(route, n):
    # every unitary-gauge and two-field table is at most 1, so at kappa = 30, where the
    # enumerations' weights overflowed a float, both give the 2-form value; the route that
    # still raises is expect_form, whose phi_table overflows at a coupling of 360
    loop = rectangle_loop(RectDescriptor((0, 0), (1, 2), (1, 1)))
    at = lambda beta, kappa: ModelParams(m=2, n=n, N=1, beta=beta, kappa=kappa)
    for kappa in (20.0, 30.0):
        got = route(loop, at(0.1, kappa))
        assert math.isfinite(got) and abs(got - expect_form(loop, at(0.1, kappa))) <= 1e-12
    for beta, kappa in ((0.1, 360.0), (360.0, 0.1)):
        assert math.isfinite(route(loop, at(beta, kappa)))
        with pytest.raises(PreconditionError):
            expect_form(loop, at(beta, kappa))


@pytest.mark.parametrize("beta, kappa", [(0.1, 360.0), (360.0, 0.1)])
def test_expect_form_raises_when_phi_overflows(beta, kappa):
    loop = rectangle_loop(RectDescriptor((0, 0), (1, 2), (1, 1)))
    with pytest.raises(PreconditionError):
        expect_form(loop, ModelParams(m=2, n=2, N=1, beta=beta, kappa=kappa))
