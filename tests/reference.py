"""What the tests read and no route computes with: the dict-based reference
routes on ``FormZn`` configurations, and the proof's objects (omega^E,
omega^gamma, gamma_R, P_gamma and P_gamma,c as labels, |P_{omega,gamma,c}|,
V^{gamma,omega}, the event E, the rectangle count of |P_gamma| and the
U-shaped half loop)."""

from typing import Callable, Dict, Optional, Set, Tuple

from lattice_higgs.cells import LatticeBox, OrientedCell, boundary, incidence
from lattice_higgs.couplings import ModelParams, phi, phi_table, rho
from lattice_higgs.errors import GuardError, PreconditionError
from lattice_higgs.forms import FormZn, connected_components, d, delta
from lattice_higgs.oracle import _all_digits, _wilson, box_index
from lattice_higgs.paths import LatticePath, RectDescriptor, _border, _loop_chain, rectangle_open_path


# -- the dict-based reference routes on forms -----------------------------


def action(sigma: FormZn, higgs: FormZn, params: ModelParams) -> float:
    """beta * S_W + kappa * S_H, summed over both orientations (hence real).

    ``sigma`` is the gauge 1-form and ``higgs`` the Higgs 0-form; both
    derivatives come from ``forms.d``, independent of :func:`incidence`.
    """
    idx = box_index(params.m, params.N)
    n = params.n
    dsig, dphi = d(sigma, idx.box), d(higgs, idx.box)
    sw = 0.0 + 0.0j
    for p in idx.plaqs:
        sw += rho(dsig(p), n) + rho(-dsig(p), n)
    sh = 0.0 + 0.0j
    for e in idx.edges:
        val = (sigma(e) - dphi(e)) % n
        sh += rho(val, n) + rho(-val, n)
    total = -(params.beta * sw + params.kappa * sh)
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise AssertionError(f"action has imaginary part {total.imag}")
    return total.real


def gauge_transform(sigma: FormZn, higgs: FormZn, eta: FormZn, box: LatticeBox):
    """sigma -> sigma + d eta, phi -> phi + eta, for a 0-form eta on the box."""
    return sigma + d(eta, box), higgs + eta


def form_distribution(params: ModelParams, tilt: Optional[LatticePath] = None):
    """All 2-form configurations with exact probabilities (tilted if asked).

    Returns (list of value-rows, probability vector); guarded to tiny boxes.
    """
    idx = box_index(params.m, params.N)
    P, n = len(idx.plaq_edges), params.n
    shift = _wilson(idx, tilt)
    if n**P > 1 << 16:
        raise GuardError("exact distribution limited to 2^16 configurations")
    phi_b = phi_table(params.beta, n)
    phi_k = phi_table(params.kappa, n)
    rows = _all_digits(n, P)
    dw = (incidence(rows, idx.edge_plaqs, idx.edge_plaq_signs, n) + shift) % n
    w = phi_k[dw].prod(axis=1) * phi_b[rows].prod(axis=1)
    return rows, w / w.sum()



def activity(form: FormZn, params: ModelParams) -> float:
    """Product of phi_kappa over delta-support edges and phi_beta over support.

    Factors at unsupported cells are phi(0) = 1, so the sparse product
    equals the full product over the box.
    """
    total = 1.0
    dw = delta(form)
    for e, v in dw.coeffs.items():
        total *= phi(params.kappa, v, params.n)
    for p, v in form.coeffs.items():
        total *= phi(params.beta, v, params.n)
    return total


def wilson_hat(form: FormZn, gamma: LatticePath, kappa: float) -> float:
    """The high-temperature Wilson observable (ratio form; needs kappa > 0)."""
    n = form.n
    dw = delta(form)
    total = 1.0
    for e, c in gamma.chain.coeffs.items():
        de = dw(e)
        total *= phi(kappa, (de + c) % n, n) / phi(kappa, de, n)
    return total


# -- the proof's objects ---------------------------------------------------


def _components_where(form: FormZn, keep: Callable[[FormZn], bool]) -> FormZn:
    """Sum of the components of a 2-form for which ``keep`` holds."""
    return form.restrict(c for comp in connected_components(form) if keep(comp) for c in comp.coeffs)


def omega_E(form: FormZn, edges: Set[OrientedCell]) -> FormZn:
    """Sum of components having a plaquette whose boundary meets the edge set.

    Equivalent to the coboundary formulation: supp(coboundary e) meets
    supp omega_j iff some supported plaquette of omega_j has e on its boundary.
    """
    edges = {e.positive() for e in edges}
    return _components_where(form, lambda comp: any(boundary(p).support & edges for p in comp.coeffs))


def omega_gamma(form: FormZn, gamma_support: Set[OrientedCell]) -> FormZn:
    """omega^gamma: components whose delta-support meets supp gamma."""
    return _components_where(form, lambda comp: bool(delta(comp).support & gamma_support))



def gamma_R(gamma: LatticePath) -> LatticePath:
    """The canonical completing rectangular loop (orientation matching gamma)."""
    if gamma.rect is None:
        raise PreconditionError("path has no rectangle descriptor")
    if gamma.kind == "closed":
        return gamma
    # LatticePath made every edge agree with one orientation of the loop
    loop = _loop_chain(gamma.rect)
    e, v = next(iter(gamma.chain.coeffs.items()))
    return LatticePath(loop if loop[e] == v else -loop, gamma.rect)


def u_shaped_path(rect: RectDescriptor, orientation: int = 1) -> LatticePath:
    """Bottom + right + left sides of the rectangle (the top side removed)."""
    l1, l2 = rect.lengths
    # traversal order: bottom (l1), right (l2), top (l1), left (l2); start at the left
    return rectangle_open_path(rect, start=2 * l1 + l2, count=l1 + 2 * l2, orientation=orientation)


def corner_plaquettes(gamma: LatticePath, box: Optional[LatticeBox] = None) -> Set[OrientedCell]:
    """P_{gamma,c}: positive plaquettes with >= 2 support edges of gamma on their boundary."""
    idx, _, corners = _border(gamma, box)
    return set(idx.plaq_labels(corners))


def p_gamma(gamma: LatticePath, box: LatticeBox) -> Set[OrientedCell]:
    """P_gamma: oriented plaquettes bordering gamma with consistent orientation.

    An oriented plaquette q belongs iff some oriented edge e of gamma has
    e in the oriented boundary of q; corner plaquettes shared by two path
    edges appear once (set semantics).
    """
    idx, keys, _ = _border(gamma, box)
    return {p if k % 2 else -p for p, k in zip(idx.plaq_labels(keys // 2), keys.tolist())}


def corner_count(form: FormZn, gamma: LatticePath) -> int:
    """|P_{omega,gamma,c}|: supported plaquettes with exactly two gamma edges in supp delta omega."""
    dsup = delta(form).support
    gsup = gamma.support
    total = 0
    for p in corner_plaquettes(gamma):
        if p not in form.support:
            continue
        if len(boundary(p).support & gsup & dsup) == 2:
            total += 1
    return total


def v_set(form: FormZn, gamma: LatticePath) -> Set[OrientedCell]:
    """V^{gamma,omega}: vertices where delta(delta omega^gamma | supp gamma_R) != 0."""
    if gamma.rect is None:
        raise PreconditionError("v_set needs a rectangle descriptor")
    loop = gamma_R(gamma)
    og = omega_gamma(form, gamma.support)
    u = delta(og).restrict(loop.support)
    w = delta(u)
    return w.support


def in_event_E(form: FormZn, gamma: LatticePath) -> bool:
    """The leading-order event: components adjacent to gamma are isolated
    single plaquettes and no supported corner plaquette touches gamma twice."""
    og2 = omega_E(form, gamma.support)
    og = omega_gamma(form, gamma.support)
    n_components = len(connected_components(og)) if not og.is_zero() else 0
    if len(og2.support) != n_components:
        return False
    return corner_count(form, gamma) == 0


def rectangle_p_gamma_count(gamma: LatticePath) -> int:
    """|P_gamma| from the rectangle geometry, for loops away from the boundary.

    Each edge borders 2(m-1) consistently oriented plaquettes; at every corner
    of the path the two incident edges share one plaquette, merged by the set
    union.
    """
    corners = _path_corner_count(gamma)
    return 2 * (gamma.m - 1) * len(gamma) - corners


def _path_corner_count(gamma: LatticePath) -> int:
    """Number of vertices where two perpendicular support edges of gamma meet."""
    by_vertex: Dict[Tuple[int, ...], Set[int]] = {}
    for e in gamma.support:
        for v in boundary(e).support:
            by_vertex.setdefault(v.base, set()).add(e.dirs[0])
    return sum(1 for dirs in by_vertex.values() if len(dirs) >= 2)
