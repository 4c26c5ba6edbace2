"""Inputs outside a function's domain raise a clear error: one case per check
that no other test reaches."""

import pytest

from lattice_higgs.cells import Chain, LatticeBox, OrientedCell, coboundary, edge, plaquette
from lattice_higgs.couplings import ModelParams, psi
from lattice_higgs.errors import GuardError, PreconditionError
from lattice_higgs.forms import FormZn, connected_components, d, delta
from lattice_higgs.paths import LatticePath, RectDescriptor, gamma_stats, rectangle_loop, rectangle_open_path
from lattice_higgs.sampler import ChainEnsemble, estimate_wilson
from reference import form_distribution, gamma_R

SQUARE = RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(1, 1))
LOOP = rectangle_loop(SQUARE)
BOX = LatticeBox.centered(2, 2)
P = ModelParams(m=2, n=2, N=4, beta=0.1, kappa=0.3)


CASES = {
    # sampler and oracle
    "estimate_wilson-burn-in-takes-every-sweep": (
        lambda: estimate_wilson(P, LOOP, sweeps=100, burn_in=100), PreconditionError, "consumes all sweeps"),
    "estimate_wilson-fractional-sweeps": (
        lambda: estimate_wilson(P, LOOP, sweeps=400.0), PreconditionError, "sweeps must be an integer"),
    "estimate_wilson-fractional-burn-in": (
        lambda: estimate_wilson(P, LOOP, sweeps=400, burn_in=10.5), PreconditionError, "burn_in must be an integer"),
    "estimate_wilson-fractional-chains": (
        lambda: estimate_wilson(P, LOOP, sweeps=400, chains=4.0), PreconditionError, "integer number of chains"),
    "ensemble-fractional-chains": (lambda: ChainEnsemble(P, chains=2.0), PreconditionError, "integer number of chains"),
    "ensemble-fractional-seed": (lambda: ChainEnsemble(P, seed=1.5), PreconditionError, "integer seed >= 0"),
    "ensemble-negative-seed": (lambda: ChainEnsemble(P, seed=-1), PreconditionError, "integer seed >= 0"),
    "estimate_wilson-negative-seed": (
        lambda: estimate_wilson(P, LOOP, sweeps=400, seed=-1), PreconditionError, "integer seed >= 0"),
    "snapshot-fractional-chain": (lambda: ChainEnsemble(P, chains=2).snapshot(1.5), PreconditionError, "integer chain in \\[0, 2\\)"),
    "conditional_weights-fractional-chain": (
        lambda: ChainEnsemble(P, chains=2).conditional_weights(0, 0.5), PreconditionError, "integer chain in \\[0, 2\\)"),
    "run-fractional-sweeps": (lambda: ChainEnsemble(P).run(2.5), PreconditionError, "integer number of sweeps"),
    "run-negative-sweeps": (lambda: ChainEnsemble(P).run(-1), PreconditionError, "integer number of sweeps >= 0"),
    "config_ids-large-box": (
        lambda: ChainEnsemble(ModelParams(m=2, n=2, N=16, beta=0.1, kappa=0.3)).config_ids(), PreconditionError, "tiny boxes"),
    "form_distribution-large-box": (
        lambda: form_distribution(ModelParams(m=2, n=2, N=3, beta=0.1, kappa=0.3)), GuardError, "2\\^16"),
    # paths
    "gamma_stats-no-rectangle": (
        lambda: gamma_stats(LatticePath(LOOP.chain, "closed"), BOX), PreconditionError, "rectangle descriptor"),
    "gamma_R-no-rectangle": (lambda: gamma_R(LatticePath(LOOP.chain, "closed")), PreconditionError, "rectangle descriptor"),
    "open-path-no-edge": (lambda: rectangle_open_path(SQUARE, 0, 0), ValueError, "between 1 and perimeter-1"),
    "open-path-every-edge": (lambda: rectangle_open_path(SQUARE, 0, 4), ValueError, "between 1 and perimeter-1"),
    "path-kind": (lambda: LatticePath(LOOP.chain, "loop"), ValueError, "kind must be"),
    "path-of-plaquettes": (lambda: LatticePath(Chain.of(plaquette((0, 0), 1, 2)), "closed"), ValueError, "1-chains"),
    "path-empty": (lambda: LatticePath(Chain(1), "open"), ValueError, "empty path"),
    "open-path-without-ends": (lambda: LatticePath(LOOP.chain, "open"), ValueError, "x2 - x1"),
    "path-off-its-rectangle": (lambda: LatticePath(Chain.of(edge((0, 1), 2)), "open", SQUARE), ValueError, "rectangle boundary"),
    "rectangle-axes": (lambda: RectDescriptor(corner=(0, 0), axes=(2, 1), lengths=(1, 1)), ValueError, "a1 < a2"),
    "rectangle-side-0": (lambda: RectDescriptor(corner=(0, 0), axes=(1, 2), lengths=(0, 1)), ValueError, ">= 1"),
    "rectangle-axis-beyond-the-corner": (lambda: rectangle_loop(RectDescriptor((0, 0), (1, 3), (1, 1))), ValueError, "dimension 2"),
    # cells and forms
    "box-bounds": (lambda: LatticeBox(2, (0,), (1, 1)), ValueError, "m-vectors"),
    "box-empty": (lambda: LatticeBox(2, (0, 1), (1, 0)), ValueError, "empty box"),
    "box-centered-m-1": (lambda: LatticeBox.centered(1, 2), ValueError, "m >= 2"),
    "cell-sign": (lambda: OrientedCell((0, 0), (1,), 2), ValueError, "sign"),
    "cell-direction-0": (lambda: OrientedCell((0, 0), (0, 1)), ValueError, "1-based"),
    "cell-directions-unsorted": (lambda: OrientedCell((0, 0), (2, 1)), ValueError, "strictly increasing"),
    "cell-direction-beyond-the-base": (lambda: edge((0, 0), 3), ValueError, "direction 3 exceeds the dimension 2"),
    "form-modulus-1": (lambda: FormZn(2, 1), ValueError, "n must be >= 2"),
    "d-of-a-top-form": (lambda: d(FormZn(2, 2), BOX), PreconditionError, "top-dimensional"),
    "delta-of-a-0-form": (lambda: delta(FormZn(0, 2)), PreconditionError, "0-forms"),
    "components-of-a-1-form": (lambda: connected_components(FormZn(1, 2)), PreconditionError, "2-forms"),
    "coboundary-at-k-m": (lambda: coboundary(plaquette((0, 0), 1, 2), BOX), PreconditionError, "k = m"),
    "psi-n-1": (lambda: psi(0.5, 0, 1), PreconditionError, "n must be >= 2"),
    "chain-cell-of-another-dimension": (lambda: Chain(1, {plaquette((0, 0), 1, 2): 1}), ValueError, "cell of dim 2"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(), ids=CASES.keys())
def test_input_outside_the_domain_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
