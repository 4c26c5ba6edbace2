"""Computational toolkit for the fixed-length Z_n lattice Higgs model.

Exact and Monte Carlo evaluation of Wilson line and loop expectations via
the high-temperature 2-form representation, together with the discrete
exterior calculus the model is built on, the coupling functions, and the
explicit small-beta error constants.
"""

from .cells import Chain, LatticeBox, OrientedCell, boundary, cell, coboundary, edge, plaquette, vertex
from .couplings import ModelParams, alpha, eta, eta_hat, phi, phi_hat, psi, xi, zeta
from .forms import FormZn, connected_components, d, delta, lhd, random_form
from .paths import GammaStats, LatticePath, RectDescriptor, gamma_stats, rectangle_loop

__all__ = [
    "Chain",
    "FormZn",
    "GammaStats",
    "LatticeBox",
    "LatticePath",
    "ModelParams",
    "OrientedCell",
    "RectDescriptor",
    "alpha",
    "boundary",
    "cell",
    "coboundary",
    "connected_components",
    "d",
    "delta",
    "edge",
    "eta",
    "eta_hat",
    "gamma_stats",
    "lhd",
    "phi",
    "phi_hat",
    "plaquette",
    "psi",
    "random_form",
    "rectangle_loop",
    "vertex",
    "xi",
    "zeta",
]

__version__ = "0.1.0"
