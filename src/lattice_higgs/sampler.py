"""Heat-bath Gibbs sampling of the 2-form measure and its Wilson-tilted variant.

Each update resamples one plaquette value from its exact conditional given
the rest; the coderivative is cached on edges and updated incrementally.
The plaquettes split into 2 C(m, 2) classes, (plane {i, j}, (b_i + b_j)
mod 2), whose members share no edges, so a class is updated as one exact
vectorized block (for m = 2 this is the checkerboard on base parity); the
scan order (planes in canonical order, parity 0 before 1, members in
canonical order) is fixed and deterministic.  Randomness comes from
per-chain Philox counter streams, so trajectories are reproducible bit for
bit.

The Wilson estimator samples only the O(1) normalized observable
prod_e phi_kappa(delta omega + gamma) / (phi_kappa(delta omega) phi_kappa(1));
the exponentially small prefactor phi_kappa(1)^{|gamma|} is restored
analytically by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .couplings import ModelParams
from .errors import PreconditionError
from .forms import FormZn
from .oracle import BoxIndex, _phi_table, box_index, incidence
from .paths import LatticePath


@dataclass(frozen=True)
class EstimatorResult:
    """Batch-means Monte Carlo estimate."""

    mean: float
    std_error: float
    batches: int
    sweeps: int
    burn_in: int
    seed: int
    chains: int

    def as_dict(self):
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "batches": self.batches,
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "chains": self.chains,
        }


def _plaquette_classes(idx: BoxIndex) -> List[np.ndarray]:
    """Groups of plaquettes with pairwise disjoint boundary edges.

    Class (plane {i, j}, (b_i + b_j) mod 2): two plaquettes of one plane that
    share an edge are neighbours in it, so their b_i + b_j differ by one.
    Classes come plane by plane in canonical order, parity 0 first.
    """
    rows = np.arange(len(idx.plaq_axes))
    i, j = idx.plaq_axes.T
    parity = (idx.plaq_base[rows, i] + idx.plaq_base[rows, j]) % 2
    color = 2 * (i * idx.box.m + j) + parity
    return [np.flatnonzero(color == c) for c in np.unique(color)]


class ChainEnsemble:
    """K independent heat-bath chains advanced in lock step.

    Chain i draws from Philox(SeedSequence(seed).spawn()[i]); state arrays
    carry a leading chain axis.  A single chain is the K = 1 case.
    """

    def __init__(
        self,
        params: ModelParams,
        tilt: Optional[LatticePath] = None,
        seed: int = 0,
        chains: int = 1,
    ):
        self.params = params
        self.idx = box_index(params.m, params.N)
        self.n = params.n
        self.k = chains
        self.seed = seed
        P, E = len(self.idx.plaq_edges), len(self.idx.edge_verts)
        self.omega = np.zeros((chains, P), dtype=np.int16)
        self.delta = np.zeros((chains, E), dtype=np.int16)
        self.sweeps = 0
        ss = np.random.SeedSequence(seed)
        self.rngs = [np.random.Generator(np.random.Philox(c)) for c in ss.spawn(chains)]
        self.phi_b = _phi_table(params.beta, params.n)
        self.phi_k = _phi_table(params.kappa, params.n)
        self.tilt = (
            (self.idx.gamma_coeffs(tilt).astype(np.int16) % self.n)
            if tilt is not None
            else np.zeros(E, dtype=np.int16)
        )
        self._classes = _plaquette_classes(self.idx)
        self._class_edges = [self.idx.plaq_edges[c] for c in self._classes]
        self._class_signs = [self.idx.plaq_signs[c].astype(np.int16) for c in self._classes]
        self._class_tilt = [self.tilt[e] for e in self._class_edges]

    # -- single-site conditional, exposed for tests and exactness checks ----

    def conditional_weights(self, p_idx: int, chain: int = 0) -> np.ndarray:
        """Normalized conditional distribution of one plaquette value."""
        e = self.idx.plaq_edges[p_idx]
        s = self.idx.plaq_signs[p_idx].astype(np.int16)
        own = self.omega[chain, p_idx]
        d_other = (self.delta[chain, e] - own * s) % self.n
        w = np.empty(self.n)
        for g in range(self.n):
            w[g] = self.phi_b[g] * self.phi_k[(d_other + g * s + self.tilt[e]) % self.n].prod()
        return w / w.sum()

    # -- sweeps --------------------------------------------------------------

    def sweep(self):
        for cls, e_ids, signs, tl in zip(
            self._classes, self._class_edges, self._class_signs, self._class_tilt
        ):
            self._update_class(cls, e_ids, signs, tl)
        self.sweeps += 1

    def _update_class(self, cls, e_ids, signs, tl):
        n = self.n
        own = self.omega[:, cls]  # (K, C)
        d_gather = self.delta[:, e_ids]  # (K, C, 4)
        d_other = (d_gather - own[:, :, None] * signs[None, :, :]) % n
        weights = np.empty((self.k, len(cls), n))
        for g in range(n):
            resid = (d_other + g * signs[None, :, :] + tl[None, :, :]) % n
            weights[:, :, g] = self.phi_b[g] * self.phi_k[resid].prod(axis=2)
        cum = weights.cumsum(axis=2)
        u = np.stack([rng.random(len(cls)) for rng in self.rngs])
        r = u * cum[:, :, -1]
        new = (cum < r[:, :, None]).sum(axis=2).astype(np.int16)
        self.omega[:, cls] = new
        upd = (d_other + new[:, :, None] * signs[None, :, :]) % n
        self.delta[:, e_ids.ravel()] = upd.reshape(self.k, -1)

    def run(self, sweeps: int):
        for _ in range(sweeps):
            self.sweep()

    # -- observables and state access ----------------------------------------

    def wilson_support(self, gamma: LatticePath) -> Tuple[np.ndarray, np.ndarray]:
        """(edge ranks, coefficients) of gamma's support, for :meth:`normalized_wilson`."""
        support = list(gamma.support)
        coef = np.array([gamma.chain.coeffs[e] for e in support], dtype=np.int16)
        return self.idx.ids(support), coef

    def normalized_wilson(self, gamma) -> np.ndarray:
        """The O(1) Wilson observable per chain (see module docstring).

        ``gamma`` is a LatticePath or its :meth:`wilson_support` pair; a
        caller that evaluates one path every sweep passes the pair.
        """
        g_ids, g_coef = self.wilson_support(gamma) if isinstance(gamma, LatticePath) else gamma
        d = self.delta[:, g_ids]
        num = self.phi_k[(d + g_coef[None, :]) % self.n]
        den = self.phi_k[d] * self.phi_k[1]
        return (num / den).prod(axis=1)

    def config_ids(self) -> np.ndarray:
        """Mixed-radix id of each chain's configuration (tiny boxes only)."""
        P = self.omega.shape[1]
        if self.n**P > 1 << 31:
            raise PreconditionError("config ids only defined for tiny boxes")
        w = self.n ** np.arange(P - 1, -1, -1, dtype=np.int64)
        return self.omega.astype(np.int64) @ w

    def snapshot(self, chain: int = 0) -> FormZn:
        out = FormZn(2, self.n)
        for p, v in zip(self.idx.plaqs, self.omega[chain]):
            if v:
                out.set(p, int(v))
        return out

    def recompute_delta(self) -> np.ndarray:
        return incidence(self.omega, self.idx.edge_plaqs, self.idx.edge_plaq_signs, self.n)

    def validate_cache(self) -> bool:
        return bool(np.array_equal(self.recompute_delta(), self.delta))


def _check_margin(params: ModelParams, gamma: LatticePath, idx: BoxIndex):
    # integer-lattice margin: floor(N/4), so tiny boxes remain usable
    need = params.N // 4
    dist = min(idx.box.boundary_distance(e) for e in gamma.support)
    if dist < need:
        raise PreconditionError(
            f"path margin {dist} below floor(N/4) = {need}; enlarge the box"
        )


def estimate_wilson(
    params: ModelParams,
    gamma: LatticePath,
    sweeps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
    chains: int = 4,
    batches_per_chain: int = 16,
) -> EstimatorResult:
    """Batch-means estimate of E[L-hat_gamma] / phi_kappa(1)^{|gamma|}.

    ``sweeps`` counts per-chain sweeps; burn-in defaults to 10% of sweeps.
    The un-tilted measure is sampled; multiply by xi_kappa^{|gamma|} to
    recover the raw Wilson expectation.
    """
    idx = box_index(params.m, params.N)
    _check_margin(params, gamma, idx)
    if burn_in is None:
        burn_in = sweeps // 10
    keep = sweeps - burn_in
    if keep <= 0:
        raise PreconditionError("burn-in consumes all sweeps")
    if chains * batches_per_chain < 32:
        raise PreconditionError("need at least 32 batches in total")
    ens = ChainEnsemble(params, tilt=None, seed=seed, chains=chains)
    support = ens.wilson_support(gamma)
    samples = np.empty((chains, keep))
    for t in range(sweeps):
        ens.sweep()
        if t >= burn_in:
            samples[:, t - burn_in] = ens.normalized_wilson(support)
    mean = float(samples.mean())
    bs = keep // batches_per_chain
    trimmed = samples[:, : bs * batches_per_chain]
    bmeans = trimmed.reshape(chains, batches_per_chain, bs).mean(axis=2).ravel()
    nb = len(bmeans)
    if np.allclose(bmeans, bmeans[0], rtol=0, atol=0):
        se = 0.0  # constant observable (e.g. beta = 0)
    else:
        se = float(bmeans.std(ddof=1) / math.sqrt(nb))
    return EstimatorResult(
        mean=mean,
        std_error=se,
        batches=nb,
        sweeps=sweeps,
        burn_in=burn_in,
        seed=seed,
        chains=chains,
    )


def sample_tilted_snapshots(
    params: ModelParams,
    gamma: LatticePath,
    schedule: Tuple[int, int, int],
    seed: int = 0,
) -> List[FormZn]:
    """Equally spaced snapshots of the Wilson-tilted chain.

    ``schedule`` is (burn_in, interval, count).
    """
    burn_in, interval, count = schedule
    if interval < 1 or count < 1:
        raise PreconditionError("need interval >= 1 and count >= 1")
    ens = ChainEnsemble(params, tilt=gamma, seed=seed, chains=1)
    ens.run(burn_in)
    out = []
    for _ in range(count):
        ens.run(interval)
        out.append(ens.snapshot(0))
    return out
