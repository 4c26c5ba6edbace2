"""Heat-bath Gibbs sampling of the 2-form measure and its Wilson-tilted variant.

Each update resamples one plaquette value from its exact conditional given
the rest; the coderivative is cached on edges and updated incrementally.
The plaquettes split into 2 C(m, 2) classes, (plane {i, j}, (b_i + b_j)
mod 2), whose members share no edges (``BoxIndex.plaq_classes``), so a
class is updated as one exact vectorized block; the scan order (planes in
canonical order, parity 0 before 1, members in canonical order) is fixed
and deterministic.

A plaquette's conditional depends only on its own value and the residues
(delta + tilt) mod n on its 4 boundary edges, so it is read from one
table built per ensemble: row ``own * n^4 + sum_k a_k n^k`` of the
(n^5, n) array of unnormalized cumulative weights (see
:func:`_conditional_table`).  The new value is the number of entries
below u times the row total, for one uniform u.  The weights are those of
the per-site formula of :meth:`ChainEnsemble.conditional_weights`,
product for product, and are never divided through, so the table samples
exactly as a per-site loop would.  The table holds n^6 floats, which
bounds n to n^6 <= ``oracle.STATE_GUARD``, i.e. n <= 20.

Randomness comes from per-chain Philox counter streams: each sweep draws
``rng.random(P)`` once per chain and uses the draws class by class in
scan order (draw position ``BoxIndex.plaq_class_pos``), so trajectories
are reproducible bit for bit.

Most plaquettes never move in the strong-coupling regime, and a sweep
skips them without changing a bit of the trajectory.  Call a member
*quiet* when its own value and the delta on its 4 boundary edges are 0:
it reads its *base row* ``sum_k tilt_k n^k`` of the table (row 0 off the
tilt), and moves only if its draw is *hot*, base[0] < u * base[-1], the
update's own comparison.  Rounding is monotone and the tilt is the same
in every chain, so a position is hot in some chain exactly when the
largest of its draws is.  A sweep therefore updates, class by class, only
the members of a *pool* of candidates, by the same table arithmetic.  The
pool starts from the state, so an assigned state needs no hook: the
plaquettes with a hot draw, the non-zero plaquettes, and the plaquettes
on every edge whose delta is non-zero; the tilt adds none, as it only
picks the base row.  After each class, the plaquettes on the edges of
every member that moved join it.  The invariant is that the pool holds
every non-quiet or hot member of the class about to be
updated; a quiet member with a cold draw would be written back unchanged,
so skipping it is exact, and an extra candidate costs time only.  The
pool is one set of plaquettes shared by all chains.  A class with no
candidate is skipped.  When the pool covers so much of a class that
skipping would not pay (fewer than ``_SKIP_MIN`` member updates saved,
counting a candidate as four), that class and the rest of the sweep
update their full member lists.  ``ChainEnsemble.moves`` counts the
plaquettes whose value changed, so a caller can tell that a sweep left
the state exactly as it was.

The Wilson estimator samples only the O(1) normalized observable
prod_e phi_kappa(delta omega + gamma) / (phi_kappa(delta omega) phi_kappa(1));
the exponentially small prefactor phi_kappa(1)^{|gamma|} is restored
analytically by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cells import PLAQ_SIGNS, BoxIndex, box_index, incidence
from .couplings import ModelParams, phi_table
from .errors import PreconditionError
from .forms import FormZn
from .oracle import STATE_GUARD
from .paths import LatticePath

# a class skips its quiet members only if that saves at least this many
# member updates, a candidate counting as four (the measured break-even of
# the extra gathers and pool scatters against one full class update)
_SKIP_MIN = 512

# batch means: each chain's kept sweeps split into this many batches
BATCHES_PER_CHAIN = 16


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


def _conditional_table(phi_b: np.ndarray, phi_k: np.ndarray, n: int) -> np.ndarray:
    """Cumulative heat-bath weights of one plaquette, for every neighbourhood.

    Row ``own * n^4 + sum_k a_k n^k`` (k = 0..3 over the boundary columns of
    ``BoxIndex.plaq_edges``), column g, holds
    sum_{h <= g} phi_beta(h) prod_k phi_kappa((a_k + (h - own) s_k) mod n),
    where a_k is the tilted coderivative (delta + tilt) mod n on edge k with
    the plaquette's current value ``own`` included, and s = PLAQ_SIGNS.  Rows
    are not normalized: sampling compares against u * row[-1].
    """
    row = np.arange(n**5)
    own = row // n**4
    a = (row[:, None] // n ** np.arange(4)) % n
    w = np.empty((n**5, n))
    for g in range(n):
        resid = (a + (g - own)[:, None] * PLAQ_SIGNS) % n
        w[:, g] = phi_b[g] * phi_k[resid].prod(axis=1)
    return w.cumsum(axis=1)


def _wrap(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place, for int16 x in [0, 2n): read as unsigned, x - n
    wraps round to a large value exactly when x < n."""
    v = x.view(np.uint16)
    np.minimum(v, v - np.uint16(n), out=v)
    return x


class ChainEnsemble:
    """K independent heat-bath chains advanced in lock step.

    Chain i draws from Philox(SeedSequence(seed).spawn()[i]); the state
    arrays ``omega`` (K, P) and ``delta`` (K, E) carry a leading chain axis
    and are kept C-contiguous.  A single chain is the K = 1 case.

    The constructor builds the (n^5, n) conditional table of the module
    docstring and reads the class layout from the shared ``box_index``.  It
    raises ``PreconditionError`` for fewer than one chain, and, before
    allocating anything, for n^6 > ``oracle.STATE_GUARD`` (n >= 21).  Each
    sweep draws ``rng.random(P)`` once per chain, whether or not it skips a
    plaquette, and updates only a pool of candidates that holds every
    member it could move: a member whose own value and boundary delta are
    0 is tested against its own base row, so the tilt puts no plaquette in
    the pool (module docstring).  ``moves`` counts the
    plaquette values changed so far, ``sweeps`` the sweeps run.
    ``snapshot`` and ``conditional_weights`` raise ``PreconditionError``
    for a chain outside [0, K).
    """

    def __init__(
        self,
        params: ModelParams,
        tilt: Optional[LatticePath] = None,
        seed: int = 0,
        chains: int = 1,
    ):
        n = params.n
        if chains < 1:
            raise PreconditionError(f"need at least one chain, got {chains}")
        if n**6 > STATE_GUARD:
            raise PreconditionError(f"the conditional table needs {n}^6 entries; n <= 20 only")
        self.params = params
        self.idx = box_index(params.m, params.N)
        self.n = n
        self.k = chains
        self.seed = seed
        P, E = len(self.idx.plaq_edges), len(self.idx.edge_verts)
        self.omega = np.zeros((chains, P), dtype=np.int16)
        self.delta = np.zeros((chains, E), dtype=np.int16)
        self.sweeps = 0
        ss = np.random.SeedSequence(seed)
        self.rngs = [np.random.Generator(np.random.Philox(c)) for c in ss.spawn(chains)]
        self.phi_b = phi_table(params.beta, n)
        self.phi_k = phi_table(params.kappa, n)
        self.tilt = (
            (self.idx.gamma_coeffs(tilt).astype(np.int16) % n)
            if tilt is not None
            else np.zeros(E, dtype=np.int16)
        )
        self._cum = _conditional_table(self.phi_b, self.phi_k, n)
        # per class: its slice of the sweep's draws, flat ranks into omega
        # (K, C) and delta (K, C, 4) across all chains, and its members' ranks
        chain = np.arange(chains)[:, None]
        self._blocks = []
        lo = 0
        for cls in self.idx.plaq_classes:
            e = self.idx.plaq_edges[cls]
            draws = slice(lo, lo + len(cls))
            self._blocks.append((draws, chain * P + cls, chain[:, :, None] * E + e, self.tilt[e], cls))
            lo += len(cls)
        # each draw position's base row, the one its member reads while its own
        # value and delta are 0, by its first and last column; keyed class by
        # class, as a (P, 4) int64 temporary would raise the memory peak
        base = np.concatenate([tl @ n ** np.arange(4) for _, _, _, tl, _ in self._blocks])
        self._base_first, self._base_last = self._cum[base, 0], self._cum[base, -1]
        self._u = np.empty((chains, P))  # the sweep's draws
        self.moves = 0

    # -- single-site conditional, exposed for tests and exactness checks ----

    def _check_chain(self, chain: int):
        if not 0 <= chain < self.k:
            raise PreconditionError(f"chain {chain} outside [0, {self.k})")

    def conditional_weights(self, p_idx: int, chain: int = 0) -> np.ndarray:
        """Normalized conditional distribution of one plaquette value."""
        self._check_chain(chain)
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
        # the scatters write through flat views, which needs C-contiguous state
        self.omega = np.ascontiguousarray(self.omega)
        self.delta = np.ascontiguousarray(self.delta)
        u = self._u
        for chain, rng in enumerate(self.rngs):
            rng.random(out=u[chain])
        idx = self.idx
        # the pool, by draw position: hot draws, which move a quiet member (the
        # comparison of _update on its base row), and every plaquette near a
        # non-zero delta or itself non-zero
        pool = u.max(axis=0) * self._base_last > self._base_first
        pool[idx.plaq_class_pos.compress(self.omega.any(axis=0))] = True
        pool[idx.edge_class_pos.compress(self.delta.any(axis=0), axis=0)] = True
        dense = False
        for draws, p_flat, e_flat, tl, cls in self._blocks:
            if not dense:
                j = pool[draws].nonzero()[0]
                if not len(j):
                    continue
                dense = self.k * (len(cls) - 4 * len(j)) < _SKIP_MIN
            if dense:
                # the full member list; no later class needs the pool
                self._update(p_flat, e_flat, tl, u[:, draws])
                continue
            moved = self._update(p_flat[:, j], e_flat[:, j], tl[j], u[:, draws][:, j])
            moved = j[moved.any(axis=0)]
            pool[idx.edge_class_pos[idx.plaq_edges[cls[moved]]]] = True
        self.sweeps += 1

    def _update(self, p_flat, e_flat, tl, u) -> np.ndarray:
        """Heat-bath update of the members at flat ranks ``p_flat`` of omega,
        with their boundary edges at ``e_flat`` of delta, the tilt ``tl`` there
        and draws ``u``; returns which members changed value."""
        n = self.n
        om, dl = self.omega.reshape(-1), self.delta.reshape(-1)
        own = om[p_flat]
        d = dl[e_flat]
        a = _wrap(d + tl, n)
        key = own.astype(np.int32)  # own n^4 + sum_k a_k n^k, by Horner
        for k in (3, 2, 1, 0):
            key *= n
            key += a[..., k]
        cum = self._cum.take(key, axis=0)
        r = u * cum[..., -1]
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
        self.moves += int(np.count_nonzero(change))
        return change != 0

    def run(self, sweeps: int):
        for _ in range(sweeps):
            self.sweep()

    # -- observables and state access ----------------------------------------

    def normalized_wilson(self, gamma) -> np.ndarray:
        """The O(1) Wilson observable per chain (see module docstring).

        ``gamma`` is a LatticePath or its ``BoxIndex.path`` pair; a caller
        that evaluates one path every sweep passes the pair.
        """
        g_ids, g_coef = self.idx.path(gamma) if isinstance(gamma, LatticePath) else gamma
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
        """One chain's omega as a FormZn; only its non-zero plaquettes get labels."""
        self._check_chain(chain)
        w = self.omega[chain]
        nonzero = np.flatnonzero(w)
        return FormZn(2, self.n, dict(zip(self.idx.plaq_labels(nonzero), w[nonzero].tolist())))

    def recompute_delta(self) -> np.ndarray:
        """delta omega from scratch, C-contiguous like the cached ``delta``."""
        d = incidence(self.omega, self.idx.edge_plaqs, self.idx.edge_plaq_signs, self.n)
        return np.ascontiguousarray(d)

    def validate_cache(self) -> bool:
        return bool(np.array_equal(self.recompute_delta(), self.delta))


def _check_margin(params: ModelParams, gamma: LatticePath, idx: BoxIndex):
    # integer-lattice margin: floor(N/4), so tiny boxes remain usable
    need = params.N // 4
    gamma.require_dim(idx.box.m)
    ends = gamma.ends
    dist = int(np.minimum(ends - idx.box.lo, np.subtract(idx.box.hi, ends)).min())
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
) -> EstimatorResult:
    """Batch-means estimate of E[L-hat_gamma] / phi_kappa(1)^{|gamma|}.

    ``sweeps`` counts per-chain sweeps; burn-in defaults to 10% of sweeps.
    The un-tilted measure is sampled; multiply by xi_kappa^{|gamma|} to
    recover the raw Wilson expectation.  Raises ``PreconditionError`` for a
    negative burn-in, fewer than 32 batches in total, or fewer kept sweeps
    than ``BATCHES_PER_CHAIN`` (a batch needs at least one sweep).

    The observable is evaluated again only after a sweep that moved some
    plaquette (``ChainEnsemble.moves``); otherwise delta, and so every
    sample, is exactly the previous one, which is reused.
    """
    idx = box_index(params.m, params.N)
    _check_margin(params, gamma, idx)
    if burn_in is None:
        burn_in = sweeps // 10
    if burn_in < 0:
        raise PreconditionError(f"burn_in must be >= 0, got {burn_in}")
    keep = sweeps - burn_in
    if keep <= 0:
        raise PreconditionError("burn-in consumes all sweeps")
    if chains * BATCHES_PER_CHAIN < 32:
        raise PreconditionError("need at least 32 batches in total")
    if keep < BATCHES_PER_CHAIN:
        raise PreconditionError(f"{keep} kept sweeps cannot fill {BATCHES_PER_CHAIN} batches per chain")
    ens = ChainEnsemble(params, tilt=None, seed=seed, chains=chains)
    support = idx.path(gamma)
    samples = np.empty((chains, keep))
    seen = None  # ens.moves when the observable was last evaluated
    for t in range(sweeps):
        ens.sweep()
        if t >= burn_in:
            if ens.moves != seen:
                vals, seen = ens.normalized_wilson(support), ens.moves
            samples[:, t - burn_in] = vals
    mean = float(samples.mean())
    bs = keep // BATCHES_PER_CHAIN
    trimmed = samples[:, : bs * BATCHES_PER_CHAIN]
    bmeans = trimmed.reshape(chains, BATCHES_PER_CHAIN, bs).mean(axis=2).ravel()
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
