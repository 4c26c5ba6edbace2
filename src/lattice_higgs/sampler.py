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
bounds n to n^6 <= ``errors.STATE_GUARD``, i.e. n <= 20.

Randomness comes from per-chain Philox counter streams, and every
trajectory is reproducible bit for bit from its seed.  A member's update
reads one uniform u = k 2^-53, k uniform on [0, 2^53), as
``Generator.random`` draws it; the sweep's P draws per chain are indexed
class by class in scan order (draw position ``BoxIndex.plaq_class_pos``).

Most plaquettes never move in the strong-coupling regime.  Call a member
*quiet* when its own value and the delta on its 4 boundary edges are 0:
it reads its *base row* ``sum_k tilt_k n^k`` of the table (row 0 off the
tilt), and moves only if its draw is *hot*, base[0] < u * base[-1], the
update's own comparison.  Rounding is monotone, so the hot draws of a
base row are those with k >= k*, the row's first hot grid point, found at
construction; a draw is hot with probability q = (2^53 - k*) / 2^53.  A
quiet member with a cold draw would be written back unchanged, so a sweep
on the thinned route (below) updates, class by class, only the members of
a *pool* of candidates, by the same table arithmetic.  The pool starts
from the state, so an assigned state needs no hook: the plaquettes with a
hot draw in some chain, the non-zero plaquettes, and the plaquettes on
every edge whose delta is non-zero; the tilt adds none, as it only picks
the base row.
After each class, the plaquettes on the edges of every member that moved
join it.  The invariant is that the pool holds every non-quiet or hot
member of the class about to be updated; an extra candidate costs time
only.  The pool is one set of plaquettes shared by all chains.  A class
with no candidate is skipped.  When the pool covers so much of a class
that skipping would not pay (fewer than ``_SKIP_MIN`` member updates
saved, counting a candidate as four), that class and the rest of the
sweep update their full member lists.  ``ChainEnsemble.moves`` counts the
plaquettes whose value changed, so a caller can tell that a sweep left
the state exactly as it was.

A sweep takes one of two routes, fixed at construction from the couplings,
the box and the chain count (``_HOT_COST``, ``_CLASS_COST``).  The *dense*
route, where hot draws are common, draws ``rng.random(P)`` once per chain
and updates every member of every class, with no pool.  The *thinned*
route, where a sweep expects few hot draws (the paper's Poisson regime of
rare non-zero plaquettes), draws only what its pool uses.  Per chain and
base row (rows with equal k* together), the positions of all sweeps are
one run of independent Bernoulli(q) trials, skipped through by geometric
gaps (Bortz, Kalos and Lebowitz), each hot trial with a hot draw on
[k*, 2^53) 2^-53, so a sweep that holds no hot trial draws nothing for
them; then, when a class updates its candidates, a cold draw on
[0, k*) 2^-53 for each candidate that is not hot.  Each draw is uniform
given the hot positions, so a sweep has exactly the law of the dense
sweep, and equals the dense sweep run on the draws it made, with 0.0 (a
cold draw) where it made none; its stream differs from the dense route's.

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
from .errors import STATE_GUARD, PreconditionError
from .forms import FormZn
from .paths import LatticePath

# a class skips its quiet members only if that saves at least this many
# member updates, a candidate counting as four (the measured break-even of
# the extra gathers and pool scatters against one full class update)
_SKIP_MIN = 512

# the route's costs, in member updates: a dense sweep costs one per member
# and chain plus _CLASS_COST per class; the thinned route adds about
# _HOT_COST for each draw expected hot in a sweep, as a hot draw sets off
# updates in most classes for about two sweeps (fitted to break-even points
# on a 2-core host: 0.35-0.4 expected hot draws per sweep at m=2 N=1, 2, 4,
# 1.3 at m=2 N=16, about 2 at m=3 N=4, over 10 at m=4 N=3, 4 chains)
_CLASS_COST = 900
_HOT_COST = 5000

# batch means: each chain's kept sweeps split into this many batches
BATCHES_PER_CHAIN = 16

# Generator.random draws k * 2^-53 for k uniform on [0, 2^53)
_GRID = 2**53
_NO_HOT = np.empty(0, dtype=np.intp)  # no hot draw position


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


def _first_hot(first: float, last: float) -> int:
    """The smallest k with first < (k 2^-53) * last, the comparison of
    ``ChainEnsemble._update``, or 2^53 if there is none: on a base row with
    these first and last columns, the draws k 2^-53 of ``Generator.random``
    that move a quiet member are exactly those with k >= this bound, since
    rounding is monotone."""
    lo, hi = 0, _GRID
    while lo < hi:
        mid = (lo + hi) // 2
        if first < mid / _GRID * last:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    docstring, each base row's first hot grid point, and the sweep's route,
    and reads the class layout from the shared ``box_index``.  It raises
    ``PreconditionError`` for fewer than one chain, and, before allocating
    anything, for n^6 > ``errors.STATE_GUARD`` (n >= 21).  A sweep takes
    the dense or the thinned route of the module docstring: the dense one
    draws ``rng.random(P)`` per chain and updates every member, the thinned
    one skips from one hot draw to the next by geometric gaps and updates
    only a pool of candidates, in which the tilt puts none.  Both routes
    have the dense sweep's law and are reproducible per seed; the thinned
    route's stream differs from the dense route's.  ``moves`` counts the
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
        # per first hot grid point k* < 2^53 of some base row: k*, the chance
        # q = (2^53 - k*) / 2^53 that a draw is hot there, and the draw
        # positions whose base row has that k*
        rows, row_of = np.unique(base, return_inverse=True)
        kstar = np.array([_first_hot(self._cum[r, 0], self._cum[r, -1]) for r in rows])[row_of]
        self._groups = [
            (k, (_GRID - k) / _GRID, np.flatnonzero(kstar == k)) for k in np.unique(kstar) if k < _GRID
        ]
        # the route: thinned while the draws expected hot in a sweep, summed
        # over the chains, cost less than the dense sweep they replace
        hot = chains * sum(q * len(at) for _, q, at in self._groups)
        self._thin = hot * _HOT_COST < chains * P + _CLASS_COST * len(self._blocks)
        self._u = None if self._thin else np.empty((chains, P))  # the dense route's draws
        # the thinned route's _draws calls, the first call with a hot trial, and
        # per chain and group the next hot trial, drawn on the first call
        self._clock, self._due, self._next = 0, 0, None
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
        self.sweeps += 1
        hot, uniforms = self._draws()
        if hot is None:
            # the dense route: every class updates its full member list
            for draws, p_flat, e_flat, tl, _ in self._blocks:
                self._update(p_flat, e_flat, tl, uniforms(draws))
            return
        quiet = not np.count_nonzero(self.omega)  # then delta = delta omega is 0 too
        if quiet and not len(hot):
            return  # every member quiet and cold: the sweep would write the state back
        idx = self.idx
        # the pool, by draw position: hot draws, and every plaquette near a
        # non-zero delta or itself non-zero
        pool = np.zeros(len(self._base_first), dtype=bool)
        pool[hot] = True
        if not quiet:
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
                self._update(p_flat, e_flat, tl, uniforms(np.arange(draws.start, draws.stop)))
                continue
            moved = self._update(p_flat[:, j], e_flat[:, j], tl[j], uniforms(draws.start + j))
            moved = j[moved.any(axis=0)]
            pool[idx.edge_class_pos[idx.plaq_edges[cls[moved]]]] = True

    def _draws(self):
        """The sweep's randomness as ``(hot, uniforms)``.

        ``uniforms(pos)`` returns the (K, len(pos)) draws at draw positions
        ``pos``; a sweep asks for each position at most once.  On the dense
        route ``hot`` is None and the draws are one ``rng.random(P)`` per
        chain.  On the thinned route ``hot`` lists the draw positions whose
        draw is hot, once for each chain it is hot in: per chain and group,
        trial call * len + position is hot with chance q, the next hot trial
        is kept on a clock of ``_draws`` calls, and a call before ``_due``,
        the first that holds one, makes no generator call.  A hot draw on
        [k*, 2^53) 2^-53 is made with its hit, a cold one on [0, k*) 2^-53
        of its base row only when asked for, so the draws have the law of
        the dense route's, though not its stream.
        """
        if not self._thin:
            u = self._u
            for chain, rng in enumerate(self.rngs):
                rng.random(out=u[chain])
            return None, lambda pos: u[:, pos]
        call, self._clock = self._clock, self._clock + 1
        if call < self._due:
            return _NO_HOT, self._cold_uniforms
        if self._next is None:
            self._next = [[int(rng.geometric(q)) - 1 for _, q, _ in self._groups] for rng in self.rngs]
        P = len(self._base_first)
        keys, vals = [], []  # chain * P + draw position of each hot draw, and the draw
        self._due = math.inf
        for offset, rng, trials in zip(range(0, self.k * P, P), self.rngs, self._next):
            for g, (kstar, q, members) in enumerate(self._groups):
                start = call * len(members)
                while trials[g] < start + len(members):  # Python ints: no overflow
                    keys.append(offset + members[trials[g] - start])
                    vals.append(rng.integers(kstar, _GRID) / _GRID)
                    trials[g] += int(rng.geometric(q))
                self._due = min(self._due, trials[g] // len(members))
        if not keys:
            return _NO_HOT, self._cold_uniforms
        keys = np.array(keys)
        order = keys.argsort()
        keys, vals = keys[order], np.array(vals)[order]
        offsets = np.arange(self.k)[:, None] * P

        def uniforms(pos):
            flat = offsets + pos
            i = np.minimum(keys.searchsorted(flat), len(keys) - 1)
            hot = keys[i] == flat
            u = self._cold_uniforms(pos, hot)
            u[hot] = vals[i[hot]]
            return u

        return keys % P, uniforms

    def _cold_uniforms(self, pos, hot=None):
        """(K, len(pos)) draws at draw positions ``pos``, each uniform on the
        grid and cold on its base row, except where ``hot`` is set: those are
        drawn uniform and left for the caller to replace."""
        u = np.empty((self.k, len(pos)))
        for chain, rng in enumerate(self.rngs):
            rng.random(out=u[chain])
        first, last = self._base_first[pos], self._base_last[pos]
        # a cold draw is a uniform draw conditioned to be cold: redraw until it is
        redo = u * last > first
        if hot is not None:
            redo &= ~hot
        if redo.any():
            for chain in np.flatnonzero(redo.any(axis=1)):
                again = np.flatnonzero(redo[chain])
                while len(again):
                    u[chain, again] = self.rngs[chain].random(len(again))
                    again = again[u[chain, again] * last[again] > first[again]]
        return u

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
        if not len(nonzero):
            return FormZn(2, self.n)  # plaq_labels costs microseconds even for no rank
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
