"""Heat-bath Gibbs sampling of the 2-form measure and its Wilson-tilted variant.

Each update resamples one plaquette value from its exact conditional given
the rest; the coderivative is cached on edges and updated incrementally.
The plaquettes split into 2 C(m, 2) classes, (plane {i, j}, (b_i + b_j)
mod 2), whose members share no edges (``BoxIndex.plaq_classes``), so a
class is updated exactly as one vectorized block, or member by member in
any order; the scan order (planes in canonical order, parity 0 before 1,
members in canonical order) is fixed and deterministic.

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
``Generator.random`` draws it.

Most plaquettes never move in the strong-coupling regime.  Call a member
*quiet* when its own value and the delta on its 4 boundary edges are 0:
it reads its *base row* ``sum_k tilt_k n^k`` of the table (row 0 off the
tilt), and moves only if its draw is *hot*, base[0] < u * base[-1], the
update's own comparison.  Rounding is monotone, so the hot draws of a
base row are those with k >= k*, the row's first hot grid point, found at
construction; a draw is hot with probability q = (2^53 - k*) / 2^53.  A
quiet member with a cold draw would be written back unchanged, so a sweep
on the thinned route (below) updates only the members of a *pool* of
candidates, chain by chain.  Each chain has its own pool, which starts
from its state, so an assigned state needs no hook: its hot draws, its
non-zero plaquettes, and the plaquettes on those of their edges where its
delta is non-zero (delta = delta omega vanishes off the edges of non-zero
plaquettes); the tilt adds none, as it only picks the base row.  Class by
class, each candidate takes one scalar step of the table arithmetic, and
a member that moves adds the plaquettes on its 4 edges to the chain's
pool, all of them in later classes.  The invariant is that the pool
holds every non-quiet or hot member of the class about to be updated; a
candidate that is quiet by its turn, with no hot draw, is passed over
without a draw.  A class with no candidate is skipped.
``ChainEnsemble.moves`` counts the plaquettes whose value changed, so a
caller can tell that a sweep left the state exactly as it was.

A sweep takes one of two routes, fixed at construction from the couplings,
the box and the chain count (``_HOT_COST``).  The *dense*
route, where hot draws are common, draws ``rng.random(P)`` once per chain,
one draw per position of ``BoxIndex.scan_order``, and updates every member
of every class, with no pool.  The *thinned* route, where a sweep expects
few hot draws (the paper's Poisson regime of rare non-zero plaquettes),
draws only what its pools use.  Per chain and base row (rows with equal k*
together), the members of all sweeps, each sweep's in scan order, are one
run of independent Bernoulli(q) trials, skipped through by geometric gaps
(Bortz, Kalos and Lebowitz), each hot trial with a hot draw on
[k*, 2^53) 2^-53, so a sweep that holds no hot trial draws nothing for
them; then a cold draw on [0, k*) 2^-53 for each candidate that is not
hot and not quiet when its class is updated, so a chain with no candidate
makes no generator call.  Each draw is uniform given which trials are hot,
and the only draws left out are cold draws of quiet members, which never
move them, so a sweep has exactly the law of the dense sweep, and equals
the dense sweep run on the draws it made, with any cold draw where it made
none; its stream differs from the dense route's.

In that regime most sweeps are *quiet*: on the thinned route, a sweep of
the all-zero state before ``_due``, the first ``_draws`` call that holds
a hot trial, only ticks the clock.  ``ChainEnsemble.run`` and
:func:`estimate_wilson` step over each quiet stretch at once
(``ChainEnsemble._advance``): the clock and the sweep count move by its
length, with no generator call and no scan of the state per sweep, and the
estimator fills the stretch's kept samples with one slice write.  Every
other sweep, and every sweep of the dense route, is one ``sweep()`` call.

The Wilson estimator samples only the O(1) normalized observable
prod_e phi_kappa(delta omega + gamma) / (phi_kappa(delta omega) phi_kappa(1));
the exponentially small prefactor phi_kappa(1)^{|gamma|} is restored
analytically by the caller.

What depends only on the couplings (phi_beta, phi_kappa, the table) is kept
for the last couplings (:func:`_tables`); what depends on the box and the
tilt too (the tilt residues, the base rows and their groups by k*, the
draws expected hot per sweep) is kept per box index for the last
(couplings, tilt path object) built on it, and goes with the index
(:func:`_layout`).  Both are shared read-only.  Each ensemble builds its
own generator streams, state, route and dense blocks, so a construction
that finds both kept costs about its seeding.
"""

from __future__ import annotations

import math
import numbers
import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .cells import PLAQ_SIGNS, BoxIndex, box_index, incidence
from .couplings import ModelParams, phi, phi_table
from .errors import STATE_GUARD, PreconditionError
from .forms import FormZn
from .paths import LatticePath

# the route's cost constant, in member updates: a dense sweep costs one per
# member and chain plus _HOT_COST per class; the thinned route adds about
# _HOT_COST (m - 1) for each draw expected hot in a sweep, as a hot draw's
# move makes candidates of the 2(m - 1) plaquettes on each of its edges
# (the two costs were fitted apart and came out equal, to break-even points
# on a 2-core host, 4 chains: 2.1-2.3 expected hot draws per sweep at m=2
# N=2, 4, 6.2 at m=2 N=16, 7.1 at m=3 N=4, 21 at m=4 N=3; at m=2 N=1 the
# thinned route is faster at any beta up to 0.5)
_HOT_COST = 900

# batch means: each chain's kept sweeps split into this many batches
BATCHES_PER_CHAIN = 16

# Generator.random draws k * 2^-53 for k uniform on [0, 2^53)
_GRID = 2**53


@dataclass(frozen=True)
class EstimatorResult:
    """Batch-means Monte Carlo estimate, from ``chains * BATCHES_PER_CHAIN``
    batch means."""

    mean: float
    std_error: float
    sweeps: int
    burn_in: int
    seed: int
    chains: int
    moves: int  # plaquette values changed over all sweeps, burn-in included


def _conditional_table(phi_b: np.ndarray, phi_k: np.ndarray, n: int) -> np.ndarray:
    """Cumulative heat-bath weights of one plaquette, for every neighbourhood.

    Row ``own * n^4 + sum_k a_k n^k`` (k = 0..3 over the boundary columns of
    ``BoxIndex.plaq_edges``), column g, holds
    sum_{h <= g} phi_beta(h) prod_k phi_kappa((a_k + (h - own) s_k) mod n),
    where a_k is the tilted coderivative (delta + tilt) mod n on edge k with
    the plaquette's current value ``own`` included, and s = PLAQ_SIGNS.  Rows
    are not normalized: sampling compares against u * row[-1].

    The edge product depends on own and g only through the move
    c = (g - own) mod n, so it is built once per c over all (a_3..a_0), its
    factors multiplied in column order as a per-row product multiplies them,
    and every g is gathered from it in one broadcast.
    """
    c = np.arange(n)
    f = phi_k[(c + c[:, None, None] * PLAQ_SIGNS[:, None]) % n]  # [c, k, a_k]
    prod = f[:, 0, None, None, None, :] * f[:, 1, None, None, :, None] * f[:, 2, None, :, None, None]
    prod = (prod * f[:, 3, :, None, None, None]).reshape(n, n**4)
    w = prod[(c - c[:, None])[:, None, :] % n, np.arange(n**4)[:, None]]  # [own, a, g]
    w *= phi_b
    return w.reshape(n**5, n).cumsum(axis=1)


def _first_hot(first: float, last: float) -> int:
    """The smallest k with first < (k 2^-53) * last, the comparison of
    ``ChainEnsemble._update``, or 2^53 if there is none: on a base row with
    these first and last columns, the draws k 2^-53 of ``Generator.random``
    that move a quiet member are exactly those with k >= this bound, since
    rounding is monotone.  For 0 <= first <= last, as on every row, the
    estimate k0 = floor(fl(first / last) 2^53) is never above it: with
    u = 2^-53, fl(first / last) <= first / last (1 + u), so
    (k0 - 1) 2^-53 last <= first - u (last - first) <= first, and the
    rounded product stays <= first, as first is a float.  Unit steps up of
    the same comparison close the gap of a few units."""
    k = min(int(first / last * _GRID), _GRID)
    while k < _GRID and not first < k / _GRID * last:
        k += 1
    return k


def _wrap(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place, for int16 x in [0, 2n): read as unsigned, x - n
    wraps round to a large value exactly when x < n."""
    v = x.view(np.uint16)
    np.minimum(v, v - np.uint16(n), out=v)
    return x


@lru_cache(maxsize=1)
def _tables(beta: float, kappa: float, n: int):
    """phi_beta, phi_kappa and the conditional table, shared read-only by the
    ensembles at these couplings.  Cached for the last couplings only: the
    table holds n^6 floats (512 MB at n = 20), so a scan over couplings keeps
    at most one beyond those of its live ensembles.
    """
    phi_b, phi_k = phi_table(beta, n), phi_table(kappa, n)
    cum = _conditional_table(phi_b, phi_k, n)
    for a in (phi_b, phi_k, cum):
        a.flags.writeable = False
    return phi_b, phi_k, cum


# per box index, the key (couplings, tilt path object) and the layout last
# built on it; an entry goes with its index
_layouts = weakref.WeakKeyDictionary()


def _layout(params: ModelParams, tilt: Optional[LatticePath], idx: BoxIndex):
    """The seed-free part of a ``ChainEnsemble`` on ``idx`` that is not in
    :func:`_tables` (module docstring): the tilt residues, the base rows'
    first and last columns, the groups (k*, q = (2^53 - k*) / 2^53, members
    in scan order) of the first hot grid points k* < 2^53, and the draws
    expected hot per chain and sweep.  Kept for the last key per box index,
    as long as the index lives; its arrays are read-only and hold neither the
    table nor the index.  Raises PreconditionError, keeping nothing, for a
    base row of total weight 0.
    """
    key, layout = _layouts.get(idx, (None, None))
    if key == (params, tilt):
        return layout
    n = params.n
    P, E = len(idx.plaq_edges), len(idx.edge_verts)
    cum = _tables(params.beta, params.kappa, n)[2]
    tl = (idx.gamma_coeffs(tilt).astype(np.int16) % n) if tilt is not None else np.zeros(E, dtype=np.int16)
    # each plaquette's base row, the one it reads while its own value and
    # delta are 0, by its first and last column; row 0 off the plaquettes
    # on the tilt's edges
    base = np.zeros(P, dtype=np.intp)
    on_tilt = tl.nonzero()[0]
    if len(on_tilt):
        on = np.unique(idx.edge_plaqs[on_tilt])
        base[on] = tl[idx.plaq_edges[on]] @ n ** np.arange(4)
    first, last = cum[base, 0], cum[base, -1]
    if not last.all():
        raise PreconditionError(f"a base row next to the tilt has total weight 0 at kappa = {params.kappa}")
    # base rows are below n^4
    rows = np.flatnonzero(np.bincount(base, minlength=n**4))
    row_kstar = [_first_hot(float(cum[r, 0]), float(cum[r, -1])) for r in rows]
    by_row = np.zeros(n**4, dtype=np.int64)
    by_row[rows] = row_kstar
    scan = idx.scan_order
    kstar = by_row[base[scan]]
    groups = tuple((k, (_GRID - k) / _GRID, scan[kstar == k]) for k in sorted(set(row_kstar)) if k < _GRID)
    hot = sum(q * len(at) for _, q, at in groups)
    for a in (tl, first, last, *(at for _, _, at in groups)):
        a.flags.writeable = False
    layout = tl, first, last, groups, hot
    _layouts[idx] = (params, tilt), layout
    return layout


class ChainEnsemble:
    """K independent heat-bath chains advanced in lock step.

    Chain i draws from Philox(SeedSequence(seed).spawn()[i]); the state
    arrays ``omega`` (K, P) and ``delta`` (K, E) carry a leading chain axis
    and are kept C-contiguous.  A single chain is the K = 1 case.

    The constructor reads the conditional table kept for the last couplings,
    the base rows' first hot grid points kept per box index for its last
    (couplings, tilt path object), and the class layout from the shared
    ``box_index``; it builds the generator streams, the state and the
    sweep's route (from ``_HOT_COST`` as it is then)
    per instance.  It raises ``PreconditionError`` for a chain count
    that is not an integer >= 1 or a seed that is not an integer >= 0,
    and, before allocating anything, for n^6 > ``errors.STATE_GUARD``
    (n >= 21), and, before the state, for a base row of total weight 0 (a
    tilt at kappa = 0, where the zero state has weight 0), on every such
    call.  A sweep takes the dense or the thinned route of the module
    docstring: the dense one draws ``rng.random(P)`` per chain and updates
    every member, the thinned one skips from one hot draw to the next by
    geometric gaps and gives each chain with a candidate its own pool,
    whose members take scalar steps class by class; the tilt puts no
    candidate in a pool.
    Both routes have the dense sweep's law and are reproducible per seed;
    the thinned route's stream differs from the dense route's.  ``run(k)``
    gives what k calls of ``sweep()`` give, bit for bit, and steps over
    each quiet stretch at once; it raises ``PreconditionError`` for a k
    that is not an integer >= 0.  ``moves`` counts the plaquette values
    changed so far, ``sweeps`` the sweeps run.
    ``snapshot`` and ``conditional_weights`` raise ``PreconditionError``
    for a chain that is not an integer in [0, K).
    """

    def __init__(
        self,
        params: ModelParams,
        tilt: Optional[LatticePath] = None,
        seed: int = 0,
        chains: int = 1,
    ):
        n = params.n
        if not isinstance(chains, numbers.Integral) or chains < 1:
            raise PreconditionError(f"need an integer number of chains >= 1, got {chains!r}")
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise PreconditionError(f"need an integer seed >= 0, got {seed!r}")
        if n**6 > STATE_GUARD:
            raise PreconditionError(f"the conditional table needs {n}^6 entries; n <= 20 only")
        self.params = params
        self.idx = idx = box_index(params.m, params.N)
        self.tilt, self._base_first, self._base_last, self._groups, hot = _layout(params, tilt, idx)
        self.phi_b, self.phi_k, self._cum = _tables(params.beta, params.kappa, n)
        self.n = n
        self.k = chains
        self.seed = seed
        P, E = len(idx.plaq_edges), len(idx.edge_verts)
        self.omega = np.zeros((chains, P), dtype=np.int16)
        self.delta = np.zeros((chains, E), dtype=np.int16)
        self.sweeps = 0
        ss = np.random.SeedSequence(seed)
        self.rngs = [np.random.Generator(np.random.Philox(c)) for c in ss.spawn(chains)]
        classes = idx.plaq_classes
        # the route: thinned while the draws expected hot in a sweep, summed
        # over the chains, cost less than the dense sweep they replace
        self._thin = chains * hot * _HOT_COST * (params.m - 1) < chains * P + _HOT_COST * len(classes)
        if self._thin:
            # the thinned route's _draws calls, the first call with a hot trial, and
            # per chain and group the next hot trial, drawn on the first call
            self._clock, self._due, self._next = 0, 0, None
            # flat views for the per-candidate steps' scalar reads (no copies)
            self._cum_v = memoryview(self._cum.reshape(-1))
            self._pe = memoryview(idx.plaq_edges.reshape(-1))
            self._tl = memoryview(self.tilt)
            self._cls = memoryview(idx.plaq_class)
            self._ep = memoryview(idx.edge_plaqs.reshape(-1))
            self._first_v, self._last_v = memoryview(self._base_first), memoryview(self._base_last)
        else:
            # per class: its slice of the sweep's draws, flat ranks into omega
            # (K, C) and delta (K, C, 4) across all chains, and the tilt there
            chain = np.arange(chains)[:, None]
            self._blocks = []
            lo = 0
            for cls in classes:
                e = idx.plaq_edges[cls]
                draws, lo = slice(lo, lo + len(cls)), lo + len(cls)
                self._blocks.append((draws, chain * P + cls, chain[:, :, None] * E + e, self.tilt[e]))
            self._u = np.empty((chains, P))  # the dense route's draws
        self.moves = 0

    # -- single-site conditional, exposed for tests and exactness checks ----

    def _check_chain(self, chain: int):
        # int first: the Integral check alone costs about a tenth of a quiet sweep
        if not isinstance(chain, (int, numbers.Integral)) or not 0 <= chain < self.k:
            raise PreconditionError(f"need an integer chain in [0, {self.k}), got {chain!r}")

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
        self.sweeps += 1
        if self._thin:
            hot = self._draws()
            quiet = not np.count_nonzero(self.omega)  # then delta = delta omega is 0 too
            if quiet and not hot:
                return  # every member quiet and cold: the sweep would write the state back
        # the scatters write through flat views, which needs C-contiguous state
        self.omega = np.ascontiguousarray(self.omega)
        self.delta = np.ascontiguousarray(self.delta)
        if not self._thin:
            u = self._uniforms()
            for draws, p_flat, e_flat, tl in self._blocks:
                self._update(p_flat, e_flat, tl, u[:, draws])
            return
        # per chain with a candidate: its candidates' ranks, its hot draws first
        cands = defaultdict(set)
        for chain, draws in hot.items():
            cands[chain].update(draws)
        om, dl = memoryview(self.omega.reshape(-1)), memoryview(self.delta.reshape(-1))
        if not quiet:
            # each non-zero plaquette, and the plaquettes on those of its edges where
            # delta is non-zero: delta = delta omega is 0 off the edges of non-zero ones
            P, E = self.omega.shape[1], self.delta.shape[1]
            pe, ep, w = self._pe, self._ep, self.idx.edge_plaqs.shape[1]
            # one flat bool array: numpy's nonzero is several times slower on a 2-D or int16 one
            for key in (self.omega.reshape(-1) != 0).nonzero()[0].tolist():
                chain, rank = divmod(key, P)
                pool = cands[chain]
                pool.add(rank)
                for e in pe[4 * rank : 4 * rank + 4]:
                    if dl[chain * E + e]:
                        pool.update(ep[e * w : e * w + w])
        for chain, members in cands.items():
            self._sweep_chain(om, dl, chain, members, hot.get(chain, {}))

    def _sweep_chain(self, om, dl, chain, cands, hot):
        """One chain's thinned sweep: ``cands``, a set of plaquette ranks, is
        sorted into per-class pools, and class by class each candidate of the
        pool takes the per-candidate step in canonical order; a member that
        moves adds the plaquettes on its edges that lie in later classes to
        the pool.  ``hot`` holds the chain's hot draws by rank; ``om``, ``dl``
        are flat views of omega and delta."""
        cls_of, pe, ep, w = self._cls, self._pe, self._ep, self.idx.edge_plaqs.shape[1]
        pool = [set() for _ in self.idx.plaq_classes]
        for rank in cands:
            pool[cls_of[rank]].add(rank)
        for c, members in enumerate(pool):
            for rank in sorted(members):
                if self._step(om, dl, chain, rank, hot):
                    for e in pe[4 * rank : 4 * rank + 4]:
                        for q in ep[e * w : e * w + w]:
                            if cls_of[q] > c:  # none in class c but the member shares an edge
                                pool[cls_of[q]].add(q)

    def _step(self, om, dl, chain, rank, hot) -> bool:
        """Heat-bath update of plaquette ``rank`` of one chain, by ``_update``'s
        table arithmetic on scalars, with its hot draw if ``hot`` has one and
        else a cold draw, made only if the member is not quiet (a quiet member
        with a cold draw stays); returns whether it moved.  ``om``, ``dl`` are
        flat views of omega and delta."""
        n, cum, pe, tl = self.n, self._cum_v, self._pe, self._tl
        i, e0, r = chain * len(self._first_v) + rank, chain * len(tl), 4 * rank
        ea, eb, ec, ed = pe[r], pe[r + 1], pe[r + 2], pe[r + 3]
        own, da, db, dc, dd = om[i], dl[e0 + ea], dl[e0 + eb], dl[e0 + ec], dl[e0 + ed]
        u = hot.get(rank)
        if u is None:
            if not (own or da or db or dc or dd):
                return False
            u = self._cold(chain, rank)
        # row own n^4 + sum_k a_k n^k, a_k = (delta + tilt) mod n on edge k, by Horner
        row = (((own * n + (dd + tl[ed]) % n) * n + (dc + tl[ec]) % n) * n + (db + tl[eb]) % n) * n
        row = (row + (da + tl[ea]) % n) * n
        r = u * cum[row + n - 1]
        new = 0  # the columns below r; the row is non-decreasing, and the last never counts
        while new < n - 1 and cum[row + new] < r:
            new += 1
        if new == own:
            return False
        om[i] = new
        change = new - own  # delta += change * PLAQ_SIGNS on the 4 edges
        dl[e0 + ea] = (da + change) % n
        dl[e0 + eb] = (db - change) % n
        dl[e0 + ec] = (dc - change) % n
        dl[e0 + ed] = (dd + change) % n
        self.moves += 1
        return True

    def _uniforms(self) -> np.ndarray:
        """The dense route's (K, P) draws: one ``rng.random(P)`` per chain."""
        u = self._u
        for chain, rng in enumerate(self.rngs):
            rng.random(out=u[chain])
        return u

    def _draws(self) -> dict:
        """The thinned route's hot draws as ``{chain: {rank: draw}}``, by chain
        and plaquette rank, holding only the chains with a hot draw.

        Per chain and group, trial call * len + i, for the group's member i
        (members in scan order), is hot with chance q, the next hot trial is
        kept on a clock of ``_draws`` calls, and a call before ``_due``, the
        first that holds one, makes no generator call.  A hot draw is uniform
        on [k*, 2^53) 2^-53 of its base row; with the cold draws of ``_cold``
        the draws have the law of the dense route's, though not its stream.
        """
        call, self._clock = self._clock, self._clock + 1
        if call < self._due:
            return {}
        if self._next is None:
            self._next = [[int(rng.geometric(q)) - 1 for _, q, _ in self._groups] for rng in self.rngs]
        hot = {}
        self._due = math.inf
        for chain, (rng, trials) in enumerate(zip(self.rngs, self._next)):
            for g, (kstar, q, members) in enumerate(self._groups):
                start = call * len(members)
                while trials[g] < start + len(members):  # Python ints: no overflow
                    hot.setdefault(chain, {})[int(members[trials[g] - start])] = rng.integers(kstar, _GRID) / _GRID
                    trials[g] += int(rng.geometric(q))
                self._due = min(self._due, trials[g] // len(members))
        return hot

    def _cold(self, chain, rank) -> float:
        """A draw of one chain for plaquette ``rank``, uniform on the grid and
        cold on its base row: a uniform draw, redrawn until it is cold."""
        rng, first, last = self.rngs[chain], self._first_v[rank], self._last_v[rank]
        u = rng.random()
        while u * last > first:
            u = rng.random()
        return u

    def _update(self, p_flat, e_flat, tl, u):
        """Heat-bath update of the members at flat ranks ``p_flat`` of omega,
        with their boundary edges at ``e_flat`` of delta, the tilt ``tl`` there
        and draws ``u``."""
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

    def _advance(self, sweeps: int) -> int:
        """Runs one ``sweep()``, or a whole quiet stretch of at most ``sweeps``
        sweeps at once, and returns how many sweeps it ran.

        A stretch is quiet while the state is all zero on the thinned route and
        the clock is before ``_due``: each of its sweeps would only tick the
        clock, so the stretch ticks ``_clock`` and ``sweeps`` by its length and
        makes no generator call.
        """
        if self._thin and self._clock < self._due and not np.count_nonzero(self.omega):
            stretch = min(self._due - self._clock, sweeps)
            self._clock += stretch
            self.sweeps += stretch
            return stretch
        self.sweep()
        return 1

    def run(self, sweeps: int):
        if not isinstance(sweeps, numbers.Integral) or sweeps < 0:
            raise PreconditionError(f"need an integer number of sweeps >= 0, got {sweeps!r}")
        while sweeps > 0:
            sweeps -= self._advance(sweeps)

    # -- observables and state access ----------------------------------------

    def normalized_wilson(self, gamma: LatticePath) -> np.ndarray:
        """The O(1) Wilson observable per chain (see module docstring)."""
        g_ids, g_coef = self.idx.path(gamma)
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
    recover the raw Wilson expectation.  Raises ``PreconditionError``,
    before any ensemble is built, for phi_kappa(1) = 0 (kappa = 0, where the
    normalized observable is undefined), a ``sweeps`` or ``burn_in`` that
    is not an integer, a negative burn-in, fewer than 32 batches in total,
    or fewer kept sweeps than ``BATCHES_PER_CHAIN`` (a batch needs at least
    one sweep); ``ChainEnsemble`` refuses a non-integer ``chains`` and a
    ``seed`` that is not an integer >= 0 first.

    The observable depends on delta on gamma's edges only.  After a sweep
    that moved some plaquette (``ChainEnsemble.moves``) delta there is read,
    and the observable is evaluated again only if it differs from where it
    was last evaluated; otherwise every sample is exactly the previous one,
    which is reused.  A quiet stretch of the thinned route (module
    docstring) is run in one step, and its kept samples are one slice
    write; the result, the ensemble and its generator streams are those of
    one ``sweep()`` per sweep.  ``moves`` reports the plaquette values
    changed over all sweeps, burn-in included.
    """
    if phi(params.kappa, 1, params.n) == 0:
        raise PreconditionError(f"phi_kappa(1) = 0 at kappa = {params.kappa}: the normalized observable is undefined")
    idx = box_index(params.m, params.N)
    _check_margin(params, gamma, idx)
    if burn_in is None:
        burn_in = sweeps // 10
    for name, value in (("sweeps", sweeps), ("burn_in", burn_in)):
        if not isinstance(value, numbers.Integral):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
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
    g_ids = ens.idx.path(gamma)[0]
    samples = np.empty((chains, keep))
    moved = None  # ens.moves when delta on gamma's edges was last read
    seen = None  # delta on gamma's edges when the observable was last evaluated
    t = 0  # sweeps run
    while t < sweeps:
        done = ens._advance(sweeps - t)  # sweeps t .. t + done - 1, each leaving the same state
        if t + done > burn_in:
            if ens.moves != moved:
                moved, on_gamma = ens.moves, ens.delta[:, g_ids].tobytes()
                if on_gamma != seen:
                    vals, seen = ens.normalized_wilson(gamma), on_gamma
            samples[:, max(t, burn_in) - burn_in : t + done - burn_in] = vals[:, None]
        t += done
    mean = float(samples.mean())
    bs = keep // BATCHES_PER_CHAIN
    trimmed = samples[:, : bs * BATCHES_PER_CHAIN]
    bmeans = trimmed.reshape(chains, BATCHES_PER_CHAIN, bs).mean(axis=2).ravel()
    if (bmeans == bmeans[0]).all():
        se = 0.0  # constant observable (e.g. beta = 0)
    else:
        se = float(bmeans.std(ddof=1) / math.sqrt(len(bmeans)))
    return EstimatorResult(
        mean=mean,
        std_error=se,
        sweeps=sweeps,
        burn_in=burn_in,
        seed=seed,
        chains=chains,
        moves=ens.moves,
    )
