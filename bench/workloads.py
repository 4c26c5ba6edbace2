"""The four benchmark workloads of lattice_higgs.

Each workload is a closed loop in one process: one round of ops after
another, until the measured phase has lasted ``seconds`` (always at least
one round).  Ops are timed one by one; the output checks run between them,
untimed.  An op fails if it raises or if a check on its output fails.

Set-up is repeated ``SETUP_REPEATS`` times with the ``box_index`` cache
cleared before each repeat, and the median repeat is reported, so that
work moved into set-up shows.  Set-up times and op rates are rescaled by a
fixed reference kernel timed around them (``ReferenceKernel``).  All inputs
come from ``np.random.default_rng`` seeded with the workload seed; the
library receives only those inputs.

Reference points (ROADMAP): R1 is m=2, n=2, N=16, beta=1e-4, kappa=0.25
with the 8x8 loop at corner (-4,-4); R2 is m=4, n=2, N=3, beta=1e-5,
kappa=0.25; R3 is m=2, n=3, N=1.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from lattice_higgs import bounds, cells, couplings, forms, oracle, paths, sampler
from lattice_higgs.couplings import ModelParams
from lattice_higgs.paths import GammaStats, RectDescriptor, rectangle_loop, rectangle_open_path

from tracing import Tracer

SETUP_REPEATS = 3
# standard error of the normalized Wilson loop that sampler.time_to_se_s targets
TARGET_SE = 1e-3

# Captured before any tracing patch, so set-up can always clear the real cache.
_BOX_INDEX = oracle.box_index
_CHAIN_ENSEMBLE = sampler.ChainEnsemble


def _timed(fn, *args, **kwargs):
    """(result or None if it raised, wall seconds)."""
    t = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception:  # a raising op counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, time.perf_counter() - t


def _fail(workload, what):
    print(f"check failed [{workload}]: {what}", file=sys.stderr)


class _RecordingEnsemble(_CHAIN_ENSEMBLE):
    """A ChainEnsemble that remembers the smallest normalized Wilson sample it returned."""

    min_sample = math.inf

    def normalized_wilson(self, gamma):
        vals = super().normalized_wilson(gamma)
        self.min_sample = min(self.min_sample, float(vals.min()))
        return vals


@dataclass
class State:
    rng: np.random.Generator
    data: dict = field(default_factory=dict)


class ReferenceKernel:
    """Fixed work of the benchmark's own, timed around every round and set-up.

    A faster library leaves it unchanged, while the host's speed of the
    moment (which drifts by tens of percent on a shared machine) moves it
    and the workload alike; ``ops_per_ref_s`` and ``setup_s`` divide that
    drift out.  The rounds of each workload use the kernel whose kind of
    work is closest to their own, because interpreted, small-array and
    vectorized code drift differently; set-up repeats use ``NumpyKernel``.
    """

    NOMINAL_S = 0.01  # the kernel's time on a reference host

    def seconds(self):
        t = time.perf_counter()
        self.work()
        return time.perf_counter() - t


class NumpyKernel(ReferenceKernel):
    """Gathers, residues mod 2, table lookups, products and cumulative sums
    on arrays of a few thousand entries, like the sampler and the oracles."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.state = rng.integers(0, 2, size=(4, 2048), dtype=np.int16)
        self.edges = rng.integers(0, 2048, size=(512, 4))
        self.signs = rng.choice(np.array([-1, 1], dtype=np.int16), size=(512, 4))
        self.table = np.array([1.0, 0.3])

    def work(self):
        for _ in range(36):
            d = (self.state[:, self.edges] - self.signs[None]) % 2
            w = self.table[(d + self.signs[None]) % 2].prod(axis=2)
            (np.cumsum(w, axis=1) < 0.5).sum()


class SmallArrayKernel(ReferenceKernel):
    """Heat-bath updates of one plaquette in 4 chains at a time: many numpy
    calls on arrays of a few entries, like the sampler's m >= 3 raster scan,
    whose time is call overhead rather than arithmetic."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.rngs = [np.random.default_rng(i) for i in range(4)]
        self.omega = rng.integers(0, 2, size=(4, 64), dtype=np.int16)
        self.delta = rng.integers(0, 2, size=(4, 256), dtype=np.int16)
        self.edges = rng.integers(0, 256, size=(64, 1, 4))
        self.signs = rng.choice(np.array([-1, 1], dtype=np.int16), size=(64, 1, 4))
        self.table = np.array([1.0, 0.3])

    def work(self):
        for i in range(120):
            p, e, s = [i % 64], self.edges[i % 64], self.signs[i % 64][None]
            d = (self.delta[:, e] - self.omega[:, p][:, :, None] * s) % 2
            w = np.empty((4, 1, 2))
            for g in range(2):
                w[:, :, g] = self.table[g] * self.table[(d + g * s) % 2].prod(axis=2)
            cum = w.cumsum(axis=2)
            u = np.stack([r.random(1) for r in self.rngs])
            new = (cum < (u * cum[:, :, -1])[:, :, None]).sum(axis=2).astype(np.int16)
            self.omega[:, p] = new
            upd = (d + new[:, :, None] * s) % 2
            for k in range(4):
                self.delta[k, e.ravel()] = upd[k].ravel()


class PythonKernel(ReferenceKernel):
    """Interpreted float math in a loop, like the bounds layer's sums."""

    def work(self):
        s = 0.0
        for i in range(1, 30000):
            s += math.exp(-i * 1e-5) * math.log(i)
        return s


class Workload:
    """A workload: ``setup(seed) -> State``, then ``round(state, r, tracer) ->
    (ops, op seconds, failed ops)`` until time is up, then ``finish(state) ->
    failed ops`` for checks that need the whole run."""

    kernel = NumpyKernel

    def finish(self, st):
        return 0

    def layer_metrics(self, st):
        return {}


# ---------------------------------------------------------------------------
# mc-r1: estimate_wilson at R1, untilted
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McR1(Workload):
    name = "mc-r1"
    op = "one plaquette heat-bath update; a round is one estimate_wilson call of `sweeps` sweeps x `chains` chains"
    why = "m=2 checkerboard sweep and per-sweep normalized_wilson do the work; the m>=3 raster scan is bypassed"

    params: ModelParams = ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25)
    corner: Tuple[int, int] = (-4, -4)
    side: int = 8
    sweeps: int = 100
    # fixed settings, not dataclass fields
    chains = 4
    # the normalized observable is bounded below by (eta/xi)^|gamma|
    lower_bound_slack = 1e-12

    def setup(self, seed):
        p = self.params
        loop = rectangle_loop(RectDescriptor(corner=self.corner, axes=(1, 2), lengths=(self.side, self.side)))
        rng = np.random.default_rng(seed)
        ens = sampler.ChainEnsemble(p, seed=int(rng.integers(2**63)), chains=self.chains)
        lo = (couplings.eta(p.kappa, p.n) / couplings.xi(p.kappa, p.n)) ** len(loop) - self.lower_bound_slack
        return State(rng, dict(loop=loop, lo=lo, updates=self.sweeps * ens.omega.size, results=[]))

    def round(self, st, r, tracer):
        d = st.data
        made = []

        def make(*args, **kwargs):
            ens = _RecordingEnsemble(*args, **kwargs)
            made.append(ens)
            return ens

        # estimate_wilson looks ChainEnsemble up as a module global
        sampler.ChainEnsemble = make
        try:
            res, secs = _timed(
                sampler.estimate_wilson, self.params, d["loop"], sweeps=self.sweeps,
                seed=int(st.rng.integers(2**63)), chains=self.chains,
            )
        finally:
            sampler.ChainEnsemble = _CHAIN_ENSEMBLE
        tracer.run_id = f"check-{r}"
        ok = res is not None and len(made) == 1
        if ok:
            ens = made[0]
            if not ens.validate_cache():
                ok = False
                _fail(self.name, "delta cache differs from recomputed delta")
            if not ens.min_sample >= d["lo"]:
                ok = False
                _fail(self.name, f"normalized sample {ens.min_sample} below {d['lo']}")
            if not (math.isfinite(res.mean) and res.std_error >= 0):
                ok = False
                _fail(self.name, f"estimate {res}")
            d["results"].append((res.mean, res.std_error, secs))
        return d["updates"], secs, 0 if ok else d["updates"]

    def layer_metrics(self, st):
        """Monte Carlo statistics: reported, never gated (heavy-tailed at R1)."""
        res = st.data["results"]
        if not res:
            return {}
        means, ses, secs = zip(*res)
        se = math.sqrt(sum(s * s for s in ses)) / len(ses)
        # wall time to a standard error of TARGET_SE, scaling as 1/sqrt(time)
        return {
            "sampler.mc_mean": statistics.fmean(means),
            "sampler.mc_se": se,
            "sampler.time_to_se_s": sum(secs) * (se / TARGET_SE) ** 2,
        }


# ---------------------------------------------------------------------------
# mc-r2: Wilson-tilted ChainEnsemble at R2 with periodic snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McR2(Workload):
    name = "mc-r2"
    op = "one plaquette heat-bath update; a round is one sweep of `chains` chains plus one snapshot()"
    why = "m=4 one-plaquette-per-class raster scan is nearly all the work; tilt on and FormZn snapshots"
    kernel = SmallArrayKernel

    params: ModelParams = ModelParams(m=4, n=2, N=3, beta=1e-5, kappa=0.25)
    # fixed settings, not dataclass fields: side of the tilt loop, chains
    side = 2
    chains = 4

    def setup(self, seed):
        m = self.params.m
        rng = np.random.default_rng(seed)
        a, b = sorted(int(x) for x in rng.choice(np.arange(1, m + 1), size=2, replace=False))
        corner = [0] * m
        corner[a - 1] = corner[b - 1] = -(self.side // 2)
        tilt = rectangle_loop(RectDescriptor(corner=tuple(corner), axes=(a, b), lengths=(self.side, self.side)))
        ens = sampler.ChainEnsemble(self.params, tilt=tilt, seed=int(rng.integers(2**63)), chains=self.chains)
        return State(rng, dict(ens=ens, updates=ens.omega.size, rounds=0))

    def round(self, st, r, tracer):
        ens = st.data["ens"]

        def step():
            ens.sweep()
            return ens.snapshot(r % self.chains)

        snap, secs = _timed(step)
        st.data["rounds"] += 1
        tracer.run_id = f"check-{r}"
        ok = snap is not None
        if ok and not forms.delta(forms.delta(snap)).is_zero():
            ok = False
            _fail(self.name, "snapshot with delta(delta w) != 0")
        n = st.data["updates"]
        return n, secs, 0 if ok else n

    def finish(self, st):
        if st.data["ens"].validate_cache():
            return 0
        _fail(self.name, "delta cache differs from recomputed delta")
        return st.data["rounds"] * st.data["updates"]


# ---------------------------------------------------------------------------
# exact-r3: a fixed mix of exact enumeration queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactR3(Workload):
    name = "exact-r3"
    op = "one exact query; a round is the fixed mix of 7 queries (4 heavy, 3 cheap twins)"
    why = "vectorized enumeration does all the work (_digit_chunks, _unitary_weights, _delta_digits); holds the memory peak"

    form_box: Tuple[int, int, int] = (2, 2, 2)  # expect_form alone, 2x2 loop
    # fixed settings, not dataclass fields
    r3 = (2, 3, 1)  # (m, n, N) of expect_unitary vs expect_form
    full_box = (2, 2, 1)  # expect_full vs expect_unitary
    coupling_range = (0.05, 0.6)  # beta and kappa of each round, uniform in it
    twin_tol = 1e-10

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        corner = tuple(int(c) for c in rng.integers(-1, 1, size=2))
        rect = RectDescriptor(corner=corner, axes=(1, 2), lengths=(1, 1))
        side = self.form_box[2]
        d = dict(
            loop=rectangle_loop(rect),
            open2=rectangle_open_path(rect, start=int(rng.integers(4)), count=2),
            big=rectangle_loop(RectDescriptor(corner=(-(side // 2),) * 2, axes=(1, 2), lengths=(side, side))),
        )
        for m, _, N in (self.r3, self.form_box, self.full_box):
            oracle.box_index(m, N)
        return State(rng, d)

    def round(self, st, r, tracer):
        d = st.data
        beta, kappa = (float(x) for x in st.rng.uniform(*self.coupling_range, size=2))

        def at(box):
            m, n, N = box
            return ModelParams(m=m, n=n, N=N, beta=beta, kappa=kappa)

        queries = [
            (oracle.expect_unitary, d["loop"], at(self.r3)),
            (oracle.expect_form, d["loop"], at(self.r3)),
            (oracle.expect_form, d["big"], at(self.form_box)),
            (oracle.expect_full, d["loop"], at(self.full_box)),
            (oracle.expect_unitary, d["loop"], at(self.full_box)),
            (oracle.expect_full, d["open2"], at(self.full_box)),
            (oracle.expect_unitary, d["open2"], at(self.full_box)),
        ]
        vals, secs = [], 0.0
        for fn, obs, p in queries:
            v, s = _timed(fn, obs, p)
            vals.append(v)
            secs += s
        tracer.run_id = f"check-{r}"
        bad = set(i for i, v in enumerate(vals) if v is None)
        for i, j in ((0, 1), (3, 4), (5, 6)):
            if i in bad or j in bad:
                bad |= {i, j}
            elif not abs(vals[i] - vals[j]) <= self.twin_tol:
                bad |= {i, j}
                _fail(self.name, f"twins {queries[i][0].__name__}={vals[i]!r} and {queries[j][0].__name__}={vals[j]!r}")
        # perimeter law: eta_kappa^|gamma| <= E[W_gamma] <= 1
        p = queries[2][2]
        lo = couplings.eta(kappa, p.n) ** len(d["big"]) - 1e-12
        if 2 not in bad and not lo <= vals[2] <= 1 + 1e-12:
            bad.add(2)
            _fail(self.name, f"expect_form {vals[2]!r} outside [{lo}, 1]")
        return len(queries), secs, len(bad)


# ---------------------------------------------------------------------------
# bounds-r1: explicit constants and appendix sums per parameter point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsR1(Workload):
    name = "bounds-r1"
    op = "one parameter point: gamma_stats, assumption_check, constants, appendix_sums at each K (and prediction at R1)"
    why = "the only workload of the bounds and couplings layers; appendix_sums is nearly the whole op"
    kernel = PythonKernel

    # prediction() at R1, frozen in tests/test_bounds.py
    golden: Tuple[float, float] = (1.874745074786359e-11, 7.402712443378321e-07)
    # fixed settings, not dataclass fields
    params = ModelParams(m=2, n=2, N=16, beta=1e-4, kappa=0.25)
    corner = (-4, -4)
    side = 8
    ks = (60, 120)
    stats = GammaStats(length=32, p_gamma=60, p_gamma_c=4, ell1=8, ell2=8)
    golden_rel = 1e-9
    k_agree_rel = 1e-12
    # other points: kappa uniform in this range, beta = u tanh(kappa) / (16m)^2,
    # u uniform in u_range; all inside the strong-coupling regime
    kappa_range = (0.1, 0.3)
    u_range = (0.2, 0.8)
    r1_every = 4

    def setup(self, seed):
        p = self.params
        box = cells.LatticeBox.centered(p.m, p.N)
        loop = rectangle_loop(RectDescriptor(corner=self.corner, axes=(1, 2), lengths=(self.side, self.side)))
        return State(np.random.default_rng(seed), dict(box=box, loop=loop))

    def _point(self, st, r):
        if r % self.r1_every == 0:
            return self.params
        kappa = float(st.rng.uniform(*self.kappa_range))
        beta = float(st.rng.uniform(*self.u_range)) * math.tanh(kappa) / (16 * self.params.m) ** 2
        return ModelParams(m=self.params.m, n=self.params.n, N=self.params.N, beta=beta, kappa=kappa)

    def round(self, st, r, tracer):
        d = st.data
        p = self._point(st, r)
        at_r1 = p == self.params

        def op():
            stats = paths.gamma_stats(d["loop"], d["box"])
            reg = couplings.assumption_check(p)
            rep = bounds.constants(p, stats)
            sums = [bounds.appendix_sums(p, stats, K=k) for k in self.ks]
            pred = bounds.prediction(p, stats) if at_r1 else None
            return stats, reg, rep, sums, pred

        out, secs = _timed(op)
        tracer.run_id = f"check-{r}"
        return 1, secs, 0 if out is not None and self._check(p, *out) else 1

    def _check(self, p, stats, reg, rep, sums, pred):
        problems = []
        if stats != self.stats:
            problems.append(f"gamma_stats {stats}")
        if not reg.strong_coupling:
            problems.append("point outside the strong-coupling regime")
        if not (math.isfinite(rep.radius) and rep.radius > 0):
            problems.append(f"radius {rep.radius}")
        for k, pairs in zip(self.ks, sums):
            for num, bound in pairs:
                if not num <= bound:
                    problems.append(f"K={k}: tail sum {num} above closed form {bound}")
        for (a, _), (b, _) in zip(*sums):
            if b > 0 and not abs(a - b) <= self.k_agree_rel * b:
                problems.append(f"K={self.ks[0]} sum {a} vs K={self.ks[1]} sum {b}")
        if pred is not None:
            for got, want in zip(pred, self.golden):
                if not abs(got - want) <= self.golden_rel * abs(want):
                    problems.append(f"prediction {got!r} != golden {want!r}")
        for what in problems:
            _fail(self.name, f"{p}: {what}")
        return not problems


WORKLOADS = {w.name: w for w in (McR1(), McR2(), ExactR3(), BoundsR1())}


# ---------------------------------------------------------------------------
# The measurement loop
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int
    failed: int
    setup_s: list  # (seconds, reference-kernel seconds around it) per set-up repeat
    rounds: list  # (ops, op seconds, reference-kernel seconds around it) per round
    state: State
    tracer: Tracer


def measure(workload, seed, seconds, tracer=None):
    """Set the workload up SETUP_REPEATS times, then run rounds for ``seconds``."""
    tracer = tracer or Tracer()  # an uninstalled tracer only carries the run id
    # set-up builds the cell complex in every workload, so one kernel serves all
    setup_kernel, kernel = NumpyKernel(), workload.kernel()
    builds = []
    for i in range(SETUP_REPEATS):
        tracer.run_id = f"setup-{i}"
        # the previous repeat's state and cached index go before the next is
        # built, so that peak memory counts one of each, as the library holds
        state = None
        _BOX_INDEX.cache_clear()
        gc.collect()
        before = setup_kernel.seconds()
        t = time.perf_counter()
        state = workload.setup(seed)
        builds.append((time.perf_counter() - t, (before + setup_kernel.seconds()) / 2))
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    before = kernel.seconds()
    r = 0
    while True:
        tracer.run_id = f"op-{r}"
        ops, secs, bad = workload.round(state, r, tracer)
        after = kernel.seconds()
        rounds.append((ops, secs, (before + after) / 2))
        before = after
        attempted += ops
        failed += bad
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    tracer.run_id = "final"
    failed = min(attempted, failed + workload.finish(state))
    return Outcome(attempted, failed, builds, rounds, state, tracer)


def ops_per_s(outcome):
    """Median over rounds of the round's ops per op-second."""
    return statistics.median(ops / secs for ops, secs, _ in outcome.rounds)


def reference_rate(pairs):
    """Median of rates rescaled to the reference host, from (rate, kernel seconds) pairs."""
    return statistics.median(rate * ref / ReferenceKernel.NOMINAL_S for rate, ref in pairs)


def reference_time(pairs, nominal=ReferenceKernel.NOMINAL_S):
    """Median of times rescaled to the reference host, from (seconds, reference
    seconds) pairs, where the reference takes ``nominal`` seconds."""
    return statistics.median(secs * nominal / ref for secs, ref in pairs)


def ops_per_ref_s(outcome):
    return reference_rate((ops / secs, ref) for ops, secs, ref in outcome.rounds)


# (metric name, unit, better)
LAYER_METRICS = [
    ("oracle.box_index_s", "s", "lower"),
    ("cells.box_cells_s", "s", "lower"),
    ("sampler.init_s", "s", "lower"),
    ("sampler.sweep_s.p50", "s", "lower"),
    ("sampler.sweep_s.p90", "s", "lower"),
    ("sampler.sweep_calls", "count", "higher"),
    ("sampler.updates", "count", "higher"),
    ("sampler.normalized_wilson_s", "s", "lower"),
    ("sampler.normalized_wilson_calls", "count", "higher"),
    ("sampler.estimate_wilson_self_s", "s", "lower"),
    ("sampler.snapshot_s", "s", "lower"),
    ("oracle.expect_unitary_s", "s", "lower"),
    ("oracle.expect_unitary_states", "count", "higher"),
    ("oracle.expect_unitary_states_per_s", "1/s", "higher"),
    ("oracle.expect_full_s", "s", "lower"),
    ("oracle.expect_full_states", "count", "higher"),
    ("oracle.expect_full_states_per_s", "1/s", "higher"),
    ("oracle.expect_form_s", "s", "lower"),
    ("oracle.expect_form_states", "count", "higher"),
    ("oracle.expect_form_states_per_s", "1/s", "higher"),
    ("bounds.appendix_sums_k60_s", "s", "lower"),
    ("bounds.appendix_sums_k120_s", "s", "lower"),
    ("bounds.constants_s", "s", "lower"),
    ("couplings.assumption_check_s", "s", "lower"),
    ("paths.gamma_stats_s", "s", "lower"),
    ("forms.delta_s", "s", "lower"),
    ("sampler.mc_mean", "1", "higher"),
    ("sampler.mc_se", "1", "lower"),
    ("sampler.time_to_se_s", "s", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.ops_per_ref_s", "1/s", "higher"),
]

# span name of each self-time metric, and the phase whose runs it is taken over
_SPAN_METRICS = {
    "oracle.box_index_s": ("oracle.box_index", "setup"),
    "cells.box_cells_s": ("cells.box_cells", "setup"),
    "sampler.init_s": ("sampler.init", "setup"),
    "sampler.normalized_wilson_s": ("sampler.normalized_wilson", "op"),
    "sampler.estimate_wilson_self_s": ("sampler.estimate_wilson", "op"),
    "sampler.snapshot_s": ("sampler.snapshot", "op"),
    "oracle.expect_unitary_s": ("oracle.expect_unitary", "op"),
    "oracle.expect_full_s": ("oracle.expect_full", "op"),
    "oracle.expect_form_s": ("oracle.expect_form", "op"),
    "bounds.appendix_sums_k60_s": ("bounds.appendix_sums_k60", "op"),
    "bounds.appendix_sums_k120_s": ("bounds.appendix_sums_k120", "op"),
    "bounds.constants_s": ("bounds.constants", "op"),
    "couplings.assumption_check_s": ("couplings.assumption_check", "op"),
    "paths.gamma_stats_s": ("paths.gamma_stats", "op"),
    "forms.delta_s": ("forms.delta", "check"),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, outcome):
    """Per-layer metrics of a traced run.

    A ``*_s`` metric is the median, over set-up repeats or rounds, of the
    layer's summed self time in that repeat or round; a layer the workload
    never calls reports 0.  Counts are per round and repeat exactly.
    """
    tr = outcome.tracer
    table = tr.self_times()
    n = len(outcome.rounds)
    runs = {
        "setup": [f"setup-{i}" for i in range(len(outcome.setup_s))],
        "op": [f"op-{i}" for i in range(n)],
        "check": [f"check-{i}" for i in range(n)],
    }
    per_run = lambda span, phase: [table[r].get(span, 0.0) for r in runs[phase]]
    counts = lambda name: [tr.counts.get((r, name), 0) for r in runs["op"]]
    out = {metric: _median(per_run(span, phase)) for metric, (span, phase) in _SPAN_METRICS.items()}
    sweeps = [s[2] - s[1] for s in tr.spans if s[0] == "sampler.sweep" and s[4].startswith("op-")]
    out["sampler.sweep_s.p50"] = float(np.percentile(sweeps, 50)) if sweeps else 0.0
    out["sampler.sweep_s.p90"] = float(np.percentile(sweeps, 90)) if sweeps else 0.0
    calls = {}
    for s in tr.spans:
        calls[(s[4], s[0])] = calls.get((s[4], s[0]), 0) + 1
    for span in ("sampler.sweep", "sampler.normalized_wilson"):
        out[f"{span}_calls"] = _median([calls.get((r, span), 0) for r in runs["op"]])
    out["sampler.updates"] = _median(counts("sampler.updates"))
    for kind in ("unitary", "full", "form"):
        states = counts(f"oracle.expect_{kind}_states")
        secs = per_run(f"oracle.expect_{kind}", "op")
        out[f"oracle.expect_{kind}_states"] = _median(states)
        out[f"oracle.expect_{kind}_states_per_s"] = _median([k / s for k, s in zip(states, secs) if s > 0])
    out.update({"sampler.mc_mean": 0.0, "sampler.mc_se": 0.0, "sampler.time_to_se_s": 0.0})
    out.update(workload.layer_metrics(outcome.state))
    out["trace.ops_per_s"] = ops_per_s(outcome)
    out["trace.ops_per_ref_s"] = ops_per_ref_s(outcome)
    return out


def self_time_table(outcome):
    """Where the time goes in a traced run, per layer.

    ``setup``: median self seconds per set-up repeat, as a share of the
    median repeat; ``op``: self seconds summed over the measured rounds, as
    a share of the op seconds.  ``(outside spans)`` is the time no span covers.
    """
    table = outcome.tracer.self_times()
    setup_runs = [table.get(f"setup-{i}", {}) for i in range(len(outcome.setup_s))]
    op_runs = [table.get(f"op-{i}", {}) for i in range(len(outcome.rounds))]
    setup = {name: _median([t.get(name, 0.0) for t in setup_runs]) for name in set().union(*setup_runs)}
    op = {name: sum(t.get(name, 0.0) for t in op_runs) for name in set().union(*op_runs)}
    out = {}
    for phase, secs, total in (
        ("setup", setup, statistics.median(secs for secs, _ in outcome.setup_s)),
        ("op", op, sum(r[1] for r in outcome.rounds)),
    ):
        secs["(outside spans)"] = max(0.0, total - sum(secs.values()))
        out[phase] = {
            name: {"self_s": s, "share": s / total if total > 0 else 0.0}
            for name, s in sorted(secs.items(), key=lambda kv: -kv[1])
        }
    return out
