"""The benchmark's workloads, run against the program's public entry points.

Each workload makes its inputs from the seed, sets its service up a few
times (the last set-up serves the measured window), drives it closed-loop
for the run's seconds, then checks every answer outside the timed region.
With :class:`~perfbench.probes.Probes` passed in, the same run also yields
the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import multiprocessing
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import repro.gpu
from repro.core import DNNOccu, DNNOccuConfig
from repro.fleet import FleetService
from repro.fleet.hashring import HashRing
from repro.gpu import get_device
from repro.serve import PredictorService

from .answers import FallbackRecorder, is_wrong
from .env import PeakRSS
from .inputs import ZOO, default_graphs, unique_graphs, zipf_draws
from .layers import layer_metrics
from .probes import percentile

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: the PredictorService sets up in about 10 ms, so more repeats are cheap
SERVE_SETUP_REPEATS = 7

#: seed of every DNN-occu model in the benchmark (the fleet's default)
MODEL_SEED = 7
#: the model every workload serves: hidden 32, the fleet's default
CONFIG = DNNOccuConfig(hidden=32, num_heads=4)

#: where runs leave scratch files (shared disk tiers, span dumps): inside
#: the checkout, ignored by git
WORKDIR = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass
class Outcome:
    """What one run measured, checked and (when traced) attributed."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)      # name -> (value, unit)
    layers: dict = field(default_factory=dict)       # name -> (value, unit)
    notes: dict = field(default_factory=dict)


@dataclass
class _Request:
    rid: int
    start: float
    end: float
    item: object
    value: object = None
    error: str | None = None


def closed_loop(call, inputs, clients: int, seconds: float,
                probes=None) -> tuple[list[_Request], float, float]:
    """``clients`` threads each send the next input once the last returns.

    No request starts after the deadline; those in flight finish.  Returns
    the requests, the window's start and its end (the last completion).
    """
    order = itertools.count()
    done: list[_Request] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while True:
            t0 = time.perf_counter()
            if t0 >= deadline:
                return
            rid = next(order)
            if rid >= len(inputs):
                return
            req = _Request(rid, t0, t0, inputs[rid])
            scope = probes.request(rid) if probes is not None \
                else contextlib.nullcontext()
            try:
                with scope:
                    req.value = call(inputs[rid])
            except Exception as exc:  # counted as a failed operation
                req.error = f"{type(exc).__name__}: {exc}"
            req.end = time.perf_counter()
            done.append(req)

    threads = [threading.Thread(target=client, name=f"perfbench-client{i}")
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max((r.end for r in done), default=time.perf_counter())
    return sorted(done, key=lambda r: r.rid), start, end


def _freeze_inputs() -> None:
    """Keep the collector from rescanning the benchmark's own inputs.

    Hundreds of pre-built graphs are benchmark data, not program state; left
    in the young generations they make each full collection during the
    window scan them too.
    """
    gc.freeze()


def _timed_setups(build, teardown, repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; keep the last service.

    Returns ``(service, median set-up seconds)``.
    """
    times = []
    service = None
    for i in range(repeats):
        if service is not None:
            teardown(service)
        t0 = time.perf_counter()
        service = build(i)
        times.append(time.perf_counter() - t0)
    return service, statistics.median(times)


# --------------------------------------------------------------------- #
# serve-mixed-h32
# --------------------------------------------------------------------- #
SERVE_CLIENTS = 2
#: unique graphs made per measured second: twice the best rate measured
#: (21.9 req/s with tracing off), so a faster program still has inputs left
SERVE_GRAPHS_PER_S = 40


def serve_mixed_h32(seed: int, seconds: float, checker,
                    probes=None) -> Outcome:
    """PredictorService.predict, 2 closed-loop clients, every graph new."""
    device = get_device("A100")
    warm = default_graphs(["resnet-18"], device)[0]
    items = unique_graphs(seed, device, SERVE_GRAPHS_PER_S * int(seconds),
                          exclude={warm.key})
    _freeze_inputs()

    rss = PeakRSS()

    def build(i):
        svc = PredictorService(DNNOccu(CONFIG, seed=MODEL_SEED), device)
        svc.predict(warm.graph)
        return svc

    svc, setup_s = _timed_setups(build, lambda s: s.close(),
                                 SERVE_SETUP_REPEATS)
    # a shed request is answered by the fallback chain
    svc.fallback = shed = FallbackRecorder(svc.fallback)
    try:
        if probes is not None:
            probes.start_window()
        done, t0, t1 = closed_loop(lambda it: svc.predict(it.graph), items,
                                   SERVE_CLIENTS, seconds, probes)
        peak = rss.stop()
    finally:
        svc.close()
    out = _outcome(done, t0, t1, peak, setup_s, len(items))
    out.notes["shed"] = shed.calls
    _check(out, done, checker, device, shed)
    if probes is not None:
        out.layers = layer_metrics(probes, done, t0, t1)
    return out


# --------------------------------------------------------------------- #
# plan-mixed-h32
# --------------------------------------------------------------------- #
#: candidates per plan pass
PLAN_CANDIDATES = 2
#: candidate sets made per measured second: 24 graphs, about four times
#: the rate measured, so a faster program still has inputs left
PLAN_PASSES_PER_S = 12
#: the set-up pass: fixed, mid-sized, in no run's input
PLAN_WARM_MODELS = ("resnet-18", "vgg-11")


def plan_mixed_h32(seed: int, seconds: float, checker,
                   probes=None) -> Outcome:
    """plan_colocation passes over new graphs at hidden 32 on the P40."""
    device = get_device("P40")
    k = PLAN_CANDIDATES
    warm = default_graphs(PLAN_WARM_MODELS, device)
    items = unique_graphs(seed, device, k * (PLAN_PASSES_PER_S * int(seconds)),
                          exclude={it.key for it in warm})
    passes = [items[i:i + k] for i in range(0, len(items), k)]
    _freeze_inputs()

    def plan(svc, group):
        return repro.gpu.plan_colocation(svc, [it.graph for it in group])

    rss = PeakRSS()

    def build(i):
        svc = PredictorService(DNNOccu(CONFIG, seed=MODEL_SEED), device)
        plan(svc, warm)
        return svc

    svc, setup_s = _timed_setups(build, lambda s: s.close(),
                                 SERVE_SETUP_REPEATS)
    try:
        if probes is not None:
            probes.start_window()
        done, t0, t1 = closed_loop(lambda group: plan(svc, group), passes,
                                   1, seconds, probes)
        peak = rss.stop()
        # the served occupancies, read back from the session's result cache
        served = {it.key: svc.session.results.get(it.key)
                  for req in done for it in req.item}
    finally:
        svc.close()
    out = _outcome(done, t0, t1, peak, setup_s, len(passes), per=k)
    out.notes["passes"] = len(done)
    ok = [req for req in done if req.error is None]
    graphs = {it.key: it.graph for req in ok for it in req.item}
    t_check = time.perf_counter()
    refs = checker.reference_values(graphs, device.name)
    out.notes["check_s"] = time.perf_counter() - t_check
    # a pass fails whole when its plan is invalid; otherwise each graph
    # with a missing or wrong occupancy fails
    wrong = 0
    for req in ok:
        occs = [served[it.key] for it in req.item]
        if not _valid_plan(req.value, occs):
            out.failed += k
        else:
            wrong += sum(is_wrong(v, refs[it.key])
                         for v, it in zip(occs, req.item))
    out.failed += wrong
    out.notes["wrong_answers"] = wrong
    if probes is not None:
        out.layers = layer_metrics(probes, done, t0, t1)
    return out


def _valid_plan(groups, occs, cap: float = 1.0) -> bool:
    """Every candidate placed once; no multi-model group over ``cap``."""
    if any(v is None for v in occs):
        return False
    placed = sorted(i for g in groups for i in g)
    if placed != list(range(len(occs))):
        return False
    return all(len(g) == 1 or sum(occs[i] for i in g) <= cap + 1e-12
               for g in groups)


# --------------------------------------------------------------------- #
# fleet-zipf-h32
# --------------------------------------------------------------------- #
FLEET_CLIENTS = 2
FLEET_WORKERS = 2
FLEET_UNIVERSE = 128
ZIPF_S = 1.1
#: draws between popularity re-draws (see inputs.zipf_draws)
ZIPF_EPOCH = 32
#: key draws made per measured second, several times the rate measured
FLEET_DRAWS_PER_S = 1000


def fleet_zipf_h32(seed: int, seconds: float, checker,
                   probes=None) -> Outcome:
    """FleetService in process mode under Zipf-skewed repeated keys.

    The run's shared disk tier starts empty.  The first set-up's fleet
    answers every graph of the universe once before it closes, so the
    measured fleet starts with cold worker LRUs over a warm shared tier:
    a key's first request on its home worker reads the tier, every later
    one hits the LRU.
    """
    device = get_device("A100")
    # route set-up graphs the way the fleet will, so a set-up ends once
    # every worker has answered
    ring = HashRing()
    for wid in range(FLEET_WORKERS):
        ring.add(wid)
    warm = _one_per_worker(default_graphs(ZOO, device), ring)
    universe = unique_graphs(seed, device, FLEET_UNIVERSE,
                             exclude={it.key for it in warm})
    draws = zipf_draws(seed, FLEET_UNIVERSE, FLEET_DRAWS_PER_S * int(seconds),
                       ZIPF_S, ZIPF_EPOCH)
    inputs = [universe[int(i)] for i in draws]
    _freeze_inputs()

    rss = PeakRSS(period_s=0.05, with_children=True, exclude=checker.pids)
    shared = WORKDIR / "shared-tier"
    shutil.rmtree(shared, ignore_errors=True)
    shared.mkdir(parents=True)

    def build(i):
        svc = FleetService(num_workers=FLEET_WORKERS, mode="process",
                           shared_cache_dir=str(shared))
        for it in warm:
            svc.predict(it.graph)
        return svc

    try:
        svc, setup_s = _timed_setups(build, _fill_then_close(universe))
        svc.fallback = fallback = FallbackRecorder(svc.fallback)
        try:
            if probes is not None:
                probes.start_window()
            done, t0, t1 = closed_loop(lambda it: svc.predict(it.graph),
                                       inputs, FLEET_CLIENTS, seconds,
                                       probes)
            peak = rss.stop()
            stats = svc.stats()
        finally:
            svc.close()
    finally:
        shutil.rmtree(shared, ignore_errors=True)
    out = _outcome(done, t0, t1, peak, setup_s, len(inputs))
    out.notes["fallbacks"] = sum(stats["fallbacks"].values())
    out.notes["repeat_share"] = 1.0 - len({r.item.key for r in done}) \
        / max(1, len(done))
    # a fallback-ladder answer is a failed operation even when its value
    # is right: the ladder's shared-tier reads are counted here, its chain
    # answers per request in _check
    out.failed += out.notes["fallbacks"] - fallback.calls
    _check(out, done, checker, device, fallback)
    if probes is not None:
        out.layers = layer_metrics(probes, done, t0, t1)
        homes = [ring.candidates(r.item.key)[0] for r in done]
        out.layers["fleet.worker_share_max"] = (
            max(homes.count(w) for w in range(FLEET_WORKERS))
            / max(1, len(homes)), "ratio")
    return out


def _fill_then_close(items):
    """A set-up teardown that first has the first fleet answer ``items``.

    The answers land in the fleet's shared tier, outside any timed region.
    One client fills it: two cold forwards at once, each worker with its
    own BLAS threads on two CPUs, took 15.7 s for 128 graphs against 9.7 s.
    """
    filled = []

    def teardown(svc) -> None:
        if not filled:
            for it in items:
                svc.predict(it.graph)
            filled.append(True)
        svc.close()
    return teardown


def stop_spawn_helpers() -> None:
    """Join leftover children and the resource tracker spawning started.

    ``FleetService.close`` and the answer check join their own processes;
    the tracker would otherwise outlive the run until this process exits.
    """
    for proc in multiprocessing.active_children():
        proc.join(5.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _one_per_worker(items, ring) -> list:
    """The first item homed on each worker of ``ring``."""
    first: dict[int, object] = {}
    for it in items:
        first.setdefault(ring.candidates(it.key)[0], it)
    return [first[w] for w in sorted(first)]


# --------------------------------------------------------------------- #
# shared reduction
# --------------------------------------------------------------------- #
def _outcome(done, t0, t1, peak_mb, setup_s, available: int,
             per: int = 1) -> Outcome:
    out = Outcome(attempted=per * len(done))
    out.failed = per * sum(r.error is not None for r in done)
    ok = [1e3 * (r.end - r.start) for r in done if r.error is None]
    out.metrics = {"throughput_rps": (per * len(done) / (t1 - t0), "1/s"),
                   "setup_s": (setup_s, "s")}
    # reported, not gated: on serve-mixed-h32 the median sits where few
    # requests lie, between the zoo models' latency clusters, so it moves
    # by a fifth to a quarter between runs (see README.md)
    out.notes["latency_p50_ms"] = percentile(ok, 50)
    # reported, not gated: how many requests a run's few multi-hundred-ms
    # trace compiles delay decides it, so it spreads by a quarter between
    # runs (see README.md)
    out.notes["latency_p95_ms"] = percentile(ok, 95)
    # reported, not gated: cached trace arenas swing it by a third between
    # runs (see README.md)
    out.notes["peak_rss_mb"] = peak_mb
    out.notes["window_s"] = t1 - t0
    out.notes["samples"] = len(ok)
    if len(done) >= available:
        # the window would end early and differ from a slower commit's
        raise InputsExhausted(
            f"all {available} inputs were sent before the deadline; "
            "make more inputs per measured second")
    errors = [r.error for r in done if r.error is not None]
    if errors:
        out.notes["first_error"] = errors[0]
    return out


class InputsExhausted(RuntimeError):
    """The program served every input the run made before its deadline."""


def _check(out: Outcome, done, checker, device, fallback) -> None:
    """Count each wrong or fallback answer as one failed operation.

    ``fallback`` recorded the answers the service's fallback chain gave;
    the others are checked against a direct prediction (see answers.py).
    """
    answered = [r for r in done if r.error is None]
    checked = [r for r in answered
               if not fallback.answered(r.item.graph, r.value)]
    graphs = {r.item.key: r.item.graph for r in checked}
    t0 = time.perf_counter()
    refs = checker.reference_values(graphs, device.name)
    out.notes["check_s"] = time.perf_counter() - t0
    wrong = sum(is_wrong(float(r.value), refs[r.item.key]) for r in checked)
    out.failed += wrong + len(answered) - len(checked)
    out.notes["wrong_answers"] = wrong
    out.notes["distinct_graphs"] = len(graphs)


WORKLOADS = {
    "serve-mixed-h32": serve_mixed_h32,
    "plan-mixed-h32": plan_mixed_h32,
    "fleet-zipf-h32": fleet_zipf_h32,
}

