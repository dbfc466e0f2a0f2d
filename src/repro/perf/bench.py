"""Micro-benchmark harness behind ``repro bench`` (the perf gate).

Four suites, each emitting machine-readable numbers into
``BENCH_perf.json`` so the repo finally has a perf trajectory:

* **encode** — node-encoding throughput of the vectorized
  :func:`~repro.features.encode_graph` vs the scalar per-node reference;
* **train** — training samples/sec of ``Trainer.fit(batched=True)`` vs
  the per-graph path at the paper's ``batch_size=8``, plus the
  batched-vs-per-graph forward/gradient equivalence gap;
* **generate** — dataset-generation wall time at ``workers`` 1/2/4 (cold)
  and with a warm content-addressed cache, with bit-identity asserted
  across every configuration;
* **cache** — cold-vs-warm speedup of cache-backed generation.

Gates (``repro bench --check``): batched training >= 3x samples/sec,
warm ``workers=4`` generation >= 2x over cold serial with a bit-identical
dataset, and batched predictions/gradients within 1e-6 of per-graph.
By default the serving suites (:mod:`repro.serve.bench`), the fleet
suites (:mod:`repro.fleet.bench`), and the trace-and-replay suites
(:mod:`repro.perf.trace_bench`) run too and their gates merge in —
see docs/serving.md, docs/fleet.md, and docs/compile.md.
Raw cold-scaling numbers are recorded alongside ``cpu_count`` — on a
single-core CI box process parallelism cannot beat serial, which is why
the headline generation gate compares the full feature (parallel +
cache) against the baseline path (see docs/performance.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

import numpy as np

from ..core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
from ..data import Dataset, generate_dataset
from ..features import encode_graph
from ..features.encode import encode_edge, encode_node
from ..gpu import SIMULATOR_VERSION, get_device
from ..models import ModelConfig, build_model
from ..tensor import Tensor
from .batching import clear_spd_memo, collate, spd_memo_disabled

__all__ = ["run_benchmarks", "evaluate_gates", "BENCH_VERSION"]

BENCH_VERSION = 1

#: similar-size graphs batch densely; the padding waste of mixing
#: a 7-node RNN with a 347-node ViT is itself measured by the
#: ``perf_batch_pad_waste`` histogram, not hidden in this benchmark
_TRAIN_MODELS = ("lenet", "alexnet", "rnn", "lstm")
_ENCODE_MODELS = ("lenet", "alexnet", "resnet-18", "rnn", "lstm", "vit-t")
#: profile-heavy models: the cache replaces simulation + encoding + SPD,
#: so the generation gate uses graphs where those dominate graph building
_GEN_MODELS = ("resnet-50", "vit-s")


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs of ``fn`` (noise floor).

    Single-core CI boxes jitter by tens of percent run-to-run; the min is
    the standard estimator of the true cost of a deterministic function.
    """
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _fingerprint(ds: Dataset) -> str:
    """Content hash of every array and label in a dataset (bit-exact)."""
    h = hashlib.sha256()
    for s in ds:
        h.update(s.features.node_features.tobytes())
        h.update(s.features.edge_features.tobytes())
        h.update(np.ascontiguousarray(s.features.edge_index).tobytes())
        h.update(repr((s.occupancy, s.nvml_utilization, s.wall_time_s,
                       s.model_name, s.device_name)).encode())
    return h.hexdigest()


def bench_encode(scale: float = 1.0) -> dict:
    """Vectorized vs scalar-reference encoding throughput."""
    device = get_device("A100")
    graphs = [build_model(n, ModelConfig()) for n in _ENCODE_MODELS]
    reps = max(3, int(round(10 * scale)))
    nodes = sum(g.num_nodes for g in graphs)

    t0 = time.perf_counter()
    for _ in range(reps):
        for g in graphs:
            encode_graph(g, device)
    vec_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        for g in graphs:
            order = sorted(g.nodes)
            np.stack([encode_node(g.nodes[nid], device) for nid in order])
            if g.edges:
                np.stack([encode_edge(e, device) for e in g.edges])
    ref_s = time.perf_counter() - t0

    return {
        "models": list(_ENCODE_MODELS), "repeats": reps,
        "nodes_per_graph_set": nodes,
        "vectorized_nodes_per_s": nodes * reps / vec_s,
        "scalar_nodes_per_s": nodes * reps / ref_s,
        "speedup": ref_s / vec_s,
    }


def bench_train(scale: float = 1.0) -> dict:
    """Batched vs per-graph training throughput + equivalence gap."""
    device = get_device("A100")
    ds = generate_dataset(_TRAIN_MODELS, [device],
                          configs_per_model=max(4, int(round(6 * scale))),
                          seed=11)
    epochs = max(2, int(round(3 * scale)))
    feats = [s.features for s in ds]
    ys = np.array([s.occupancy for s in ds])

    # A deliberately small model: the batched path's win is eliminating
    # per-graph Python/tape overhead, which a micro-benchmark should
    # isolate rather than drown in matmul time.
    def fit(batched: bool) -> None:
        model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=5)
        trainer = Trainer(model, TrainConfig(
            epochs=epochs, batch_size=8, lr=1e-3, seed=5, preflight=False))
        trainer.fit(ds, batched=batched)

    per_graph_s = _best_of(lambda: fit(batched=False), 3)
    batched_s = _best_of(lambda: fit(batched=True), 3)

    # Equivalence gap on an untrained model: forward over the whole set,
    # gradients over one batch_size=8 minibatch.
    model = DNNOccu(DNNOccuConfig(hidden=64, num_heads=4), seed=5)
    per_preds = np.array([float(model.forward(f).data) for f in feats])
    bat_preds = model.predict_batch(feats)
    max_fwd_diff = float(np.abs(per_preds - bat_preds).max())

    k = min(8, len(feats))
    model.zero_grad()
    loss = None
    for f, y in zip(feats[:k], ys[:k]):
        err = (model.forward(f) - y) ** 2
        loss = err if loss is None else loss + err
    (loss * (1.0 / k)).backward()
    ref_grads = [p.grad.copy() for p in model.parameters()]
    model.zero_grad()
    preds = model.forward_batch(collate(feats[:k]))
    (((preds - Tensor(ys[:k])) ** 2).sum() * (1.0 / k)).backward()
    max_grad_diff = float(max(
        np.abs(p.grad - g).max()
        for p, g in zip(model.parameters(), ref_grads)))

    n = len(ds) * epochs
    return {
        "models": list(_TRAIN_MODELS), "samples": len(ds),
        "epochs": epochs, "batch_size": 8,
        "per_graph_samples_per_s": n / per_graph_s,
        "batched_samples_per_s": n / batched_s,
        "speedup": per_graph_s / batched_s,
        "max_fwd_diff": max_fwd_diff,
        "max_grad_diff": max_grad_diff,
    }


def bench_generate(scale: float = 1.0) -> dict:
    """Generation scaling (workers 1/2/4) + cache speedup + bit-identity."""
    device = get_device("A100")
    cpm = max(6, int(round(8 * scale)))
    kw = dict(configs_per_model=cpm, seed=23)
    models = list(_GEN_MODELS)

    ref = generate_dataset(models, [device], **kw)
    ref_fp = _fingerprint(ref)

    # The baseline side of the gate is the *no-feature* path: the
    # structure-keyed SPD memo is one of the caches under test (it speeds
    # up even a single cold run — config variants share topology), so
    # baseline measurements run with it bypassed and cleared.
    def _cold_generate(**kwargs):
        clear_spd_memo()
        with spd_memo_disabled():
            return generate_dataset(models, [device], **kwargs)

    serial_s = _best_of(lambda: _cold_generate(**kw), 2)

    workers_s: dict[str, float] = {}
    identical = True
    for w in (1, 2, 4):
        t0 = time.perf_counter()
        ds = _cold_generate(workers=w, **kw)
        workers_s[str(w)] = time.perf_counter() - t0
        identical = identical and _fingerprint(ds) == ref_fp

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as td:
        t0 = time.perf_counter()
        cold = _cold_generate(cache_dir=td, **kw)
        cold_cache_s = time.perf_counter() - t0
        warm = generate_dataset(models, [device], workers=4,
                                cache_dir=td, **kw)
        warm_s = _best_of(
            lambda: generate_dataset(models, [device], workers=4,
                                     cache_dir=td, **kw), 3)
        identical = identical and _fingerprint(cold) == ref_fp \
            and _fingerprint(warm) == ref_fp

    return {
        "models": models, "configs_per_model": cpm,
        "serial_cold_s": serial_s, "workers_cold_s": workers_s,
        "cold_cache_s": cold_cache_s, "warm_workers4_s": warm_s,
        "cache_hit_speedup": cold_cache_s / warm_s,
        # The headline gate: the full feature (workers=4 over a warm
        # content-addressed cache) vs the baseline serial cold path.
        "feature_vs_serial_speedup": serial_s / warm_s,
        "bit_identical": identical,
    }


def run_benchmarks(scale: float = 1.0, serve: bool = True,
                   obs: bool = True, fleet: bool = True,
                   trace: bool = True) -> dict:
    """Run every suite; returns the ``BENCH_perf.json`` document.

    ``serve=True`` also runs the serving suites (``repro.serve.bench``)
    and merges their gates, so ``repro bench --check`` covers the online
    path too; ``repro serve-bench`` runs them standalone.  ``obs=True``
    does the same for the observability suites (``repro.obs.bench`` /
    ``repro obs-bench``), including the tracing-overhead guard,
    ``fleet=True`` for the multi-worker fleet suites
    (``repro.fleet.bench`` / ``repro fleet-bench``): scaling, worker
    chaos, and the shared disk tier, and ``trace=True`` for the
    trace-and-replay executor suites (``repro.perf.trace_bench`` /
    ``repro trace-bench``): compiled-tape speedup and zoo equivalence.
    """
    results = {
        "meta": {
            "bench_version": BENCH_VERSION,
            "simulator_version": SIMULATOR_VERSION,
            "cpu_count": os.cpu_count(),
            "scale": scale,
        },
        "encode": bench_encode(scale),
        "train": bench_train(scale),
        "generate": bench_generate(scale),
    }
    if serve:
        # Imported lazily: perf must not depend on serve at import time
        # (serve.bench imports this module for the timing helpers).
        from ..serve.bench import run_serve_benchmarks
        serve_doc = run_serve_benchmarks(scale)
        results["serve"] = {k: v for k, v in serve_doc.items()
                            if k not in ("meta", "gates")}
    if obs:
        from ..obs.bench import run_obs_benchmarks
        obs_doc = run_obs_benchmarks(scale)
        results["obs"] = {k: v for k, v in obs_doc.items()
                          if k not in ("meta", "gates")}
    if fleet:
        from ..fleet.bench import run_fleet_benchmarks
        fleet_doc = run_fleet_benchmarks(scale)
        results["fleet"] = {k: v for k, v in fleet_doc.items()
                            if k not in ("meta", "gates")}
    if trace:
        # Lazy: trace_bench pulls core + tensor.trace in.
        from .trace_bench import run_trace_benchmarks
        trace_doc = run_trace_benchmarks(scale)
        results["trace"] = {k: v for k, v in trace_doc.items()
                            if k not in ("meta", "gates")}
    results["gates"] = evaluate_gates(results)
    return results


def evaluate_gates(results: dict) -> dict:
    """The acceptance gates over a benchmark document."""
    train = results["train"]
    gen = results["generate"]
    gates = {
        "batched_training_3x": train["speedup"] >= 3.0,
        "generation_feature_2x": gen["feature_vs_serial_speedup"] >= 2.0,
        "generation_bit_identical": bool(gen["bit_identical"]),
        "equivalence_1e6": (train["max_fwd_diff"] <= 1e-6
                            and train["max_grad_diff"] <= 1e-6),
    }
    if "serve" in results:
        from ..serve.bench import evaluate_serve_gates
        gates.update(evaluate_serve_gates(results["serve"]))
    if "obs" in results:
        from ..obs.bench import evaluate_obs_gates
        gates.update(evaluate_obs_gates(results["obs"]))
    if "fleet" in results:
        from ..fleet.bench import evaluate_fleet_gates
        gates.update(evaluate_fleet_gates(results["fleet"]))
    if "trace" in results:
        from .trace_bench import evaluate_trace_gates
        gates.update(evaluate_trace_gates(results["trace"]))
    return gates


def format_summary(results: dict) -> str:
    """Human-readable digest of a benchmark document."""
    e, t, g = results["encode"], results["train"], results["generate"]
    lines = [
        f"encode  : {e['vectorized_nodes_per_s']:,.0f} nodes/s "
        f"(scalar {e['scalar_nodes_per_s']:,.0f}; {e['speedup']:.1f}x)",
        f"train   : batched {t['batched_samples_per_s']:.1f} samples/s vs "
        f"per-graph {t['per_graph_samples_per_s']:.1f} "
        f"({t['speedup']:.1f}x); max fwd diff {t['max_fwd_diff']:.2e}, "
        f"grad {t['max_grad_diff']:.2e}",
        f"generate: serial {g['serial_cold_s']:.2f}s | cold workers "
        + " ".join(f"w{w}={s:.2f}s" for w, s in g["workers_cold_s"].items())
        + f" | warm w4+cache {g['warm_workers4_s']:.2f}s "
        f"({g['feature_vs_serial_speedup']:.1f}x vs serial, cache hit "
        f"{g['cache_hit_speedup']:.1f}x) | bit-identical: "
        f"{g['bit_identical']}",
    ]
    if "serve" in results:
        s = results["serve"]
        lines.append(
            f"serve   : {s['throughput']['speedup']:.1f}x throughput at "
            f"batch {s['throughput']['graphs']}, warm-cache "
            f"{s['warm_cache']['speedup']:.0f}x, p99 "
            f"{s['latency']['latency_s']['p99'] * 1e3:.2f}ms, "
            f"{s['overload']['shed']} shed under overload")
    if "fleet" in results:
        f = results["fleet"]
        lines.append(
            f"fleet   : modeled "
            f"{f['scaling']['modeled_speedup_at_4']:.2f}x at 4 workers, "
            f"chaos {f['chaos']['resolved']}/{f['chaos']['requests']} "
            f"resolved ({f['chaos']['deaths']} deaths), shared tier "
            f"{f['shared']['second_shared_hits']}/{f['shared']['graphs']}")
    if "obs" in results:
        o = results["obs"]["tracing_overhead"]
        lines.append(
            f"obs     : tracing-off overhead "
            f"{100 * o['off_overhead']:+.2f}% (budget "
            f"{100 * o['overhead_budget']:.0f}%), traced "
            f"{100 * o['on_overhead']:+.2f}%; slo healthy="
            f"{results['obs']['slo']['healthy_ok']}")
    if "trace" in results:
        tr = results["trace"]["speedup"]
        lines.append(
            f"trace   : replay {tr['speedup']:.2f}x over eager on "
            f"{tr['num_graphs']} graphs ({tr['tape_ops']} ops -> "
            f"{tr['replay_steps']} steps), zoo diff "
            f"{results['trace']['equivalence']['max_diff']:.1e}, serial "
            f"bit-identical: {results['trace']['serial']['bit_identical']}")
    lines.append("gates   : " + "  ".join(
        f"{k}={'PASS' if v else 'FAIL'}"
        for k, v in results["gates"].items()))
    return "\n".join(lines)


def save_results(results: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
