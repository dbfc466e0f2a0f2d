"""Trace-and-replay benchmark suite behind ``repro trace-bench``.

Two suites, emitted as ``BENCH_trace.json``:

* **speedup** — traced replay vs the eager batched forward on the
  scheduler-loop workload: a drain-sized micro-batch of small graphs
  (the regime PerfSeer motivates — a predictor cheap enough to sit
  inside a scheduler loop).  Small graphs isolate the per-op Python
  dispatch, Tensor-graph bookkeeping, and allocation overhead the
  compiled tape eliminates; large graphs are matmul-bound and replay
  approaches 1x by construction.
* **equivalence** — :meth:`~repro.tensor.TracedExecutor.run` vs the
  eager batched forward across the **full** model zoo, on the same
  size-bucketed chunks of 8 that ``DNNOccu.predict_batch`` collates.

Gates (merged into ``repro bench --check``): speedup >= 2x and zoo
equivalence <= 1e-6.  The executor is a standalone module: no serving
path runs it (docs/compile.md).
"""

from __future__ import annotations

import numpy as np

from ..features import encode_graph
from ..gpu import SIMULATOR_VERSION, get_device
from ..models import ModelConfig, build_model, list_models
from ..tensor import TracedExecutor, no_grad
from ..tensor.trace import batch_signature
from .batching import bucket_by_size, collate, ensure_spd
from .bench import _best_of

__all__ = ["run_trace_benchmarks", "evaluate_trace_gates",
           "format_trace_summary"]

#: the scheduler-loop workload: one drain-sized micro-batch of small
#: graphs (fleet workers coalesce up to ``WorkerSpec.max_batch`` queued
#: requests into one forward; rnn/lstm are the zoo's smallest graphs)
_TRACE_MODELS = ("rnn", "lstm")
_TRACE_BATCH_SIZES = (1, 2, 4)

_DEFAULT_HIDDEN = 32


def _trace_model(seed: int = 7):
    from ..core import DNNOccu, DNNOccuConfig
    return DNNOccu(DNNOccuConfig(hidden=_DEFAULT_HIDDEN, num_heads=4),
                   seed=seed)


def _encoded(names, batch_sizes, device) -> list:
    feats = [encode_graph(build_model(n, ModelConfig(batch_size=bs)),
                          device)
             for n in names for bs in batch_sizes]
    for f in feats:
        ensure_spd(f)
    return feats


def bench_trace_speedup(scale: float = 1.0) -> dict:
    """Traced vs eager batched forward on the micro-batch workload."""
    device = get_device("A100")
    model = _trace_model()
    feats = _encoded(_TRACE_MODELS, _TRACE_BATCH_SIZES, device)
    batch = collate(feats)
    repeats = max(3, int(round(5 * scale)))
    inner = max(10, int(round(20 * scale)))

    executor = TracedExecutor(model)
    with no_grad():
        executor.run(batch)  # compile outside the timed region

        def eager() -> None:
            for _ in range(inner):
                model.forward_batch(batch)

        def traced() -> None:
            for _ in range(inner):
                executor.run(batch)

        # One untimed pass of each loop: the first iterations in a fresh
        # process pay allocator growth and BLAS warmup, not replay cost.
        eager()
        traced()
        eager_s = _best_of(eager, repeats) / inner
        traced_s = _best_of(traced, repeats) / inner
        diff = float(np.abs(
            executor.run(batch)
            - np.asarray(model.forward_batch(batch).data)).max())

    plan = executor.cache.get(batch_signature(batch))
    return {
        "models": list(_TRACE_MODELS),
        "batch_sizes": list(_TRACE_BATCH_SIZES),
        "num_graphs": batch.num_graphs, "hidden": _DEFAULT_HIDDEN,
        "repeats": repeats, "inner": inner,
        "eager_s": eager_s, "traced_s": traced_s,
        "speedup": eager_s / traced_s,
        "max_diff": diff,
        "tape_ops": len(plan.tape.ops),
        "replay_steps": len(plan.steps),
        "arena_bytes": plan.arena_bytes,
    }


def bench_trace_equivalence(scale: float = 1.0) -> dict:
    """Traced vs eager across the full zoo, production bucketing."""
    device = get_device("A100")
    model = _trace_model()
    names = list_models()
    feats = _encoded(names, (4,), device)
    eager = model.predict_batch(feats, batch_size=8)
    traced = np.zeros(len(feats))
    executor = TracedExecutor(model)
    with no_grad():
        for idx, chunk in bucket_by_size(feats, 8):
            traced[idx] = executor.run(collate(chunk))
    return {
        "models": names, "batch_size": 8,
        "max_diff": float(np.abs(eager - traced).max()),
    }


def run_trace_benchmarks(scale: float = 1.0) -> dict:
    """Run the trace suites; returns the ``BENCH_trace.json`` document."""
    from .bench import BENCH_VERSION
    import os
    results = {
        "meta": {
            "bench_version": BENCH_VERSION,
            "simulator_version": SIMULATOR_VERSION,
            "cpu_count": os.cpu_count(),
            "scale": scale,
        },
        "speedup": bench_trace_speedup(scale),
        "equivalence": bench_trace_equivalence(scale),
    }
    results["gates"] = evaluate_trace_gates(results)
    return results


def evaluate_trace_gates(results: dict) -> dict:
    """The trace acceptance gates over a benchmark document."""
    return {
        "trace_speedup_2x": results["speedup"]["speedup"] >= 2.0,
        "trace_equivalence_1e6":
            results["speedup"]["max_diff"] <= 1e-6
            and results["equivalence"]["max_diff"] <= 1e-6,
    }


def format_trace_summary(results: dict) -> str:
    """Human-readable digest of a trace benchmark document."""
    s, e = results["speedup"], results["equivalence"]
    lines = [
        f"speedup : traced {s['traced_s'] * 1e3:.2f}ms vs eager "
        f"{s['eager_s'] * 1e3:.2f}ms ({s['speedup']:.2f}x) on "
        f"{s['num_graphs']} graphs; tape {s['tape_ops']} ops -> "
        f"{s['replay_steps']} steps, arena {s['arena_bytes'] / 1024:.0f} "
        f"KiB",
        f"equiv   : zoo max diff {e['max_diff']:.2e} over "
        f"{len(e['models'])} models",
        "gates   : " + "  ".join(
            f"{k}={'PASS' if v else 'FAIL'}"
            for k, v in results["gates"].items()),
    ]
    return "\n".join(lines)
