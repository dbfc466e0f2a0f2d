"""Per-layer metrics and the end-to-end metric each one should move.

A layer is a module of ``repro``.  :data:`LAYER_METRICS` records, before
any measurement, which end-to-end metric on which workload a change in
each layer metric should move; ``--trace 1`` reports every one of them on
every workload, as 0 where its layer does not run in the measured process
(fleet workers are separate processes and stay dark).
"""

from __future__ import annotations

from .probes import percentile

#: name -> (unit, better, the end-to-end metric and workload it moves)
LAYER_METRICS = {
    "perf.cache.graph_key.busy_ms": (
        "ms", "lower", "latency_p50_ms on fleet-zipf-h32: the hit path "
        "pays the key in the parent"),
    "perf.cache.shared.hit_ratio": (
        "ratio", "higher", "throughput_rps on fleet-zipf-h32, where the "
        "first request for a key on its worker reads the warm shared tier "
        "instead of forwarding"),
    "features.encode.busy_ms": (
        "ms", "lower", "throughput_rps on serve-mixed-h32; near 0 on "
        "fleet-zipf-h32, whose encodes run in the workers"),
    "perf.batching.spd.busy_ms": (
        "ms", "lower", "throughput_rps on serve-mixed-h32"),
    "perf.batching.spd.memo_hit_ratio": (
        "ratio", "higher", "throughput_rps on serve-mixed-h32"),
    "perf.batching.collate.busy_ms": (
        "ms", "lower", "throughput_rps on serve-mixed-h32 (pair batches) "
        "and plan-mixed-h32"),
    "perf.batching.pad_waste_mean": (
        "ratio", "lower", "throughput_rps and process.peak_rss_mb on "
        "serve-mixed-h32 and plan-mixed-h32"),
    "serve.batch_size_mean": (
        "count", "higher", "latency_p95_ms on serve-mixed-h32"),
    "serve.queue_wait_ms_p50": (
        "ms", "lower", "latency_p95_ms on serve-mixed-h32"),
    "serve.queue_wait_ms_p95": (
        "ms", "lower", "latency_p95_ms on serve-mixed-h32"),
    "serve.result_cache.hit_ratio": (
        "ratio", "higher", "control on serve-mixed-h32: about 0"),
    "serve.encoding_cache.hit_ratio": (
        "ratio", "higher", "control on serve-mixed-h32: about 0"),
    "serve.shed": (
        "count", "lower", "control on serve-mixed-h32: 0"),
    "core.predict.busy_ms": (
        "ms", "lower", "latency_p50_ms on serve-mixed-h32 (singleton "
        "eager forward)"),
    "core.forward_batch.busy_ms": (
        "ms", "lower", "throughput_rps on serve-mixed-h32 and "
        "plan-mixed-h32, where every new batch signature is traced"),
    "tensor.trace.run.busy_ms": (
        "ms", "lower", "throughput_rps and process.peak_rss_mb on "
        "serve-mixed-h32 and plan-mixed-h32; no move on fleet-zipf-h32"),
    "tensor.trace.miss_ratio": (
        "ratio", "lower", "throughput_rps and process.peak_rss_mb on "
        "serve-mixed-h32 and plan-mixed-h32"),
    "tensor.trace.arena_mb": (
        "MiB", "lower", "process.peak_rss_mb on serve-mixed-h32 and "
        "plan-mixed-h32"),
    "tensor.trace.fallbacks": (
        "count", "lower", "throughput_rps on serve-mixed-h32 and "
        "plan-mixed-h32"),
    "fleet.dispatch.busy_ms": (
        "ms", "lower", "latency_p95_ms on fleet-zipf-h32"),
    "fleet.ticket_wait_ms_p50": (
        "ms", "lower", "latency_p95_ms on fleet-zipf-h32"),
    "fleet.worker_share_max": (
        "ratio", "lower", "latency_p95_ms on fleet-zipf-h32"),
    "fleet.retries": (
        "count", "lower", "latency_p95_ms on fleet-zipf-h32"),
    "fleet.fallbacks": (
        "count", "lower", "latency_p95_ms on fleet-zipf-h32"),
    "gpu.colocation.pack.busy_ms": (
        "ms", "lower", "control on plan-mixed-h32: packing a few "
        "candidates, predicted no move anywhere"),
    "process.peak_rss_mb": (
        "MiB", "lower", "peak RSS of the serving process tree, parent and "
        "fleet workers; no end-to-end bound, see README.md"),
    # the traced run's own end-to-end figures: against the untraced run
    # they give the tracing overhead
    "traced.throughput_rps": ("1/s", "higher", "tracing overhead"),
    "traced.latency_p50_ms": ("ms", "lower", "tracing overhead"),
    "traced.latency_p95_ms": ("ms", "lower", "tracing overhead"),
    "traced.spans": ("count", "lower", "tracing overhead"),
}


def _counter(deltas: dict, name: str) -> float:
    """Sum of ``name``'s deltas over all its label sets."""
    return sum(v for (n, _), v in deltas.items() if n == name)


def _hist_mean(deltas: dict, name: str) -> float:
    count = sum(v[0] for (n, _), v in deltas.items() if n == name)
    total = sum(v[1] for (n, _), v in deltas.items() if n == name)
    return total / count if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(probes, done, t0: float, t1: float) -> dict:
    """The per-layer metrics read from spans and counters.

    ``done`` are the window's requests.  ``fleet.worker_share_max`` is 0
    here and set by the fleet workload; ``process.peak_rss_mb`` and the
    ``traced.*`` figures (the traced run's end-to-end metrics) are added by
    the caller.
    """
    d = probes.counter_deltas()

    def busy(name: str) -> float:
        return probes.busy_ms(name, t0, t1)

    waits = [1e3 * w for w in probes.waits_in(t0, t1)]
    dispatched = probes.span_ends("fleet.dispatch")
    ticket_waits = [1e3 * (r.end - dispatched[r.rid]) for r in done
                    if r.rid in dispatched]
    shared_hits = _counter(d, "fleet_shared_cache_hits_total")
    shared_misses = _counter(d, "fleet_shared_cache_misses_total")
    memo_hits = _counter(d, "perf_spd_memo_hits_total")
    memo_misses = _counter(d, "perf_spd_memo_misses_total")
    res_hits = _counter(d, "serve_result_cache_hits_total")
    res_misses = _counter(d, "serve_result_cache_misses_total")
    enc_hits = _counter(d, "serve_encoding_cache_hits_total")
    enc_misses = _counter(d, "serve_encoding_cache_misses_total")
    tr_hits = _counter(d, "trace_cache_hits_total")
    tr_misses = _counter(d, "trace_cache_misses_total")
    arena = sum(v for (n, _), v in d.items() if n == "trace_arena_bytes")
    values = {
        "perf.cache.graph_key.busy_ms": busy("perf.cache.graph_key"),
        "perf.cache.shared.hit_ratio": _ratio(
            shared_hits, shared_hits + shared_misses),
        "features.encode.busy_ms": busy("features.encode"),
        "perf.batching.spd.busy_ms": busy("perf.batching.spd"),
        "perf.batching.spd.memo_hit_ratio": _ratio(
            memo_hits, memo_hits + memo_misses),
        "perf.batching.collate.busy_ms": busy("perf.batching.collate"),
        "perf.batching.pad_waste_mean": _hist_mean(d, "perf_batch_pad_waste"),
        "serve.batch_size_mean": _hist_mean(d, "serve_batch_size"),
        "serve.queue_wait_ms_p50": percentile(waits, 50),
        "serve.queue_wait_ms_p95": percentile(waits, 95),
        "serve.result_cache.hit_ratio": _ratio(res_hits,
                                               res_hits + res_misses),
        "serve.encoding_cache.hit_ratio": _ratio(enc_hits,
                                                 enc_hits + enc_misses),
        "serve.shed": _counter(d, "serve_shed_total")
        + _counter(d, "serve_deadline_shed_total"),
        "core.predict.busy_ms": busy("core.predict"),
        "core.forward_batch.busy_ms": busy("core.forward_batch"),
        "tensor.trace.run.busy_ms": busy("tensor.trace.run"),
        "tensor.trace.miss_ratio": _ratio(tr_misses, tr_hits + tr_misses),
        "tensor.trace.arena_mb": arena / 2**20,
        "tensor.trace.fallbacks": _counter(d, "trace_fallback_total"),
        "fleet.dispatch.busy_ms": busy("fleet.dispatch"),
        "fleet.ticket_wait_ms_p50": percentile(ticket_waits, 50),
        "fleet.worker_share_max": 0.0,
        "fleet.retries": _counter(d, "fleet_retries_total"),
        "fleet.fallbacks": _counter(d, "fleet_fallbacks_total"),
        "gpu.colocation.pack.busy_ms": busy("gpu.colocation.plan"),
        "traced.spans": float(sum(t0 <= sp.t0 <= t1 for sp in probes.spans)),
    }
    return {name: (float(v), LAYER_METRICS[name][0])
            for name, v in values.items()}
