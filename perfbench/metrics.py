"""Turn serve passes into the end-to-end and per-layer metric tables.

Every metric is ``{"value": float, "unit": str}``.  Per-layer metrics
of a layer a workload never calls (the scheduler on ``solo``, the
router off ``chat``) read 0.
"""

from __future__ import annotations

import statistics

import hostinfo
import numpy as np
from probes import Spans, fastest, summarize
from workloads import M_BUCKETS, SITES, bucket_of


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: list[float], outcomes, peak_mb: float) -> tuple[dict, dict]:
    """(metrics, sample counts and tail percentiles) of untraced passes.

    Every timing comes from the passes' merged timeline
    (:func:`probes.fastest`): tokens/s from its length, TTFT, ITL and
    latency from its stamps.
    """
    clock = fastest([out.clock for out in outcomes])
    tokens_per_s = outcomes[0].new_tokens / clock.span_s
    ttft = summarize(clock.ttft_ms())
    itl = summarize(clock.itl_ms())
    latency = summarize(clock.latency_ms())
    metrics = {
        "setup_s": _m(statistics.median(setup_s), "s"),
        "tokens_per_s": _m(tokens_per_s, "tok/s"),
        "ttft_p50_ms": _m(ttft["p50"], "ms"),
        "ttft_tail_ms": _m(ttft["tail"], "ms"),
        "itl_p50_ms": _m(itl["p50"], "ms"),
        "itl_tail_ms": _m(itl["tail"], "ms"),
        "latency_p50_ms": _m(latency["p50"], "ms"),
        "latency_tail_ms": _m(latency["tail"], "ms"),
        "peak_rss_mb": _m(peak_mb, "MiB"),
    }
    shape = {
        name: {"n": s["n"], "tail_percentile": s["tail_q"]}
        for name, s in (("ttft", ttft), ("itl", itl), ("latency", latency))
    }
    return metrics, shape


def per_layer(untraced, traced, spans: Spans, resident_bytes_per_weight: float,
              fleet=None) -> dict:
    """Per-layer metrics of a traced pass (names as in BENCHMARK.json).

    ``fleet`` is the :func:`workloads.serve_fleet` pass of the same
    trace, where one was made; it gives the ``shard.*`` metrics.
    """
    metrics: dict[str, dict] = {}
    gemms = spans.named("engine.gemm")
    covered = spans.child_time()

    def dur_ms(span) -> float:
        return (span[2] - span[1]) * 1e3

    def total_ms(name: str) -> float:
        return sum(dur_ms(s) for s in spans.named(name))

    def self_ms(names: tuple[str, ...]) -> float:
        return sum(
            dur_ms(s) - covered[i] * 1e3
            for i, s in enumerate(spans.spans) if s[0] in names
        )

    # engine: GEMM time by phase, row-count bucket and site.
    for phase in ("prefill", "decode"):
        metrics[f"engine.gemm_ms.{phase}"] = _m(
            sum(dur_ms(s) for s in gemms if s[4]["phase"] == phase), "ms")
    calls = {name: 0 for name, _, _ in M_BUCKETS}
    bucket_ms = {name: 0.0 for name, _, _ in M_BUCKETS}
    for s in gemms:
        bucket = bucket_of(s[4]["m"])
        calls[bucket] += 1
        bucket_ms[bucket] += dur_ms(s)
    for name, _, _ in M_BUCKETS:
        per_call = bucket_ms[name] / calls[name] if calls[name] else 0.0
        metrics[f"engine.ms_per_call.{name}"] = _m(per_call, "ms")
        metrics[f"engine.calls.{name}"] = _m(calls[name], "count")
    for site in SITES:
        metrics[f"engine.site_ms.{site}"] = _m(
            sum(dur_ms(s) for s in gemms if s[4]["site"] == site), "ms")
    metrics["engine.macs"] = _m(traced.telemetry.total_macs, "count")
    metrics["engine.weight_bytes"] = _m(traced.telemetry.total_weight_bytes, "B")
    metrics["engine.resident_bytes_per_weight"] = _m(resident_bytes_per_weight, "B")

    # llm: decoder work outside the GEMMs, per phase.
    metrics["llm.non_gemm_ms.prefill"] = _m(
        self_ms(("batch.prefill_step", "session.prefill")), "ms")
    metrics["llm.non_gemm_ms.decode"] = _m(
        self_ms(("batch.decode_step", "session.decode_step")), "ms")

    # serve.batch
    for name in ("prefill", "decode"):
        calls_ = spans.named(f"batch.{name}_step")
        metrics[f"batch.{name}_ms"] = _m(sum(dur_ms(s) for s in calls_), "ms")
        metrics[f"batch.{name}_rows"] = _m(sum(s[4]["rows"] for s in calls_), "count")
    metrics["batch.seed_prefix_ms"] = _m(total_ms("batch.seed_prefix"), "ms")
    metrics["batch.record_prefix_ms"] = _m(total_ms("batch.record_prefix"), "ms")

    # serve.prefix
    stats = traced.stats
    cache = traced.prefix
    metrics["prefix.hit_rate"] = _m(stats.prefix_hit_rate if stats else 0.0, "ratio")
    metrics["prefix.cached_tokens"] = _m(stats.cached_prefix_tokens if stats else 0, "count")
    metrics["prefix.bytes"] = _m(cache.bytes if cache is not None else 0, "B")
    metrics["prefix.evictions"] = _m(cache.stats().evictions if cache is not None else 0, "count")

    # serve.scheduler
    steps = [dur_ms(s) for s in spans.named("scheduler.step")]
    metrics["scheduler.step_ms_p50"] = _m(float(np.median(steps)) if steps else 0.0, "ms")
    metrics["scheduler.self_ms"] = _m(self_ms(("scheduler.step",)), "ms")
    if stats is not None:
        occupancy = stats.mean_occupancy
        queue_wait = stats.mean_queue_wait_steps
        stalls = stats.prefill_stall_steps
    else:
        occupancy = queue_wait = stalls = 0
    metrics["scheduler.occupancy"] = _m(occupancy, "ratio")
    metrics["scheduler.queue_wait_steps_mean"] = _m(queue_wait, "steps")
    metrics["scheduler.prefill_stall_steps"] = _m(stalls, "steps")

    # model.session: sampling.
    metrics["model.select_token_ms"] = _m(total_ms("model.select_token"), "ms")
    metrics["model.select_token_calls"] = _m(len(spans.named("model.select_token")), "count")

    # serve.shard
    if fleet is not None:
        report = fleet.report
        busy = [w.elapsed_s for w in report.workers]
        shard = (report.elapsed_s - max(busy), max(busy), min(busy), report.mean_occupancy)
    else:
        shard = (0.0, 0.0, 0.0, 0.0)
    for (name, unit), value in zip(
        (("transport_s", "s"), ("worker_busy_s.max", "s"), ("worker_busy_s.min", "s"),
         ("occupancy", "ratio")), shard, strict=True,
    ):
        metrics[f"shard.{name}"] = _m(value, unit)

    # host diagnostics, from the untraced pass of the same process.
    metrics["host.cpu_per_wall"] = _m(untraced.cpu_s / untraced.wall_s, "ratio")
    metrics["host.blas_threads"] = _m(hostinfo.blas_threads(), "count")
    metrics["trace.tokens_per_s.untraced"] = _m(untraced.new_tokens / untraced.wall_s, "tok/s")
    metrics["trace.tokens_per_s.traced"] = _m(traced.new_tokens / traced.wall_s, "tok/s")
    return metrics
