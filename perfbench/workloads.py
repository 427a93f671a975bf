"""The three serving workloads: traces, set-up and one timed serve pass.

Every workload serves the same quantized decoder (the ``bench_serve``
model) on the library's default engine backend, so a change of default
shows up here as a measured change.  Traces come from
:func:`repro.serve.synthesize` and are replayed on the scheduler's step
clock, so every commit issues the same batches and GEMM shapes for a
given seed.  A run serves one trace in several identical passes (see
:func:`pass_count`).  :func:`serve_fleet` sends a ``chat`` trace through
the data-parallel router once, for the ``shard.*`` per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import hostinfo
import numpy as np
from probes import (
    Patches,
    Spans,
    TokenClock,
    attach_scheduler_clock,
    attach_session_clock,
)

import repro.serve.scheduler as scheduler_module
from repro.llm.transformer import TransformerConfig, init_weights
from repro.model import InferenceSession, parse_policy, quantize_model
from repro.model.checkpoint import save_model
from repro.serve import (
    BatchedSession,
    RadixPrefixCache,
    Router,
    Scheduler,
    TraceSpec,
    replay,
    synthesize,
)

CONFIG = TransformerConfig(
    vocab=512, d_model=256, n_heads=8, n_layers=2, d_ffn=1024, max_seq=96
)
POLICY = "*=int4@g[32,4]"
MAX_BATCH = 8
PREFILL_CHUNK = 64
PREFIX_CACHE_BYTES = 64 << 20
SYSTEM_PROMPT = 64
#: In ``sysprompt`` every UNSHARED_EVERY-th request (1 in 7, so 85.7%
#: share the system prompt) carries an unshared prompt.  A fixed stride
#: instead of a per-request coin keeps the expensive unshared prefills
#: at the same count on every seed.
UNSHARED_EVERY = 7

#: Trace shape per workload.  ``requests`` is the size of one pass, and
#: ``pass_s`` the share of ``--seconds`` one pass is given: a little more
#: than a pass takes on a 2-core x86-64 host, which leaves room for the
#: set-ups and the output check (see :func:`pass_count`).
#: ``synthesize`` draws the prompt tokens and sampling seeds; lengths are
#: fixed and arrivals are placed on a fixed step schedule (see
#: :func:`pace`), so the seed changes token values only, never the work.
SPECS = {
    "solo": dict(requests=3, pass_s=2.7, spec=TraceSpec(
        prompt_len=(20, 20), max_new=(26, 26), mean_interarrival=0.0)),
    "chat": dict(requests=MAX_BATCH, pass_s=5.0, spec=TraceSpec(
        prompt_len=(8, 8), max_new=(32, 32), mean_interarrival=0.0,
        top_k=8, temperature=0.8)),
    "sysprompt": dict(requests=UNSHARED_EVERY, pass_s=4.3, spec=TraceSpec(
        prompt_len=(SYSTEM_PROMPT + 16, SYSTEM_PROMPT + 16), max_new=(6, 6),
        mean_interarrival=0.0, shared_prefix_len=SYSTEM_PROMPT,
        shared_fraction=1.0)),
}
#: Fewest passes a run serves, however short ``--seconds`` is.
MIN_PASSES = 2
#: Steps between arrivals.  ``chat``: a request stays 32 steps, so all 8
#: of a pass are resident from the 8th arrival on, and none waits for a
#: slot.  ``sysprompt``: one arrival per step, so every step of the
#: ramp prefills a prompt suffix (16 rows, or the unshared 80-token
#: prompt in chunks of PREFILL_CHUNK) beside the decoding requests.
#: Bursts (4 requests every 8 steps) left decode-only steps between
#: them, and the ITL median then flipped between host speed states.
GAP = {"chat": 2.0, "sysprompt": 1.0}


def pace(workload: str, trace):
    """Place arrivals on a fixed step schedule.

    Geometric gaps drawn per seed made queueing, and so TTFT, differ up
    to 3x between seeds on identical code (see README.md); a fixed
    schedule leaves the seed to choose token values only.
    """
    gap = GAP.get(workload, 0.0)
    return [dataclasses.replace(r, arrival=int(i * gap)) for i, r in enumerate(trace)]


M_BUCKETS = (("m1", 1, 1), ("m2-8", 2, 8), ("m9-32", 9, 32), ("m33-128", 33, 128))
SITES = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


def pass_count(workload: str, seconds: int) -> int:
    """Identical passes over one trace in a run of ``seconds``.

    The host speeds up and slows down over seconds to minutes, and a
    co-tenant only ever lengthens a piece of work.  Several passes
    spread over the run give each piece of work several chances to run
    undisturbed (see :func:`probes.fastest`).
    """
    return max(MIN_PASSES, round(seconds / SPECS[workload]["pass_s"]))


def make_trace(workload: str, seed: int, count: int | None = None):
    """One pass of the workload's requests for ``--seed``."""
    count = count or SPECS[workload]["requests"]
    spec = dataclasses.replace(SPECS[workload]["spec"], requests=count, seed=seed)
    trace = synthesize(spec, CONFIG.vocab, CONFIG.max_seq)
    if workload == "sysprompt":
        unshared = synthesize(
            dataclasses.replace(spec, shared_fraction=0.0), CONFIG.vocab, CONFIG.max_seq
        )
        trace = [
            dataclasses.replace(req, prompt=other.prompt)
            if i % UNSHARED_EVERY == UNSHARED_EVERY // 2 else req
            for i, (req, other) in enumerate(zip(trace, unshared, strict=True))
        ]
    return pace(workload, trace)


def build_model():
    weights = init_weights(CONFIG, seed=0)
    return quantize_model(weights, parse_policy(POLICY), config=CONFIG, compute_reports=False)


def weight_count(qmodel) -> int:
    """Quantized weights (codes) across every planned matrix."""
    return sum(int(m.codes.size) for m in qmodel.matrices().values())


def _batched_session(workload: str, qmodel) -> BatchedSession:
    cache = RadixPrefixCache(PREFIX_CACHE_BYTES) if workload == "sysprompt" else None
    return BatchedSession(qmodel, max_slots=MAX_BATCH, prefix_cache=cache)


def _scheduler(workload: str, session: BatchedSession) -> Scheduler:
    chunk = PREFILL_CHUNK if workload == "sysprompt" else None
    return Scheduler(session, max_batch=MAX_BATCH, prefill_chunk=chunk)


class Setup:
    """What one workload keeps between set-up and the timed passes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.qmodel = build_model()
        self.weights = weight_count(self.qmodel)
        # Warm-up (the repeats hit the prefix cache where there is one),
        # so lazy engine state exists before anything is timed.
        self.warm = warm_requests(workload, seed)
        if workload == "solo":
            self.session = InferenceSession(self.qmodel)
            throwaway = InferenceSession(self.qmodel)
            for req in self.warm:
                throwaway.generate(req.prompt, req.max_new)
        else:
            self.session = _batched_session(workload, self.qmodel)
            replay(_scheduler(workload, _batched_session(workload, self.qmodel)), self.warm)
        self.backend = self.session.backend


def warm_requests(workload: str, seed: int) -> list:
    """Three copies of one short request of the workload's own kind."""
    first = make_trace(workload, seed + 1_000_003, 1)[0]
    return [dataclasses.replace(first, prompt=first.prompt[:8], max_new=2)] * 3


class Outcome:
    """What one serve pass produced and measured."""

    def __init__(self) -> None:
        self.clock = TokenClock()
        self.streams: list[np.ndarray] = []  #: generated tokens, trace order
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.stats = None  #: SchedulerStats for scheduler workloads
        self.report = None  #: FleetReport of a :func:`serve_fleet` pass
        self.telemetry = None
        self.prefix = None  #: RadixPrefixCache of this pass

    @property
    def new_tokens(self) -> int:
        return sum(len(s) for s in self.streams)


def serve(setup: Setup, trace, spans: Spans | None) -> Outcome:
    """One timed pass over ``trace``; spans are recorded when given."""
    out = Outcome()
    patches = Patches()
    try:
        if setup.workload == "solo":
            run = _serve_solo(setup, trace, out, patches, spans)
        else:
            run = _serve_scheduled(setup, trace, out, patches, spans)
        _timed(out, run)
    finally:
        patches.restore()
    return out


def _timed(out: Outcome, run) -> None:
    cpu0 = hostinfo.cpu_s()
    out.clock.mark("start")
    run()
    out.clock.mark("end")
    out.wall_s = out.clock.span_s
    out.cpu_s = hostinfo.cpu_s() - cpu0


def _instrument_engine(patches: Patches, spans: Spans, decoder) -> None:
    for key, plan in decoder.plans.items():
        site = key.split(".", 1)[1]
        spans.instrument(
            patches, plan, "execute", "engine.gemm",
            lambda a, backend=None, phase=None, site=site: {
                "site": site, "m": int(a.shape[0]), "phase": phase},
        )


def _serve_solo(setup, trace, out, patches, spans):
    session = setup.session
    session.telemetry.reset()
    current = [0]
    attach_session_clock(patches, out.clock, session, lambda: current[0])
    if spans is not None:
        _instrument_engine(patches, spans, session.decoder)
        spans.instrument(patches, session, "prefill", "session.prefill",
                         lambda tokens: {"rows": int(len(tokens))})
        spans.instrument(patches, session, "decode_step", "session.decode_step",
                         lambda token: {"rows": 1})
        spans.instrument(patches, session, "_select", "model.select_token")
    out.telemetry = session.telemetry

    def run():
        for rid, req in enumerate(trace):
            current[0] = rid
            out.clock.mark_due(rid)
            result = session.generate(
                req.prompt, req.max_new, top_k=req.top_k,
                temperature=req.temperature, seed=req.seed,
            )
            out.clock.mark("done", rid)
            out.streams.append(result.new_tokens)

    return run


def _serve_scheduled(setup, trace, out, patches, spans):
    session = setup.session
    session.telemetry.reset()
    if session.prefix_cache is not None:
        session.prefix_cache = RadixPrefixCache(PREFIX_CACHE_BYTES)
    out.prefix = session.prefix_cache
    scheduler = _scheduler(setup.workload, session)
    attach_scheduler_clock(patches, out.clock, scheduler, session)
    if spans is not None:
        _instrument_engine(patches, spans, session.decoder)
        spans.instrument(patches, scheduler, "step", "scheduler.step")
        spans.instrument(patches, session, "admit", "batch.admit")
        spans.instrument(patches, session, "seed_prefix", "batch.seed_prefix")
        spans.instrument(patches, session, "prefill_step", "batch.prefill_step",
                         lambda slots, chunks: {"rows": int(sum(len(c) for c in chunks))})
        spans.instrument(patches, session, "record_prefix", "batch.record_prefix")
        spans.instrument(patches, session, "decode_step", "batch.decode_step",
                         lambda slots, tokens: {"rows": len(slots)})
        spans.instrument(patches, session, "retire", "batch.retire")
        spans.instrument(patches, scheduler_module, "select_token", "model.select_token")
    out.telemetry = session.telemetry

    def run():
        report = replay(scheduler, trace, strict=False)
        out.stats = scheduler.stats()
        # Request ids count accepted submissions in trace order; a
        # rejected request keeps an empty stream and fails the check.
        rejected = {index for index, _ in report.rejected}
        accepted = [i for i in range(len(trace)) if i not in rejected]
        by_id = {r.request_id: r.new_tokens for r in report.results}
        out.streams = [np.zeros(0, dtype=np.int64)] * len(trace)
        for rid, index in enumerate(accepted):
            out.streams[index] = by_id.get(rid, out.streams[index])

    return run


def serve_fleet(setup: Setup, trace, workdir: str, spans: Spans) -> Outcome:
    """Serve ``trace`` once through ``Router(workers=nproc)``.

    The router loads a checkpoint of the set-up's model in each worker,
    serves the warm-up requests, then the timed ``trace`` in one
    ``serve`` call (spanned as ``router.serve``), and is shut down
    before this returns.  Workers ignore arrival steps, so every
    request is due at the call.
    """
    checkpoint = os.path.join(workdir, f"ckpt-{os.getpid()}")
    shutil.rmtree(checkpoint, ignore_errors=True)
    save_model(checkpoint, setup.qmodel)
    try:
        router = Router(checkpoint, workers=hostinfo.nproc(), max_slots=MAX_BATCH)
    finally:
        shutil.rmtree(checkpoint, ignore_errors=True)
    out = Outcome()
    patches = Patches()
    try:
        router.serve(setup.warm)
        spans.instrument(patches, router, "serve", "router.serve",
                         lambda requests: {"requests": len(requests)})
        out.clock.mark("start")
        report = router.serve(trace)
        out.clock.mark("end")
    finally:
        patches.restore()
        router.close()
    out.wall_s = out.clock.span_s
    out.report = report
    results = {r.request_id: r for r in report.results}
    out.streams = [
        results[i].new_tokens if i in results else np.zeros(0, dtype=np.int64)
        for i in range(len(trace))
    ]
    return out


def bucket_of(m: int) -> str:
    for name, lo, hi in M_BUCKETS:
        if lo <= m <= hi:
            return name
    raise ValueError(f"GEMM with m={m} rows falls outside every bucket")
