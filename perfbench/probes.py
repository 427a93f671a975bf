"""Outside-in instrumentation: wrap public methods on built instances.

Nothing here edits the program.  :class:`Patches` replaces a method on
one object the benchmark built (an instance attribute shadows the class
method), so only that object is measured, and puts it back after the
pass.  Two recorders sit on top:

* :class:`TokenClock` -- per-request due / token / done timestamps,
  installed on every run, from which TTFT, inter-token latency and
  request latency are computed; :func:`fastest` merges the clocks of
  repeated passes into one;
* :class:`Spans` -- in-memory spans with parents, installed only on
  traced runs, exported as Chrome Trace Event JSON and reduced to a
  per-layer self-time table.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

#: Highest tail percentile reported, however large the sample.
TAIL_CAP = 99.0


class Patches:
    """Instance and module attributes replaced for one serve pass.

    An instance attribute shadows the class method of the same name,
    so a wrapped method measures that one object only; :meth:`restore`
    puts every attribute back (newest first, so stacked wrappers
    unwind in order).
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def replace(self, obj, name: str, make) -> None:
        """Set ``obj.name = make(current attribute)``."""
        inner = getattr(obj, name)
        self._saved.append((obj, name, name in vars(obj), vars(obj).get(name)))
        setattr(obj, name, make(inner))

    def wrap(self, obj, name: str, before=None, after=None) -> None:
        """Call-through wrapper with hooks.

        ``before(*args, **kwargs)`` runs first; ``after(result, *args,
        **kwargs)`` runs on the way out.
        """

        def make(inner):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                result = inner(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        self.replace(obj, name, make)

    def restore(self) -> None:
        while self._saved:
            obj, name, owned, value = self._saved.pop()
            if owned:
                setattr(obj, name, value)
            else:
                delattr(obj, name)


def tail_percentile(n: int) -> float:
    """Highest percentile (capped at :data:`TAIL_CAP`) with >= 10 samples beyond.

    That is the 11th-largest of ``n`` samples.  Below 21 samples it
    would not lie above the median, and the tail is reported at p50.
    """
    if n < 21:
        return 50.0
    return min(TAIL_CAP, 100.0 * (n - 11) / (n - 1))


def summarize(values) -> dict:
    """``{"p50", "tail", "tail_q", "n"}`` of a timing sample."""
    values = list(values)
    if not values:
        raise ValueError("no samples to summarize")
    q = tail_percentile(len(values))
    return {
        "p50": float(np.percentile(values, 50.0)),
        "tail": float(np.percentile(values, q)),
        "tail_q": q,
        "n": len(values),
    }


class TokenClock:
    """Due time, token times and completion time per request id.

    Every stamp is also appended to an event log in program order, so
    passes over one trace can be lined up event by event (see
    :func:`fastest`).  ``start`` and ``end`` bracket the timed pass.
    """

    def __init__(self) -> None:
        self.due: dict[int, float] = {}
        self.tokens: dict[int, list[float]] = defaultdict(list)
        self.done: dict[int, float] = {}
        self.log: list[tuple[str, int]] = []
        self.times: list[float] = []
        self._pending: list[int] = []

    def record(self, kind: str, rid: int, when: float) -> None:
        """Log one event: ``start``/``end`` (rid -1), ``due``, ``token`` or ``done``."""
        self.log.append((kind, rid))
        self.times.append(when)
        if kind == "due":
            self.due[rid] = when
        elif kind == "token":
            self.tokens[rid].append(when)
        elif kind == "done":
            self.done[rid] = when

    def mark(self, kind: str, rid: int = -1) -> None:
        self.record(kind, rid, time.perf_counter())

    def mark_due(self, rid: int) -> None:
        self.mark("due", rid)

    def token_now(self, rid: int) -> None:
        self.mark("token", rid)

    def token_at_step_end(self, rid: int) -> None:
        """Queue a token that is produced by the step in progress."""
        self._pending.append(rid)

    def end_step(self) -> None:
        """Stamp every token produced during the step that just ended."""
        if self._pending:
            now = time.perf_counter()
            for rid in self._pending:
                self.record("token", rid, now)
            self._pending.clear()

    @property
    def span_s(self) -> float:
        """Seconds from ``start`` to ``end``."""
        return self.times[self.log.index(("end", -1))] - self.times[self.log.index(("start", -1))]

    def ttft_ms(self) -> list[float]:
        return [
            (self.tokens[rid][0] - due) * 1e3
            for rid, due in sorted(self.due.items())
            if self.tokens[rid]
        ]

    def itl_ms(self) -> list[float]:
        gaps = []
        for rid in sorted(self.tokens):
            times = self.tokens[rid]
            gaps.extend((b - a) * 1e3 for a, b in zip(times, times[1:], strict=False))
        return gaps

    def latency_ms(self) -> list[float]:
        return [
            ((self.done.get(rid) or self.tokens[rid][-1]) - due) * 1e3
            for rid, due in sorted(self.due.items())
            if self.tokens[rid]
        ]


def fastest(clocks: list[TokenClock]) -> TokenClock:
    """The timeline of identical passes with every gap at its shortest.

    Passes over one trace do the same work in the same order, so their
    event logs match entry for entry.  The gap between two consecutive
    events is the same piece of work in every pass; a co-tenant on the
    host only ever lengthens it.  The returned clock places each event
    the shortest of its passes' gaps after the previous one.
    """
    log = clocks[0].log
    for clock in clocks[1:]:
        if clock.log != log:
            raise ValueError("passes over one trace logged different event sequences")
    times = np.array([clock.times for clock in clocks])
    gaps = np.diff(times, axis=1).min(axis=0)
    best = TokenClock()
    for (kind, rid), when in zip(log, np.concatenate(([0.0], np.cumsum(gaps))), strict=True):
        best.record(kind, rid, float(when))
    return best


def attach_scheduler_clock(
    patches: Patches, clock: TokenClock, scheduler, session
) -> None:
    """Time tokens of a :class:`repro.serve.Scheduler` from outside.

    A request is due when it is submitted (``replay`` submits it the
    moment the step clock reaches its arrival).  The scheduler admits
    FIFO, so the n-th ``admit`` belongs to the n-th accepted request.
    Within a step, every slot passed to ``decode_step`` and every slot
    retired has just sampled one token; those tokens are stamped when
    the step returns.
    """
    slot_owner: dict[int, int] = {}
    admitted = [0]

    def after_submit(rid, request):
        clock.mark_due(rid)

    def after_admit(result, prompt, seed=True):
        slot_owner[result[0]] = admitted[0]
        admitted[0] += 1

    def before_decode(slots, tokens):
        for slot in slots:
            clock.token_at_step_end(slot_owner[slot])

    def before_retire(slot):
        clock.token_at_step_end(slot_owner.pop(slot))

    def after_step(result):
        clock.end_step()

    patches.wrap(scheduler, "submit", after=after_submit)
    patches.wrap(session, "admit", after=after_admit)
    patches.wrap(session, "decode_step", before=before_decode)
    patches.wrap(session, "retire", before=before_retire)
    patches.wrap(scheduler, "step", after=after_step)


def attach_session_clock(
    patches: Patches, clock: TokenClock, session, rid_of
) -> None:
    """Time tokens of a :class:`repro.model.InferenceSession`.

    ``generate`` samples its first token from the ``prefill`` logits
    and each later token from the previous ``decode_step``; the token
    is stamped when that call returns.  ``rid_of()`` names the request
    the client is currently running.
    """
    patches.wrap(session, "prefill", after=lambda *_: clock.token_now(rid_of()))
    patches.wrap(session, "decode_step", after=lambda *_: clock.token_now(rid_of()))


class Spans:
    """In-memory spans with parent links (one thread).

    A span is ``[name, start_s, end_s, parent_index, args]``; the
    currently open spans form a stack, so a span opened inside another
    becomes its child.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def instrument(self, patches: Patches, obj, name: str, span: str, tags=None) -> None:
        """Record a span around every call of ``obj.name``.

        ``tags(*args, **kwargs)`` returns the span's ``args`` dict.
        """
        spans = self.spans
        stack = self._stack

        def make(inner):
            def wrapper(*args, **kwargs):
                index = len(spans)
                parent = stack[-1] if stack else -1
                record = [span, time.perf_counter(), 0.0, parent,
                          tags(*args, **kwargs) if tags is not None else None]
                spans.append(record)
                stack.append(index)
                try:
                    return inner(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()

            return wrapper

        patches.replace(obj, name, make)

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def child_time(self) -> list[float]:
        """Seconds each span's direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        return covered

    def self_times(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "total_ms", "self_ms"}}``."""
        covered = self.child_time()
        table: dict[str, dict[str, float]] = {}
        for span, kids in zip(self.spans, covered, strict=True):
            row = table.setdefault(span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = span[2] - span[1]
            row["calls"] += 1
            row["total_ms"] += dur * 1e3
            row["self_ms"] += (dur - kids) * 1e3
        return table

    def write_chrome_trace(self, path, origin: float, process: str) -> None:
        """Write Chrome Trace Event JSON (complete ``"X"`` events).

        Perfetto (ui.perfetto.dev, "Open trace file") and
        ``chrome://tracing`` load it offline; nesting is by time
        containment on the single thread.
        """
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process}},
        ]
        for index, (name, start, end, parent, args) in enumerate(self.spans):
            event_args = {"id": index, "parent": parent}
            if args:
                event_args.update(args)
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": event_args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
