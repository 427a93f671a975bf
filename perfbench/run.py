"""Serving benchmark: solo / chat / sysprompt on the bench_serve model.

Run from the repository root::

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0

``--trace 0`` serves one trace in several identical passes and prints
the end-to-end metrics, each timing at its fastest over the passes;
``--trace 1`` serves it once untraced and once traced (on ``chat``
also once through the data-parallel router), prints the per-layer
metrics and writes a Chrome trace under ``perfbench/out/``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every worker it forks; set
# before numpy is first imported (see README.md, "Thread pinning").
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostinfo  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solo", "chat", "sysprompt")
#: The workload whose traced run also serves its trace once through the
#: data-parallel router, for the ``shard.*`` metrics.
FLEET_PROBE = "chat"
#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 5
#: Requests per workload checked token-for-token against solo generate.
CHECKED = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_outputs(setup, trace, outcomes) -> tuple[int, list[str]]:
    """Failed requests across ``outcomes``, and why.

    Every pass must return each request (a rejection or a missing
    result fails it) with one clock stamp per generated token; a fixed
    subset must match solo ``InferenceSession.generate`` on the same
    backend token for token.
    """
    from repro.model import InferenceSession

    failed: set[tuple[int, int]] = set()
    notes: list[str] = []
    for p, out in enumerate(outcomes):
        for i, (req, stream) in enumerate(zip(trace, out.streams, strict=True)):
            if len(stream) != req.max_new:
                failed.add((p, i))
                notes.append(f"pass {p} request {i}: {len(stream)} of {req.max_new} tokens")
            elif out.report is None and len(out.clock.tokens.get(i, ())) != len(stream):
                failed.add((p, i))
                notes.append(f"pass {p} request {i}: token clock disagrees with the stream")
    oracle = InferenceSession(setup.qmodel)
    subset = sorted({0, len(trace) // 2, len(trace) - 1})[:CHECKED]
    for i in subset:
        req = trace[i]
        expected = oracle.generate(
            req.prompt, req.max_new, top_k=req.top_k,
            temperature=req.temperature, seed=req.seed,
        ).new_tokens
        for p, out in enumerate(outcomes):
            if not (len(out.streams[i]) == len(expected) and (out.streams[i] == expected).all()):
                failed.add((p, i))
                notes.append(f"pass {p} request {i}: tokens differ from solo generate")
    return len(failed), notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import metrics
    from probes import Spans
    from workloads import Setup, make_trace, pass_count, serve, serve_fleet

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **hostinfo.describe()}

    rss_before = hostinfo.rss_mb()
    setup_s: list[float] = []
    setup = None
    resident = 0.0
    for repeat in range(SETUP_REPEATS):
        # Free the previous set-up first, so two models never coexist.
        setup = None
        gc.collect()
        start = time.perf_counter()
        setup = Setup(args.workload, args.seed)
        setup_s.append(time.perf_counter() - start)
        if repeat == 0:
            # RSS growth over model build + warm-up, per quantized weight.
            resident = (hostinfo.rss_mb() - rss_before) * 2**20 / setup.weights
    header["backend"] = setup.backend
    trace = make_trace(args.workload, args.seed)
    untraced_passes = 1 if args.trace else pass_count(args.workload, args.seconds)
    header["requests"] = len(trace)
    header["passes"] = untraced_passes
    planned = untraced_passes + args.trace * (2 if args.workload == FLEET_PROBE else 1)

    outcomes = []
    try:
        # Peak memory counts the timed passes only, not the set-ups.
        hostinfo.reset_peak_rss()
        outcomes += [serve(setup, trace, None) for _ in range(untraced_passes)]
        peak = hostinfo.peak_rss_mb()
        if args.trace:
            spans = Spans()
            origin = time.perf_counter()
            traced = serve(setup, trace, spans)
            outcomes.append(traced)
            fleet = None
            if args.workload == FLEET_PROBE:
                fleet = serve_fleet(setup, trace, str(out_dir), spans)
                outcomes.append(fleet)
        failed, notes = check_outputs(setup, trace, outcomes)
        if args.trace:
            table = metrics.per_layer(outcomes[0], traced, spans, resident, fleet)
        else:
            table, header["samples"] = metrics.end_to_end(setup_s, outcomes, peak)
    except Exception:
        # A serving error fails every request of the run.
        traceback.print_exc()
        attempted = len(trace) * planned
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    attempted = len(trace) * len(outcomes)
    if args.trace:
        stem = out_dir / f"{args.workload}-seed{args.seed}"
        spans.write_chrome_trace(f"{stem}.trace.json", origin, f"perfbench {args.workload}")
        with open(f"{stem}.layers.json", "w") as fh:
            json.dump({"self_time": spans.self_times(), "metrics": table}, fh, indent=1)
        header["chrome_trace"] = f"{stem}.trace.json"
        header["self_time"] = spans.self_times()
    header["timed_s"] = [round(o.wall_s, 3) for o in outcomes]
    header["sent"] = attempted
    header["succeeded"] = attempted - failed
    header["failed"] = failed
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps(header, sort_keys=True))
    for name, metric in table.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": table}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
