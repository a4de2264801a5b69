"""End-to-end benchmark of the store and query service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-serve --seed 1 \\
        --seconds 25 --trace 0

It builds a store from seeded inputs, starts the product's server
(``python -m repro.cli serve``) in its own process, drives it with two
closed-loop keep-alive clients, checks every answer, and prints a
readable report followed, as the last line, by one JSON object::

    {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

A run sets up and measures three servers in turn, each for a third of
``--seconds``; ``setup_s`` is the median of the three set-ups, and the
other timings pool the samples of all three.  Every timing is scaled
to one host speed, measured beside the run by ``probe.py`` (see
``harness.HostSpeed``).
``--workload all`` runs every workload in turn, each printing its own
report and result line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced and half with the layer
hooks of ``tracing.py`` installed in the server and in the ingest
process, and reports the per-layer metrics (``layers.py``) with the
measured tracing overhead.
Workloads, metrics and bounds are listed in ``BENCHMARK.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

from harness import (
    CLIENTS,
    REFERENCE_NS,
    ROOT,
    SRC,
    LockStep,
    Probe,
    Server,
    drive,
    median,
    tail,
    usable_cpus,
)

#: set-up repetitions whose median is ``setup_s``
SETUPS = 3
#: share of ``--seconds`` the corpus workload spends on HTTP load; the
#: rest repeats the streaming ingest.  An ingest takes about 0.6 s and
#: its times vary most, so the ingests get the larger share
CORPUS_LOAD_SHARE = 0.4

END_TO_END = {
    "setup_s": "s",
    "point_p50_ms": "ms",
    "page_p50_ms": "ms",
    "read_tail_ms": "ms",
    "read_rps": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

TAIL = ("all reads (in lock-step: steps), at the highest percentile "
        "with 10 samples beyond it (see the details)")
PHASED_RATE = "verified reads per second of the lock-step mix"

#: what each end-to-end metric is on each workload
MEANING = {
    "read-serve": {
        "point_p50_ms": "point_p50_ms: count(/descendant::w) over HTTP",
        "page_p50_ms": "page_p50_ms: 25 items of /descendant::w",
        "op_p50_ms": "paper_p50_ms: geometric mean of the p50s of "
                     "Q-I.1, Q-I.2, Q-II.1, Q-III.1",
        "read_tail_ms": TAIL,
        "read_rps": PHASED_RATE,
    },
    "write-serve": {
        "point_p50_ms": "point_p50_ms: count(/descendant::w), beside "
                        "writes",
        "page_p50_ms": "page_p50_ms: 25 items of /descendant::w, "
                       "beside writes",
        "op_p50_ms": "write_p50_ms: one-statement /update, "
                     "acknowledged",
        "read_tail_ms": TAIL,
        "read_rps": "verified reads per second of the reader",
    },
    "corpus": {
        "point_p50_ms": "cquery_p50_ms (aggregate): "
                        "count(collection(ms)/descendant::w)",
        "page_p50_ms": "cquery_p50_ms (scatter): 25 items of the "
                       "w/overlapping::dmg join, workers=2",
        "op_p50_ms": "ingest: one streaming ingest of the corpus into "
                     "8 shards, repeated in a process of its own (see "
                     "ingest_words_per_s)",
        "peak_rss_mb": "the larger of the server's and the ingest "
                       "process's peak RSS",
        "read_tail_ms": TAIL,
        "read_rps": PHASED_RATE,
    },
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all (one after another)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="replace one expected answer with a wrong "
                             "one (shows that the checker can fail)")
    return parser.parse_args(argv)


def environment(workload, args, max_inflight: int) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "durability": "full",
        "server_max_inflight": max_inflight,
        "clients": CLIENTS,
        "loop": "closed",
        **workload.environment(),
    }


def setup(workload, store: Path, oracle: bool, spans: Path | None = None):
    """Build the store, start the server, wait for health, warm up.

    Returns ``(server, seconds, (begin_ns, end_ns))``; the seconds
    exclude oracle work.
    """
    begin_ns = time.perf_counter_ns()
    begin = time.perf_counter()
    excluded = workload.build(store, oracle)
    server = Server(store, spans=spans)
    try:
        server.wait_healthy()
        workload.warm(server)
    except BaseException:
        server.stop()
        raise
    return (server, time.perf_counter() - begin - excluded,
            (begin_ns, time.perf_counter_ns()))


def measure(workload, server, seconds: float,
            spans: Path | None = None) -> dict:
    """One measured window: HTTP load, the workload's extra work (its
    layer spans go to ``spans``), then the requests that return the
    store to its starting content (checked but not timed)."""
    load = seconds * (CORPUS_LOAD_SHARE if workload.name == "corpus"
                      else 1.0)
    statz_before = server.get("/statz")[1]
    clients = workload.clients(server)
    lockstep = (LockStep(workload.schedule, len(clients))
                if workload.schedule else None)
    begin = time.perf_counter_ns()
    drive(clients, load, lockstep)
    load_ns = (begin, time.perf_counter_ns())
    statz_after = server.get("/statz")[1]
    extra, extra_rss = workload.extra(seconds - load, spans)
    rss = max(server.peak_rss_mb(), extra_rss)
    samples = [s for client in clients for s in client.samples]
    return {"samples": samples,
            "latencies": latencies(clients, lockstep is not None),
            "checked": samples + workload.finish(server, clients),
            "load_ns": load_ns, "extra": extra, "rss": rss,
            "statz_before": statz_before, "statz_after": statz_after}


def check(workload, windows: list[dict], server) -> int:
    """Judge every answer of ``windows``; the last server still runs."""
    return workload.check([s for w in windows for s in w["checked"]],
                          server)


def by_kind(samples) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for sample in samples:
        if sample.status == 200 and not sample.error:
            out.setdefault(sample.kind, []).append(sample.ms)
    return out


def latencies(clients, lockstep: bool) -> dict[str, list[tuple]]:
    """``(begin_ns, end_ns, ms)`` of the successful requests by class.
    In lock-step, one per step: the mean latency of the step's
    requests.  The GIL serves the requests of a step one after
    another, so of two short requests one is answered after about one
    service time and the other after about two; the median over
    requests would sit in the gap between the two and flip between
    them from run to run."""
    out: dict[str, list[tuple]] = {}
    if not lockstep:
        for sample in (s for c in clients for s in c.samples):
            if sample.status == 200 and not sample.error:
                out.setdefault(sample.kind, []).append(
                    (sample.begin_ns, sample.end_ns, sample.ms))
        return out
    for step in zip(*(client.samples for client in clients)):
        if all(s.status == 200 and not s.error for s in step):
            out.setdefault(step[0].kind, []).append(
                (min(s.begin_ns for s in step),
                 max(s.end_ns for s in step),
                 sum(s.ms for s in step) / len(step)))
    return out


def scaled(latencies: dict[str, list[tuple]], host) -> dict[str, list]:
    """The latencies (ms) by class, scaled to the reference speed."""
    return {kind: [ms * host.scale(begin, end)
                   for begin, end, ms in triples]
            for kind, triples in latencies.items()}


def pooled(windows: list[dict]) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for window in windows:
        for kind, triples in window["latencies"].items():
            out.setdefault(kind, []).extend(triples)
    return out


def end_to_end(workload, windows: list[dict], setups: list[tuple],
               host) -> tuple:
    """The metrics of a run, from ``setups`` (``(seconds, (begin_ns,
    end_ns))``) and every window (server) pooled; every timing is
    scaled to the reference speed (``harness.HostSpeed``), and the
    latencies are those of :func:`latencies`."""
    raw = pooled(windows)
    steps = scaled(raw, host)
    samples = [s for w in windows for s in w["samples"]]
    # in lock-step the tail too is over steps: of the two requests of a
    # step the second waits for the first, and with one step of the
    # slowest class a round, the tenth-slowest request fell now on the
    # waiting and now on the served one (spread 0.15 to 0.24 over
    # seeds, against 0.05 over steps)
    reads = [ms for kind in workload.reads for ms in steps.get(kind, ())]
    read_tail, percentile = tail(reads)
    verified = sum(1 for s in samples
                   if s.kind in workload.reads and s.status == 200
                   and not s.error and not s.wrong)
    load_s = sum((end - begin) / 1e9 for w in windows
                 for begin, end in [w["load_ns"]])
    # the time the reads took: in lock-step the steps' (a step's
    # triple spans its requests), else the reading client's requests
    read_s = sum((end - begin) / 1e9 * host.scale(begin, end)
                 for kind in workload.reads
                 for begin, end, _ms in raw.get(kind, ()))
    extra = [(end - begin) / 1e9 * host.scale(begin, end)
             for w in windows for begin, end in w["extra"]]
    metrics = {
        "setup_s": median([seconds * host.scale(*span)
                           for seconds, span in setups]),
        "point_p50_ms": median(steps["point"]),
        "page_p50_ms": median(steps["page"]),
        "read_tail_ms": read_tail,
        "read_rps": verified / read_s,
        "op_p50_ms": workload.op_p50(steps, extra),
        "peak_rss_mb": median([w["rss"] for w in windows]),
    }
    unscaled = {
        "setup_s": median([seconds for seconds, _span in setups]),
        "point_p50_ms": median([ms for _b, _e, ms in raw["point"]]),
        "page_p50_ms": median([ms for _b, _e, ms in raw["page"]]),
        "read_rps": verified / load_s,
        "op_p50_ms": workload.op_p50(
            {kind: [ms for _b, _e, ms in triples]
             for kind, triples in raw.items()},
            [(end - begin) / 1e9 for w in windows
             for begin, end in w["extra"]]),
    }
    notes = {
        "samples": {kind: len(v) for kind, v in sorted(by_kind(
            samples).items())},
        "read_tail_percentile": round(percentile, 2),
        "read_samples": len(reads),
        "setup_runs_s": [round(seconds * host.scale(*span), 4)
                         for seconds, span in setups],
        "probe_ms_p50": round(host.median_ms(), 4),
        "unscaled": {name: round(value, 4)
                     for name, value in unscaled.items()},
    }
    if workload.schedule:
        notes["lockstep_steps"] = {kind: len(v)
                                   for kind, v in sorted(steps.items())}
    if "write" in steps:
        value, pct = tail(steps["write"])
        notes["write_tail_ms"] = round(value, 3)
        notes["write_tail_percentile"] = round(pct, 1)
    if getattr(workload, "PAPER", None):
        notes["paper_p50_ms_by_query"] = {
            kind: round(median(steps[kind]), 3) for kind in workload.PAPER}
    if extra:
        words = workload.environment()["corpus_words"]
        notes["ingest_words_per_s"] = round(
            1e3 * words / metrics["op_p50_ms"], 1)
        notes["ingest_runs"] = len(extra)
    return metrics, notes


def report(metrics: dict, units: dict, meaning: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        line = f"  {name:<{width}}  {value:14.4f} {units[name]:<6}"
        if name in meaning:
            line += f"  {meaning[name]}"
        print(line)


def run_plain(workload, args, work: Path) -> dict:
    """``SETUPS`` fresh stores and servers, each set up (timed) and
    then measured for an equal share of ``--seconds``; the metrics pool
    the samples of all of them, so no single server process's luck
    (memory layout, collector timing) decides a run."""
    setups, windows = [], []
    wrong = 0
    probe = Probe()
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            store = work / f"store{index}"
            server, seconds, span = setup(workload, store, oracle=last)
            setups.append((seconds, span))
            try:
                windows.append(measure(workload, server,
                                       args.seconds / SETUPS))
                if last:
                    wrong = check(workload, windows, server)
            finally:
                server.stop()
            if not last:
                shutil.rmtree(store)
    finally:
        host = probe.stop()
    metrics, notes = end_to_end(workload, windows, setups, host)
    checked = [s for w in windows for s in w["checked"]]
    attempted = len(checked) + workload.ingest_runs
    print(f"# {workload.name}: end-to-end metrics (tracing off; timings "
          f"at the reference host speed, probe {REFERENCE_NS / 1e6:g} ms"
          + ("; in lock-step a step's latency is the mean of its "
             f"{CLIENTS} requests)" if workload.schedule else ")"))
    report(metrics, END_TO_END, MEANING[workload.name])
    print(f"  failed_ratio  {wrong / attempted:.4f}  (non-2xx + "
          "wrong answers + connection errors + differing ingests) / "
          "attempted")
    print("  details: " + json.dumps(notes, sort_keys=True))
    return {"metrics": metrics, "units": END_TO_END,
            "attempted": attempted, "failed": wrong,
            "max_inflight": server.workers}


def run_traced(workload, args, work: Path) -> dict:
    import layers
    import tracing

    half = args.seconds / 2
    spans_file = work / "server-spans.jsonl"
    ingest_spans = work / "ingest-spans.jsonl"
    probe = Probe()
    try:
        server, _s, _span = setup(workload, work / "plain", oracle=True)
        try:
            plain = measure(workload, server, half)
            plain["wrong"] = check(workload, [plain], server)
        finally:
            server.stop()
        server, _s, _span = setup(workload, work / "traced",
                                  oracle=True, spans=spans_file)
        try:
            traced = measure(workload, server, half, spans=ingest_spans)
            traced["wrong"] = check(workload, [traced], server)
        finally:
            server.stop()
    finally:
        host = probe.stop()
    # both halves at the reference speed, so that the overhead is not
    # the host's change of speed between them
    plain_kinds = scaled(plain["latencies"], host)
    traced_kinds = scaled(traced["latencies"], host)
    spans = tracing.load(spans_file)
    if ingest_spans.exists():
        spans += tracing.load(ingest_spans)
    plain_point = median(plain_kinds["point"])
    traced_point = median(traced_kinds["point"])
    extra = {
        "trace.overhead_pct": 100.0 * (traced_point / plain_point - 1),
        "markup.bytes_per_word": 0.0,
        "pool.shards_executed_ratio": 0.0,
    }
    if workload.name == "corpus":
        extra["markup.bytes_per_word"] = (
            sum(size for size, _sha in workload.reference)
            / workload.environment()["corpus_words"])
        executed = sum(p["shards_executed"] for p in workload.stats)
        total = sum(p["shards_total"] for p in workload.stats)
        extra["pool.shards_executed_ratio"] = executed / total
    metrics, rows = layers.compute(
        spans, traced["samples"], statz_before=traced["statz_before"],
        statz_after=traced["statz_after"],
        paper_kinds=getattr(workload, "PAPER", ()), extra=extra)
    units = {name: unit for name, unit, _b, _m in layers.catalogue()}
    moves = {name: moved for name, _u, _b, moved in layers.catalogue()}
    metrics = {name: metrics[name] for name in units}

    print(f"# {workload.name}: per-layer table (traced half, "
          f"{len(traced['samples'])} requests)")
    print(f"  {'layer':<20} {'calls':>7} {'self p50 ms':>12} "
          f"{'self total ms':>14} {'wait p50 ms':>12}  should move")
    for layer, calls, p50, total, wait, moved in rows:
        print(f"  {layer:<20} {calls:>7} {p50:>12.3f} {total:>14.1f} "
              f"{wait:>12}  {moved}")
    print(f"# {workload.name}: derived per-layer metrics")
    derived = {name: metrics[name] for name in layers.DERIVED}
    report(derived, units, moves)
    print(f"# {workload.name}: tracing overhead, traced vs untraced "
          "median latency per request class")
    for kind in sorted(traced_kinds):
        if kind in plain_kinds:
            before = median(plain_kinds[kind])
            after = median(traced_kinds[kind])
            print(f"  {kind:<10} untraced {before:9.3f} ms  traced "
                  f"{after:9.3f} ms  ({100 * (after / before - 1):+.1f}%)")
    print(f"# {workload.name}: unattributed remainder per request "
          "(latency minus every span's self time), ms")
    remainders = layers.remainders_by_kind(spans, traced["samples"])
    for kind, values in sorted(remainders.items()):
        rest = [r for _l, _c, r in values]
        print(f"  {kind:<10} n={len(rest):<5} p50 {median(rest):8.3f}  "
              f"max {max(rest):8.3f}  (latency p50 "
              f"{median([lat for lat, _c, _r in values]):.3f})")
    keep = ROOT / ".perfbench" / "traces" / f"{workload.name}-{args.seed}"
    keep.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(spans_file, keep / "server-spans.jsonl")
    with open(keep / "requests.jsonl", "w", encoding="utf-8") as handle:
        for kind, values in sorted(remainders.items()):
            for latency, covered, rest in values:
                handle.write(json.dumps({
                    "kind": kind, "latency_ms": latency,
                    "spans_ms": covered, "unattributed_ms": rest}) + "\n")
    print(f"  per-request rows and raw spans: {keep.relative_to(ROOT)}")
    samples = plain["checked"] + traced["checked"]
    return {"metrics": metrics, "units": units,
            "attempted": len(samples) + workload.ingest_runs,
            "failed": plain["wrong"] + traced["wrong"],
            "max_inflight": server.workers}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # a terminated run still stops its server (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC}) is missing; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONHASHSEED"] = "0"
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r} (want one of "
              f"{', '.join(WORKLOADS)} or all)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for name in names:
        run_one(WORKLOADS[name](args.seed, corrupt=args.corrupt_expected),
                args)
    return 0


def run_one(workload, args) -> None:
    """Run one workload; print its report, then its result object."""
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    workload.ingest_dir = work / "ingest"
    try:
        result = (run_traced if args.trace else run_plain)(
            workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("environment: " + json.dumps(
        environment(workload, args, result["max_inflight"]),
        sort_keys=True))
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
