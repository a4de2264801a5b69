"""Per-layer metrics of a traced run, and the end-to-end metric each
one should move.

Every hooked layer (``tracing.py``) yields three metrics: ``<layer>_ms``
(median busy time per call: the span minus its child spans),
``<layer>_total_ms`` and ``<layer>_calls``.  ``server.job_ms`` is the
exception: it is the whole job, children included, because
``server.overhead_ms`` (client latency minus the job) is read against
it.  A layer that never ran in a workload reports 0.  Work done inside
the shard pool's forked worker processes is covered by ``pool.run``
only: the workers' own spans are never written out.
"""

from __future__ import annotations

from harness import median
from tracing import ATTRS, CHILD, END, LAYER, RID, START

#: span layers, each with the end-to-end metric(s) it should move
SPAN_LAYERS = {
    "server.job": "point_p50_ms @ read-serve",
    "server.queue": "read_tail_ms @ read-serve, write-serve",
    "store.snapshot": "point_p50_ms @ read-serve",
    "store.plan_get": ("op_p50_ms (§4 queries) @ read-serve; "
                       "read_tail_ms @ write-serve"),
    "store.update": "op_p50_ms (write) @ write-serve",
    "store.fork": "op_p50_ms (write) @ write-serve",
    "store.persist": "op_p50_ms (write) @ write-serve",
    "store.retire": "op_p50_ms (write) @ write-serve",
    "store.cold_load": "setup_s @ all workloads",
    "update.compile": "op_p50_ms (write) @ write-serve",
    "update.pending": "op_p50_ms (write) @ write-serve",
    "update.apply": "op_p50_ms (write) @ write-serve",
    "goddag.build": "op_p50_ms (write) @ write-serve; setup_s @ all",
    "goddag.invariants": "op_p50_ms (write) @ write-serve",
    "goddag.stats": ("point_p50_ms, read_tail_ms @ write-serve; "
                     "expected ~0 @ read-serve"),
    "plan.compile": "op_p50_ms (§4 queries) @ read-serve",
    "plan.exec": ("point/page/op_p50_ms @ read-serve; "
                  "point_p50_ms @ corpus"),
    "runtime.serialize": "page_p50_ms @ read-serve",
    "markup.ingest_parse": "op_p50_ms (ingest) @ corpus",
    "markup.ingest_save": "op_p50_ms (ingest) @ corpus",
    "pool.run": "page_p50_ms (workers=2 join) @ corpus",
    "pool.gather": "page_p50_ms (workers=2 join) @ corpus",
}

#: derived metrics: name → (unit, better, should move)
DERIVED = {
    "server.overhead_ms": ("ms", "lower",
                           "point_p50_ms, read_rps @ read-serve"),
    "server.peak_inflight": ("count", "lower",
                             "read_tail_ms @ read-serve, write-serve"),
    "server.rejected": ("count", "lower",
                        "read_tail_ms @ read-serve, write-serve"),
    "store.plan_hit_ratio": ("ratio", "higher",
                             "op_p50_ms (§4 queries) @ read-serve; "
                             "read_tail_ms @ write-serve"),
    "store.persist_bytes_per_write": ("B", "lower",
                                      "op_p50_ms (write) @ write-serve"),
    "plan.exec.point_ms": ("ms", "lower",
                           "point_p50_ms @ read-serve, corpus"),
    "plan.exec.page_ms": ("ms", "lower", "page_p50_ms @ read-serve"),
    "plan.exec.paper_ms": ("ms", "lower",
                           "op_p50_ms (§4 queries) @ read-serve"),
    "plan.rows_out": ("count", "lower",
                      "point/page/op_p50_ms @ read-serve"),
    "plan.cost_fallbacks": ("count", "lower",
                            "op_p50_ms (§4 queries) @ read-serve"),
    "runtime.serialized_per_returned": ("ratio", "lower",
                                        "page_p50_ms @ read-serve"),
    "markup.bytes_per_word": ("B/word", "lower",
                              "op_p50_ms (ingest) @ corpus"),
    "pool.shards_executed_ratio": ("ratio", "lower",
                                   "page_p50_ms, read_rps @ corpus"),
    "trace.overhead_pct": ("%", "lower",
                           "none: traced vs untraced point_p50_ms"),
    "trace.unattributed_ms": ("ms", "lower",
                              "none: request time no span covers"),
}


def catalogue() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as ``(name, unit, better, moves)``."""
    out = []
    for layer, moves in SPAN_LAYERS.items():
        out.append((f"{layer}_ms", "ms", "lower", moves))
        out.append((f"{layer}_total_ms", "ms", "lower", moves))
        out.append((f"{layer}_calls", "count", "lower", moves))
    for name, (unit, better, moves) in DERIVED.items():
        out.append((name, unit, better, moves))
    return out


def _kind(rid: str | None) -> str | None:
    """The request class encoded in a request id (``client-i-kind``)."""
    if not rid:
        return None
    parts = rid.split("-", 2)
    return parts[2] if len(parts) == 3 else None


def compute(spans: list[list], samples, *, statz_before: dict,
            statz_after: dict, paper_kinds: tuple,
            extra: dict) -> tuple[dict, list[tuple]]:
    """``(metrics, table rows)`` from one traced run.

    ``samples`` are the measured client samples; ``extra`` carries
    ratios measured outside the spans (corpus payloads, shard bytes,
    tracing overhead).
    """
    by_layer: dict[str, list[list]] = {layer: [] for layer in SPAN_LAYERS}
    for record in spans:
        if record[LAYER] in by_layer:
            by_layer[record[LAYER]].append(record)

    def self_ms(record) -> float:
        return (record[END] - record[START] - record[CHILD]) / 1e6

    metrics: dict[str, float] = {}
    rows = []
    waits = [self_ms(r) for r in by_layer["server.queue"]]
    for layer, records in by_layer.items():
        if layer == "server.job":
            busy = [(r[END] - r[START]) / 1e6 for r in records]
        else:
            busy = [self_ms(r) for r in records]
        p50 = median(busy) if busy else 0.0
        metrics[f"{layer}_ms"] = p50
        metrics[f"{layer}_total_ms"] = sum(busy)
        metrics[f"{layer}_calls"] = len(records)
        wait = (f"{median(waits):.3f}" if layer == "server.job" and waits
                else "-")
        rows.append((layer, len(records), p50, sum(busy), wait,
                     SPAN_LAYERS[layer]))

    measured = {sample.rid: sample for sample in samples}
    jobs = {r[RID]: r for r in by_layer["server.job"] if r[RID]}
    overhead = [sample.ms - (jobs[rid][END] - jobs[rid][START]) / 1e6
                for rid, sample in measured.items() if rid in jobs]
    metrics["server.overhead_ms"] = median(overhead) if overhead else 0.0

    def delta(path: tuple) -> float:
        after, before = statz_after, statz_before
        for key in path:
            after, before = after.get(key, 0), before.get(key, 0)
        return after - before

    metrics["server.peak_inflight"] = statz_after.get("peak_inflight", 0)
    metrics["server.rejected"] = (delta(("rejected_queue",))
                                  + delta(("rejected_quota",)))
    hits = delta(("plan_cache", "hits"))
    lookups = hits + delta(("plan_cache", "misses"))
    metrics["store.plan_hit_ratio"] = hits / lookups if lookups else 0.0
    sizes = [r[ATTRS]["bytes"] for r in by_layer["store.persist"]
             if r[RID] and "bytes" in r[ATTRS]]
    metrics["store.persist_bytes_per_write"] = (
        sum(sizes) / len(sizes) if sizes else 0.0)

    per_request: dict[str, float] = {}
    rows_out = 0
    for record in by_layer["plan.exec"]:
        if record[RID] in measured:
            per_request[record[RID]] = (per_request.get(record[RID], 0.0)
                                        + self_ms(record))
            rows_out += record[ATTRS].get("items", 0)
    for metric, kinds in (("plan.exec.point_ms", ("point",)),
                          ("plan.exec.page_ms", ("page",)),
                          ("plan.exec.paper_ms", paper_kinds)):
        values = [ms for rid, ms in per_request.items()
                  if _kind(rid) in kinds]
        metrics[metric] = median(values) if values else 0.0
    metrics["plan.rows_out"] = rows_out
    metrics["plan.cost_fallbacks"] = delta(("cost_fallbacks",))

    serialized = sum(r[ATTRS].get("items", 0)
                     for r in by_layer["runtime.serialize"]
                     if r[RID] in measured)
    returned = sum(len(s.payload.get("items", ()))
                   for s in measured.values()
                   if isinstance(s.payload, dict))
    metrics["runtime.serialized_per_returned"] = (
        serialized / returned if returned else 0.0)

    remainders = [remainder for rows_of_kind
                  in remainders_by_kind(spans, samples).values()
                  for _latency, _covered, remainder in rows_of_kind]
    metrics["trace.unattributed_ms"] = (median(remainders)
                                        if remainders else 0.0)
    metrics.update(extra)
    return metrics, rows


def remainders_by_kind(spans: list[list], samples) -> dict[str, list]:
    """Per request class: ``(latency, covered by spans, remainder)``
    of every measured request, in milliseconds."""
    measured = {sample.rid: sample for sample in samples}
    covered: dict[str, float] = {}
    for record in spans:
        if record[RID] in measured:
            covered[record[RID]] = covered.get(record[RID], 0.0) + (
                record[END] - record[START] - record[CHILD]) / 1e6
    out: dict[str, list] = {}
    for rid, sample in measured.items():
        span_ms = covered.get(rid, 0.0)
        out.setdefault(sample.kind, []).append(
            (sample.ms, span_ms, sample.ms - span_ms))
    return out
