"""In-memory span tracing around the calls into each layer.

The benchmark measures end-to-end numbers with tracing off.  A traced
run installs :func:`install_server` in the server process (through
``tracedserve.py``) and :func:`install_ingest` in the corpus
workload's ingest process (``ingest.py``): each hooked
public function is replaced, at run time, by a wrapper that records a
span.  No file of the program changes.

A span is ``[layer, request id, start ns, end ns, child ns, attrs]``.
Spans nest per thread; a span's *self* time is its duration minus the
time covered by its children.  The request id comes from the
``X-Request-Id`` header the load generator sends (the server ignores
it); the service job wrapper makes it current on the executor thread
for the job's duration, so every span a request causes carries it.

Spans stay in memory and are written out once, when the process ends.
"""

from __future__ import annotations

import json
import os
import threading
import time

NOW = time.perf_counter_ns

#: span record fields
LAYER, RID, START, END, CHILD, ATTRS = range(6)


class Tracer:
    """Per-process span store plus the per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.owner = os.getpid()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.rid = value

    def wrap(self, layer: str, function, note=None):
        """``function`` recording one ``layer`` span per call.

        ``note(attrs, args, kwargs, result)`` may add attributes.  In
        a forked child (the shard pool's workers) the wrapper only
        passes through: those spans could never be written out.
        """
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.owner:
                return function(*args, **kwargs)
            stack = tracer._stack()
            record = [layer, tracer.request_id, NOW(), 0, 0, {}]
            stack.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = NOW()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += record[END] - record[START]
                tracer.spans.append(record)
            if note is not None:
                note(record[ATTRS], args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def tally(self, layer: str, function):
        """``function`` counted and timed into the enclosing span.

        For leaf calls made once per result item (thousands per
        request), where a span each would cost more than the call:
        the time and count accumulate on the innermost open span and
        are emitted as one ``layer`` span when it closes.
        """
        tracer = self

        def tallied(*args, **kwargs):
            if os.getpid() != tracer.owner:
                return function(*args, **kwargs)
            begin = NOW()
            result = function(*args, **kwargs)
            spent = NOW() - begin
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
                parent[CHILD] += spent
                tally = parent[ATTRS].setdefault("_tally", {})
                entry = tally.setdefault(layer, [0, 0])
                entry[0] += spent
                entry[1] += 1
            else:
                tracer.spans.append([layer, tracer.request_id, begin,
                                     begin + spent, 0, {"items": 1}])
            return result

        tallied.__wrapped__ = function
        return tallied

    def patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- output -------------------------------------------------------------

    def records(self) -> list[list]:
        """Every span, with tallied leaf time expanded into spans."""
        out = []
        for record in self.spans:
            tally = record[ATTRS].pop("_tally", None)
            out.append(record)
            for layer, (spent, count) in (tally or {}).items():
                out.append([layer, record[RID], record[START],
                            record[START] + spent, 0, {"items": count}])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- the hooks ------------------------------------------------------------


def _hook_method(tracer: Tracer, cls, name: str, layer: str,
                 note=None) -> None:
    tracer.patch(cls, name, tracer.wrap(layer, cls.__dict__[name], note))


def _hook_function(tracer: Tracer, modules, name: str, layer: str,
                   note=None) -> None:
    """Wrap ``name`` in every module namespace that binds it."""
    original = getattr(modules[0], name)
    traced = tracer.wrap(layer, original, note)
    for module in modules:
        tracer.patch(module, name, traced)


def _note_items(attrs, args, _kwargs, result) -> None:
    attrs["items"] = len(result)


def _note_strings(attrs, args, _kwargs, _result) -> None:
    attrs["items"] = len(args[0].items)


def _note_size(attrs, _args, _kwargs, result) -> None:
    attrs["bytes"] = result


def _note_plan_hit(attrs, _args, _kwargs, result) -> None:
    attrs["hit"] = bool(result[1])


def install_server(tracer: Tracer) -> None:
    """Hook every layer the query service reaches (server process)."""
    import repro.api as api
    import repro.core.goddag.stats as goddag_stats
    import repro.core.plan as plan
    import repro.core.runtime.serializer as serializer
    import repro.store.catalog as catalog
    import repro.store.mhxb as mhxb
    import repro.store.plancache as plancache
    import repro.store.pool as pool
    from repro.core.goddag.goddag import KyGoddag
    from repro.core.update.compile import CompiledUpdate
    from repro.server.service import QueryService

    original_job_for = QueryService.__dict__["job_for"]

    def job_for(service, request):
        job = original_job_for(service, request)
        rid = request.headers.get("x-request-id")
        handed = NOW()

        def run():
            previous = tracer.request_id
            tracer.request_id = rid
            started = NOW()
            try:
                return traced_job()
            finally:
                tracer.request_id = previous
                tracer.spans.append(["server.queue", rid, handed,
                                     started, 0, {}])

        traced_job = tracer.wrap("server.job", job)
        return run

    tracer.patch(QueryService, "job_for", job_for)
    _hook_method(tracer, catalog.DocumentStore, "snapshot",
                 "store.snapshot")
    _hook_method(tracer, catalog.DocumentStore, "update", "store.update")
    _hook_method(tracer, plancache.SharedPlanCache, "get",
                 "store.plan_get", _note_plan_hit)
    _hook_function(tracer, [catalog], "fork_engine", "store.fork")
    _hook_function(tracer, [catalog], "save_engine", "store.persist",
                   _note_size)
    _hook_function(tracer, [catalog], "retire_engine", "store.retire")
    _hook_function(tracer, [catalog], "verify_blocks",
                   "store.cold_load")
    _hook_function(tracer, [mhxb], "load_engine", "store.cold_load")
    _hook_function(tracer, [api], "compile_update", "update.compile")
    _hook_method(tracer, CompiledUpdate, "pending", "update.pending")
    _hook_function(tracer, [api], "apply_pending", "update.apply")
    tracer.patch(KyGoddag, "build", classmethod(tracer.wrap(
        "goddag.build", KyGoddag.__dict__["build"].__func__)))
    _hook_method(tracer, KyGoddag, "check_invariants",
                 "goddag.invariants")
    _hook_function(tracer, [goddag_stats], "collect_plan_stats",
                   "goddag.stats")
    _hook_function(tracer, [plancache, api, plan], "compile_query",
                   "plan.compile")
    _hook_method(tracer, plan.CompiledQuery, "execute", "plan.exec",
                 _note_items)
    _hook_method(tracer, api.QueryResult, "strings", "runtime.serialize",
                 _note_strings)
    tallied = tracer.tally("runtime.serialize",
                           serializer.serialize_item)
    for module in (catalog, pool):
        tracer.patch(module, "serialize_item", tallied)
    _hook_method(tracer, pool.ShardWorkerPool, "run", "pool.run")
    _hook_function(tracer, [catalog], "gather", "pool.gather")


def install_ingest(tracer: Tracer) -> None:
    """Hook the streaming-ingest layer (ingest process)."""
    from repro.markup.streaming import StreamingBuilder

    _hook_method(tracer, StreamingBuilder, "add_hierarchy",
                 "markup.ingest_parse")
    _hook_method(tracer, StreamingBuilder, "save_shards",
                 "markup.ingest_save")
