"""The three workloads: inputs, store build, traffic mix and checks.

Each workload answers the same questions for ``run.py``:

* ``build(store, oracle)`` — the timed part of set-up that happens
  before the server starts (store build or streaming ingest); returns
  the seconds spent on untimed oracle state;
* ``warm(server)`` — requests that fill caches and start lazily
  created state before timing;
* ``clients(server)`` and ``schedule`` — the closed-loop clients of
  the measured run and the ``(kind, count)`` steps of their lock-step
  round (``None``: each client runs its own loop);
* ``extra(seconds, spans)`` — timed work measured outside the HTTP
  load (the corpus workload's repeated ingests, in a child process);
  returns its timings and that process's peak resident set;
* ``finish(server, clients)`` — untimed requests after the load that
  return the store to its starting content; their answers are checked;
* ``check(samples, server)`` — marks and counts wrong answers, judged
  against an oracle that does not share the path under test;
* ``reads`` and ``op_p50`` — which samples and timings feed the
  end-to-end metrics (``point`` and ``page`` are request kinds of
  every mix).

Every input comes from ``generate(n_words, seed)``; the program sees
only the generated strings.

The traffic mixes follow one rule: every request class gets an equal
share of the clients' time.  Read-serve and corpus run their mix in
lock-step (``harness.LockStep``): in each step both clients send a
request of one class at the same moment, and a round gives each class
``count`` steps, spread evenly, where ``count`` is a fixed share of
the round divided by the class's serial latency in ``SERIAL_MS``
(rounded, at least one).  Two closed-loop clients share one GIL-bound
server, so a request's latency depends on what runs beside it.  In
lock-step that is always a request of its own class started with it,
and as the classes take turns step by step each of them meets the
host at its fast and its slow moments alike.  Two earlier schemes
spread far more between repeated runs on a shared 2-vCPU host: each
next class drawn at random by the same weights (which class ran
beside which varied: the page median and the read rate spread by 0.17
to 0.27 of their medians), and each class in a block of consecutive
requests (a block met the host either fast or slow: point and page
medians spread by 0.28 and 0.26).  The latencies are fixed figures,
not measured per run, so that a later change that speeds one class up
does not change the counts it is measured with.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import shutil
import sys
import time
from pathlib import Path

from gen import Inputs, generate
from harness import (CLIENTS, HERE, Client, Request, geomean, interleave,
                     median, run_child)

DOC = "doc"
DOC_WORDS = 6400
CORPUS = "ms"
CORPUS_WORDS = 32000
CORPUS_SHARDS = 8
PAGE = 25
WORKERS = 2
#: each class's share of a lock-step round, in ms of serial latency:
#: read-serve's is one Q-I.2, the slowest class; corpus's two scatter
#: joins
READ_SHARE_MS = 330.0
CORPUS_SHARE_MS = 57.0

POINT = "count(/descendant::w)"
OVERLAP = "count(/descendant::w[overlapping::line])"
PAGE_QUERY = "/descendant::w"
#: a content digest of the whole document: every element's name,
#: hierarchy and span, then the base text
DIGEST = ('concat(string-join(for $e in /descendant::* return '
          'concat(name($e), "|", hierarchy($e), "|", string-join('
          'for $x in span($e) return string($x), ",")), ";"), "#", '
          'string(/))')

#: serial latency (ms) of each request class: one client and no other
#: load, median of 30 requests (200 for point), on a 2-vCPU x86-64 host
#: against the program as this benchmark was written.  ``read-*``
#: classes run on the 6400-word document (Q-I.1 over skewed literals),
#: ``corpus-*`` ones on the 8-shard corpus.
SERIAL_MS = {
    "read-point": 2.9, "read-overlap": 5.4, "read-page": 36.0,
    "read-Q-I.1": 190.0, "read-Q-I.2": 330.0, "read-Q-II.1": 25.0,
    "read-Q-III.1": 36.0,
    "corpus-point": 13.3, "corpus-page": 28.5, "corpus-pruned": 0.8,
}
#: the writer's pause after each write, in multiples of that write's
#: latency (see :class:`WriteServe`)
WRITER_PAUSE = 1.0


def step_counts(prefix: str, kinds: tuple[str, ...],
                share_ms: float) -> list[tuple[str, int]]:
    """``(kind, count)`` of each of ``kinds``: ``share_ms`` of its
    serial latency's worth of requests (at least one)."""
    return [(kind, max(1, round(share_ms
                                / SERIAL_MS[f"{prefix}-{kind}"])))
            for kind in kinds]


def cycle(schedule: list[tuple[str, int]], request):
    """``next_request(i)`` walking ``schedule`` (``(kind, count)``
    pairs) round and round, for a client that runs alone."""
    order = interleave(schedule)
    return lambda i: request(order[i % len(order)])


def paper_queries(literal: str) -> dict[str, str]:
    """The four §4 queries; Q-I.1 searches for ``literal``."""
    from repro.experiments.paperdata import PAPER_QUERIES

    queries = {spec.id: spec.query for spec in PAPER_QUERIES}
    return {
        "Q-I.1": queries["Q-I.1"].replace("singallice", literal),
        "Q-I.2": queries["Q-I.2"],
        "Q-II.1": queries["Q-II.1"],
        "Q-III.1": queries["Q-III.1"],
    }


def query(kind: str, text: str, limit: int | None = None) -> Request:
    params = {"name": DOC, "q": text}
    if limit is not None:
        params["limit"] = str(limit)
    return Request(kind, "GET", "/query", params,
                   key=("query", text, limit))


def cquery(kind: str, text: str, *, workers: int = 1,
           limit: int | None = None) -> Request:
    params = {"q": text, "workers": str(workers)}
    if limit is not None:
        params["limit"] = str(limit)
    return Request(kind, "GET", "/cquery", params,
                   key=("cquery", text, limit))


def answer(payload: dict | None) -> tuple | None:
    """The comparable part of a ``/query`` or ``/cquery`` reply."""
    if not isinstance(payload, dict) or "items" not in payload:
        return None
    return tuple(payload["items"]), payload.get("total")


def build_document_store(store: Path, inputs: Inputs) -> None:
    """A fresh store holding the manuscript as document ``doc``."""
    from repro.cmh import MultihierarchicalDocument
    from repro.store import DocumentStore

    catalog = DocumentStore.init(store)
    try:
        catalog.add(DOC, MultihierarchicalDocument.from_xml(
            inputs.text, inputs.sources))
    finally:
        catalog.close()


def oracle_answers(inputs: Inputs, keys: set) -> dict:
    """Answers of an in-process mechanical (``use_cost=False``) engine
    for every ``("query", text, limit)`` key."""
    from repro.api import Engine
    from repro.cmh import MultihierarchicalDocument

    engine = Engine(MultihierarchicalDocument.from_xml(
        inputs.text, inputs.sources), use_cost=False)
    out = {}
    for key in keys:
        _endpoint, text, limit = key
        items = engine.query(text).strings()
        out[key] = (tuple(items[:limit] if limit else items),
                    len(items))
    return out


def verify_samples(samples, expected: dict) -> int:
    """Mark and count the samples whose status or answer is wrong."""
    wrong = 0
    for sample in samples:
        if (sample.status != 200 or sample.error
                or answer(sample.payload) != expected[sample.request.key]):
            sample.wrong = True
            wrong += 1
    return wrong


def corrupt_one(expected: dict) -> None:
    """Replace one expected answer with a wrong one (checker self-test)."""
    key = sorted(expected, key=repr)[0]
    items, total = expected[key]
    expected[key] = (items + ("<not-an-answer/>",), total)


class ReadServe:
    """One 6400-word manuscript; both clients run one read mix in
    lock-step (see :func:`step_counts`)."""

    name = "read-serve"
    #: checked ingests (the corpus workload's byte-identity check)
    ingest_runs = 0
    PAPER = ("Q-I.1", "Q-I.2", "Q-II.1", "Q-III.1")
    reads = ("point", "overlap", "page") + PAPER

    def __init__(self, seed: int, corrupt: bool = False) -> None:
        self.seed = seed
        self.corrupt = corrupt
        self.inputs = generate(DOC_WORDS, seed)
        self.schedule = step_counts("read", self.reads, READ_SHARE_MS)
        # Q-I.1 literals: Zipf-skewed over the distinct words ranked by
        # frequency, so common words repeat (plan-cache hits) and the
        # long tail does not (misses)
        counts: dict[str, int] = {}
        for word in self.inputs.words:
            counts[word] = counts.get(word, 0) + 1
        self.vocabulary = sorted(counts, key=lambda w: (-counts[w], w))
        weights, total = [], 0.0
        for rank in range(1, len(self.vocabulary) + 1):
            total += 1.0 / rank
            weights.append(total)
        self._cumulative = weights

    def environment(self) -> dict:
        return {"document_words": DOC_WORDS,
                "distinct_words": len(self.vocabulary),
                "round_steps": dict(self.schedule)}

    def build(self, store: Path, oracle: bool) -> float:
        build_document_store(store, self.inputs)
        return 0.0

    def literal(self, rng: random.Random) -> str:
        draw = rng.random() * self._cumulative[-1]
        return self.vocabulary[bisect.bisect_left(self._cumulative, draw)]

    def request(self, kind: str, rng: random.Random) -> Request:
        if kind == "point":
            return query(kind, POINT)
        if kind == "overlap":
            return query(kind, OVERLAP)
        if kind == "page":
            return query(kind, PAGE_QUERY, PAGE)
        literal = self.literal(rng) if kind == "Q-I.1" else "singallice"
        return query(kind, paper_queries(literal)[kind])

    def _client(self, name: str, server, number: int) -> Client:
        literals = random.Random(f"{self.seed}/{number}")
        return Client(name, server.host, server.port,
                      lambda kind: self.request(kind, literals))

    def warm(self, server) -> None:
        literals = random.Random(-1)
        client = Client("warm", server.host, server.port,
                        lambda i: self.request(self.reads[i], literals))
        client.run_count(len(self.reads))

    def clients(self, server) -> list[Client]:
        return [self._client(f"c{number}", server, number)
                for number in range(CLIENTS)]

    def extra(self, seconds: float, spans: Path | None) -> tuple:
        return [], 0.0

    def finish(self, server, clients) -> list:
        return []

    def check(self, samples, server) -> int:
        keys = {sample.request.key for sample in samples}
        expected = oracle_answers(self.inputs, keys)
        if self.corrupt:
            corrupt_one(expected)
        return verify_samples(samples, expected)

    def op_p50(self, by_kind, extra) -> float:
        """§4 queries: geometric mean of the four per-query medians."""
        return geomean([median(by_kind[kind]) for kind in self.PAPER])


class WriteServe:
    """The same manuscript; one client writes in a content-restoring
    cycle while the other reads.

    After each acknowledged write the writer pauses as long as the
    write took (``WRITER_PAUSE``), so it is busy half the time whatever
    the host's speed.  A read beside a write takes about twice as long
    as one without, and the read medians must stay clear of the edge
    between the two modes.  Writing back to back, the writer slowed
    about half of the reads and the point median flipped between 3.2
    and 4.5 ms from run to run (spread 0.28); pausing a fixed 0.6 s
    after each write, the share of slowed reads grew with the host's
    slowness and the page median spread by 0.38.  Pausing as long as
    the write took, the point and page medians spread by 0.02 over
    five seeds (twice as long: 0.03 and 0.04, with fewer writes).  A
    write's cost to readers shows in their tail (the first read of
    each new version) and in their rate.

    The writer's cycle of one-statement updates returns the document to
    its starting content.  After the load, the writer's last cycle is
    completed and the whole-document digest is compared with the one
    taken before the load.  The digest is a heavy query, so it runs
    outside the timed load rather than after every cycle, where it
    would itself slow the reads being measured.
    """

    name = "write-serve"
    ingest_runs = 0
    reads = ("point", "page")
    #: writer and reader each run their own loop
    schedule = None

    def __init__(self, seed: int, corrupt: bool = False) -> None:
        self.corrupt = corrupt
        self.inputs = generate(DOC_WORDS, seed)
        #: the reader's cycle: a page's serial time in points, then a page
        self.reader_cycle = step_counts("read", self.reads,
                                        SERIAL_MS["read-page"])
        self.target = self._quiet_word()
        word = self.inputs.words[self.target - 1]
        target = f"(/descendant::w)[{self.target}]"
        vline = f"(/descendant::vline)[{self.target // 5}]"
        self.cycle = [
            ("add-markup", 'add markup bmark to "restoration" '
                           f"covering {target}"),
            ("remove-markup", "remove markup (/descendant::bmark)[1]"),
            ("replace-value", f'replace value of node {target} with '
                              f'"{word[::-1]}"'),
            ("replace-value", f'replace value of node {target} with '
                              f'"{word}"'),
            ("rename", f'rename node {vline} as "vx"'),
            ("rename", 'rename node (/descendant::vx)[1] as "vline"'),
        ]
        self.start_digest: str | None = None

    def _quiet_word(self) -> int:
        """1-based index of the first word from 100 on that lies inside
        one physical line and touches no damage or restoration span,
        so the cycle's edits interact with no other markup."""
        elements = self.inputs.elements
        taken = sorted(elements["dmg"] + elements["res"])
        lines = elements["line"]
        for index in range(99, len(self.inputs.word_spans)):
            start, end = self.inputs.word_spans[index]
            if any(s < end and start < e for s, e in taken):
                continue
            if any(s <= start and end <= e for s, e in lines):
                return index + 1
        raise RuntimeError("no quiet word in the document")

    def environment(self) -> dict:
        return {"document_words": DOC_WORDS,
                "reader_cycle": dict(self.reader_cycle),
                "writer_pause_per_write_latency": WRITER_PAUSE,
                "write_cycle": [statement for _kind, statement
                                in self.cycle]}

    def build(self, store: Path, oracle: bool) -> float:
        build_document_store(store, self.inputs)
        return 0.0

    def warm(self, server) -> None:
        reader = Client("warm", server.host, server.port,
                        lambda i: self.read(self.reads[i % 2]))
        reader.run_count(4)
        digest = Client("digest", server.host, server.port,
                        lambda i: query("digest", DIGEST))
        digest.run_count(1)
        self.start_digest = self.digest_of(digest.samples[0])
        if self.start_digest is None:
            sample = digest.samples[0]
            raise RuntimeError("the digest query failed at warm-up: "
                               f"{sample.status} {sample.error} "
                               f"{sample.payload}")

    @staticmethod
    def digest_of(sample) -> str | None:
        if sample.status != 200 or not sample.payload:
            return None
        items = sample.payload.get("items") or [""]
        return hashlib.sha256(items[0].encode("utf-8")).hexdigest()

    def read(self, kind: str) -> Request:
        return (query("page", PAGE_QUERY, PAGE) if kind == "page"
                else query("point", POINT))

    def write(self, i: int) -> Request:
        kind, statement = self.cycle[i % len(self.cycle)]
        return Request("write", "POST", "/update", {},
                       {"name": DOC, "statements": [statement]},
                       key=("write", kind))

    def clients(self, server) -> list[Client]:
        return [Client("writer", server.host, server.port, self.write,
                       pause=WRITER_PAUSE),
                Client("reader", server.host, server.port,
                       cycle(self.reader_cycle, self.read))]

    def extra(self, seconds: float, spans: Path | None) -> tuple:
        return [], 0.0

    def finish(self, server, clients) -> list:
        """Complete the writer's last cycle, then take the digest."""
        done = len(clients[0].samples)
        remaining = -done % len(self.cycle)
        closer = Client("close", server.host, server.port,
                        lambda i: (self.write(done + i) if i < remaining
                                   else query("digest", DIGEST)))
        closer.run_count(remaining + 1)
        return closer.samples

    def check(self, samples, server) -> int:
        reads = [s for s in samples if s.kind in self.reads]
        keys = {sample.request.key for sample in reads}
        expected = oracle_answers(self.inputs, keys)
        # the write path's own answer is the digest: corrupt that one
        start_digest = "corrupted" if self.corrupt else self.start_digest
        for sample in samples:
            if sample.kind == "write":
                payload = sample.payload or {}
                counts = (payload.get("results") or [{}])[0].get(
                    "counts", {})
                sample.wrong = (sample.status != 200
                                or payload.get("applied") != 1
                                or sample.request.key[1] not in counts)
            elif sample.kind == "digest":
                digest = self.digest_of(sample)
                sample.wrong = digest is None or digest != start_digest
        return (verify_samples(reads, expected)
                + sum(s.wrong for s in samples if s.kind not in self.reads))

    def op_p50(self, by_kind, extra) -> float:
        return median(by_kind["write"])


class Corpus:
    """A 32k-word manuscript streamed into an 8-shard corpus; two
    clients send corpus queries, then the ingest is repeated."""

    name = "corpus"
    COUNT = f'count(collection("{CORPUS}")/descendant::w)'
    OVERLAP = f'collection("{CORPUS}")/descendant::w[overlapping::dmg]'
    #: no shard holds a <gap>: the manifest prunes every shard
    PRUNED = f'collection("{CORPUS}")/descendant::gap[overlapping::line]'
    reads = ("point", "page", "pruned")

    def __init__(self, seed: int, corrupt: bool = False) -> None:
        self.seed = seed
        self.corrupt = corrupt
        self.inputs = generate(CORPUS_WORDS, seed)
        self.schedule = step_counts("corpus", self.reads,
                                    CORPUS_SHARE_MS)
        self.ingest_dir: Path | None = None
        #: ``[size, sha256]`` of every shard file of the first ingest
        self.reference: list[list] | None = None
        self.ingest_mismatches = 0
        self.ingest_runs = 0
        self.stats: list[dict] = []

    def environment(self) -> dict:
        return {"corpus_words": CORPUS_WORDS, "shards": CORPUS_SHARDS,
                "cquery_workers": WORKERS,
                "round_steps": dict(self.schedule)}

    def ingest(self, store, name: str) -> tuple[int, int]:
        """One streaming ingest into a fresh corpus name; its
        ``(begin_ns, end_ns)`` (``time.perf_counter_ns``)."""
        begin = time.perf_counter_ns()
        store.add_corpus_streaming(name, self.inputs.text,
                                   self.inputs.sources,
                                   shards=CORPUS_SHARDS)
        return begin, time.perf_counter_ns()

    def build(self, store: Path, oracle: bool) -> float:
        """Ingest the served corpus; with ``oracle``, also store the
        unsharded copy the answers are checked on.  Returns the seconds
        of that untimed oracle work."""
        from repro.store import DocumentStore

        catalog = DocumentStore.init(store)
        try:
            self.ingest(catalog, CORPUS)
            self.compare_shards(shard_digests(store, CORPUS))
            if not oracle:
                return 0.0
            begin = time.perf_counter()
            catalog.add_streaming(DOC, self.inputs.text,
                                  self.inputs.sources)
            return time.perf_counter() - begin
        finally:
            catalog.close()

    def compare_shards(self, shards: list[list]) -> None:
        self.ingest_runs += 1
        if self.reference is None:
            self.reference = shards
        elif shards != self.reference:
            self.ingest_mismatches += 1

    def request(self, kind: str) -> Request:
        if kind == "point":
            return cquery(kind, self.COUNT)
        if kind == "page":
            return cquery(kind, self.OVERLAP, workers=WORKERS,
                          limit=PAGE)
        return cquery(kind, self.PRUNED)

    def warm(self, server) -> None:
        # the first pool call forks the workers and each worker maps
        # every shard it is given: repeat until both have seen all
        client = Client("warm", server.host, server.port,
                        lambda i: self.request(
                            self.reads[i % len(self.reads)]))
        client.run_count(3 * 6)

    def clients(self, server) -> list[Client]:
        return [Client(f"c{number}", server.host, server.port,
                       self.request) for number in range(CLIENTS)]

    def extra(self, seconds: float, spans: Path | None) -> tuple:
        """Repeat the streaming ingest into fresh names for ``seconds``
        in a child process (``ingest.py``); every repeat must write the
        same shard bytes.  Returns the ingests' ``(begin_ns, end_ns)``
        and the child's peak resident set."""
        command = [sys.executable, str(HERE / "ingest.py"),
                   str(self.seed), str(seconds), str(self.ingest_dir)]
        if spans is not None:
            command.append(str(spans))
        try:
            out = run_child(command, timeout=seconds + 150)
        finally:
            shutil.rmtree(self.ingest_dir, ignore_errors=True)
        result = json.loads(out.splitlines()[-1])
        for shards in result["shards"]:
            self.compare_shards(shards)
        return ([tuple(times) for times in result["ingests"]],
                result["peak_rss_mb"])

    def finish(self, server, clients) -> list:
        return []

    def check(self, samples, server) -> int:
        from urllib.parse import urlencode

        keys = {sample.request.key for sample in samples}
        expected = {}
        for key in keys:
            _endpoint, text, limit = key
            local = text.replace(f'collection("{CORPUS}")', "")
            status, payload = server.get(
                "/query?" + urlencode({"name": DOC, "q": local}))
            if status != 200:
                raise RuntimeError(f"oracle query failed: {payload}")
            items = payload["items"]
            expected[key] = (tuple(items[:limit] if limit else items),
                             len(items))
        if self.corrupt:
            corrupt_one(expected)
        wrong = verify_samples(samples, expected)
        for sample in samples:
            if sample.payload and "shards_total" in sample.payload:
                self.stats.append(sample.payload)
        wrong += self.ingest_mismatches
        self.ingest_mismatches = 0
        return wrong

    def op_p50(self, by_kind, extra) -> float:
        """Milliseconds per repeated streaming ingest (``extra``: the
        seconds of those :func:`run.end_to_end` keeps)."""
        return 1e3 * median(extra)


def shard_digests(root: Path, name: str) -> list[list]:
    """``[size, sha256]`` of every shard file of corpus ``name``."""
    out = []
    for index in range(CORPUS_SHARDS):
        data = (root / f"{name}.shard{index:04d}.mhxb").read_bytes()
        out.append([len(data), hashlib.sha256(data).hexdigest()])
    return out


WORKLOADS = {cls.name: cls for cls in (ReadServe, WriteServe, Corpus)}
