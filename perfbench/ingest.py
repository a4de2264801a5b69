"""The corpus workload's repeated streaming ingests, in a process of
their own.

Usage: ``python ingest.py SEED SECONDS ROOT [SPANS_FILE]``.

Generates the corpus manuscript for SEED, then streams it into an
8-shard corpus under a fresh name in the store at ROOT, again and
again until SECONDS have passed (at least three times), removing each
corpus after hashing its shard files.  Prints one JSON object: the
``[begin_ns, end_ns]`` of every ingest (``time.perf_counter_ns``),
``[size, sha256]`` of every shard file of every ingest, and this
process's peak resident set.  Run apart from
the load generator, that peak is the program's ingest memory (with its
inputs) and nothing of the benchmark's own.  With SPANS_FILE the
streaming-ingest layer is traced and the spans are written there.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing
from harness import process_peak_rss_mb
from workloads import Corpus, shard_digests

#: ingests made however short SECONDS is
MIN_INGESTS = 3


def main(argv: list[str]) -> int:
    from repro.store import DocumentStore

    seed, seconds, root = int(argv[0]), float(argv[1]), Path(argv[2])
    spans = argv[3] if len(argv) > 3 else None
    corpus = Corpus(seed)
    tracer = tracing.Tracer()
    if spans:
        tracing.install_ingest(tracer)
    catalog = DocumentStore.init(root)
    timings, shards = [], []
    deadline = time.monotonic() + seconds
    try:
        while time.monotonic() < deadline or len(timings) < MIN_INGESTS:
            name = f"again{len(timings)}"
            timings.append(corpus.ingest(catalog, name))
            shards.append(shard_digests(root, name))
            catalog.remove_corpus(name)
    finally:
        catalog.close()
        tracer.uninstall()
        if spans:
            tracer.dump(spans)
    print(json.dumps({"ingests": timings, "shards": shards,
                      "peak_rss_mb": process_peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
