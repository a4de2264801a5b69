"""Run ``mhxq serve`` with the layer hooks of ``tracing.py`` installed.

Usage: ``python tracedserve.py SPANS_FILE serve --root STORE ...``.
Everything after the span file is passed to the ``mhxq`` CLI
unchanged.  The spans are written to SPANS_FILE after the server has
drained and returned.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    spans_file, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install_server(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
