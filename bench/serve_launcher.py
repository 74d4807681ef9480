"""Start ``repro serve`` in this process, with the benchmark's tracer on call.

    PYTHONPATH=src python bench/serve_launcher.py [--spans FILE] -- SERVE-ARGS...

Runs ``repro serve SERVE-ARGS``.  With ``--spans``, SIGUSR1 installs the
tracer's wrappers (the benchmark sends it after its untraced phase) and
prints ``tracing on``; once the server has drained, the spans go to FILE.
"""

from __future__ import annotations

import argparse
import signal
import sys

import tracer as tracing
from repro.cli import main as repro_main

TRACING_ON = "tracing on"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the server's spans here on exit")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    tracer = None
    if args.spans:
        tracer = tracing.Tracer("repro serve")
        tracer.calibrate()

        def start_tracing(signum, frame):
            tracing.install_serve(tracer)
            print(TRACING_ON, flush=True)

        signal.signal(signal.SIGUSR1, start_tracing)
    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
