"""One benchmark job: a fresh interpreter running the txpattern CLI once.

    python3 child.py SPAWNED_AT RESULT_JSON [--trace] [--setup-only] -- ARGS...

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s`` covers
interpreter start, importing ``txpattern.cli`` and ``kernels.warmup()``.
``wall_s`` covers ``cli.main(ARGS)``: from opening the inputs until the
outputs are written.  With ``--trace`` the layer wrappers are installed
after set-up and the spans and counters go into the result file.  The
result file is written only when the job returns; its exit code is the
CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    spawned_at, result_path = float(argv[0]), argv[1]
    flags = argv[2:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]

    from txpattern import cli, kernels
    kernels.warmup()
    result = {"setup_s": time.monotonic() - spawned_at,
              "txpattern": cli.__file__}

    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        start = time.monotonic()
        if tracer is None:
            rc = cli.main(cli_args)
        else:
            with tracer.span("cli.main"):
                rc = cli.main(cli_args)
        result["wall_s"] = time.monotonic() - start
        result["rc"] = rc
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)
    else:
        rc = 0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
