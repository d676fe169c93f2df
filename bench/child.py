"""One benchmark sample in a fresh process.

Usage: ``python3 bench/child.py <src dir> <config> <mode> <result.json> -- <cli args>``

Times the set-up (``import sketchls`` plus one ``MatrixSource.load()`` of
the workload's matrix), then one call of ``sketchls.cli.main`` on the given
arguments.  ``mode`` is ``0`` (plain call), ``1`` (call under the layer
tracer) or ``setup`` (set-up only, no call).  The working directory is the
sample's output directory.  Writes one JSON record to ``result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    src, config, mode, result_path = argv[:4]
    if argv[4] != "--" or mode not in ("0", "1", "setup"):
        raise SystemExit("usage: child.py <src> <config> <0|1|setup> <result.json> -- <cli args>")
    cli_args = argv[5:]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import sketchls.cli as cli
    cli.parse_config(Path(config).read_text(encoding="ascii")).sources[0].load()
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported sketchls from {cli.__file__}, not from {src}")
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"setup_s": setup_s}), encoding="ascii")
        return 0

    tracer = None
    if mode == "1":
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())

    out, err = io.StringIO(), io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cli_args)
    batch_s = time.perf_counter() - t1

    record = {
        "setup_s": setup_s,
        "batch_s": batch_s,
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        patched = tracer.patched
        tracer.uninstall()
        record["restored"] = all(owner.__dict__[attr] is raw for owner, attr, raw in patched)
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = tracer.span_totals()
    Path(result_path).write_text(json.dumps(record), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
