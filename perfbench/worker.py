"""One sample in a fresh interpreter: import the CLI, run ``main(argv)`` once.

    python3 worker.py RESULT.json [--trace RUN_ID] [-- ARGV...]

With no ARGV it only imports ``mobility_esda.cli`` (the import check).
Before the import it times ``calibrate()``, work that does not depend on
the program, so the runner can divide the call's time by the machine's
speed at that moment. The import (numpy included) is timed apart from
the call, so ``wall_s`` covers ``main(argv)`` alone. With ``--trace``
the package's public functions are wrapped for the call and restored
afterwards; the spans are written to RESULT.json with the timings once
the call has returned.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter


def calibrate() -> tuple[float, float]:
    """Seconds for the calibration, and the part of it spent in ``import numpy``.

    The calibration is a fixed interpreter loop, ``import numpy`` and a
    loop of small numpy calls like LISA's permutation draws. None of it
    depends on the program; together they track how the speed of a shared
    machine drifts for the kinds of work the CLI does.
    """
    start = perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i % 7
    loop_s = perf_counter() - start
    start = perf_counter()
    import numpy as np

    numpy_s = perf_counter() - start
    start = perf_counter()
    rng = np.random.default_rng(0)
    z, w = rng.normal(size=27), np.ones(8)
    for _ in range(3000):
        total += float(np.dot(w, z[rng.choice(26, size=8, replace=False)]))
    return loop_s + numpy_s + perf_counter() - start, numpy_s


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    run_id = int(rest[1]) if rest[:1] == ["--trace"] else None
    cli_argv = rest[rest.index("--") + 1 :] if "--" in rest else None

    calib_s, numpy_s = calibrate()
    start = perf_counter()
    import mobility_esda.cli as cli

    # set-up is the CLI's import with numpy's, which calibrate() timed
    result = {
        "import_s": numpy_s + perf_counter() - start,
        "calib_s": calib_s,
        "module": cli.__file__,
    }
    if cli_argv is not None:
        tracer = None
        if run_id is not None:
            from spans import Tracer

            tracer = Tracer(run_id)
            tracer.install()
        start = perf_counter()
        try:
            result["exit_code"] = cli.main(cli_argv)
        except Exception:  # the sample fails; the benchmark goes on to the next
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            names = sorted({s.name for s in tracer.spans if s is not None})
            index = {name: k for k, name in enumerate(names)}
            result["span_names"] = names
            result["spans"] = [
                [index[s.name], s.start, s.end, s.parent, s.run] for s in tracer.finished_spans()
            ]
            result["counts"] = dict(tracer.counts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
