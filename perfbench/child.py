"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED TRACE RESULT

Imports ``dephaselab.cli`` from ``ROOT/src`` and builds its parser (timed
as set-up), then, unless WORKLOAD is ``setup``, runs every command of the
workload in order in this process through ``cli.main(argv)``, one after the
other, in the current directory.  With TRACE = 1 the layers are wrapped
first and the spans are written once, at the end, next to RESULT.  The
timings, exit codes and environment go to the JSON file RESULT.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _blas_info() -> dict:
    """Library and live thread count of the OpenBLAS numpy loaded."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"library": os.path.basename(path),
                            "config": get_config().decode(),
                            "threads": get_threads()}
    return {"library": "unknown", "config": "", "threads": None}


def main(argv: list[str]) -> int:
    root, workload, seed, traced, result_path = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from dephaselab import cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported {cli.__file__}, not the checkout's library", file=sys.stderr)
        return 2
    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
    }
    if workload != "setup":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        import workloads

        tracer = spans.Tracer() if traced == "1" else None
        if tracer is not None:
            spans.install(tracer)
        records = []
        clock = time.perf_counter
        wall_start = clock()
        for index, cmd in enumerate(workloads.commands(workload, int(seed))):
            if tracer is not None:
                tracer.request = index
            err = io.StringIO()
            start = clock()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main(cmd)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback: the real CLI exits 1
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
            records.append({"argv": cmd, "exit": code, "seconds": clock() - start,
                            "stderr": err.getvalue().strip()})
        result["wall_s"] = clock() - wall_start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["commands"] = records
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["trace"]["nesting_errors"] = spans.nesting_errors(tracer.spans)[:10]
            tracer.write(result_path + ".spans.json")

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
