"""One benchmark job in a fresh interpreter.

Usage: job.py SRC_DIR RESULT [SUBCOMMAND CONFIG OUT_DIR TRACE]

Times `import paclab.cli` (set-up), then, unless only SRC_DIR and RESULT
are given, one `paclab.cli.main` call (run). Writes a JSON result with the
exit code, the times, resource usage, and with TRACE=1 the per-layer
metrics. Nothing but the interpreter's own start-up runs before the timed
import, so modules paclab imports (json, numpy, ...) are still cold.
"""

import sys
import time


def main() -> int:
    src, result_path = sys.argv[1:3]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import paclab.cli
    setup_s = time.perf_counter() - start

    import json
    import os
    import platform
    import resource

    if len(sys.argv) == 3:
        with open(result_path, "w") as fh:
            json.dump({"exit": 0, "setup_s": setup_s}, fh)
        return 0
    subcommand, config, out_dir, trace = sys.argv[3:7]

    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    code = paclab.cli.main([subcommand, "--config", config, "--out", out_dir])
    run_s = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["self_total_s"] = sum(tracer.self_times())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
