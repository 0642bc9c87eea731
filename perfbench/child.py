"""Run one `pudroid` command in this fresh process and record what it cost.

    python3 perfbench/child.py STATS_JSON MODE [pudroid arguments...]

MODE is `probe` (import only, then report the BLAS set-up), `plain` or
`trace`. The parent passes its spawn time in PERFBENCH_SPAWN as a
`time.monotonic()` reading; on Linux that is the system-wide
CLOCK_MONOTONIC, so it is comparable across processes. `setup_s` runs from
spawn until `pudroid.cli` is imported and ready to take argv; `wall_s` runs
from spawn until the command has written its last artifact and returned.
"""

import os
import sys
import time

SPAWN = float(os.environ["PERFBENCH_SPAWN"])

import pudroid.cli  # noqa: E402  (the import is what setup_s measures)

READY = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402


def blas_info() -> dict:
    """The OpenBLAS library numpy loaded and the thread count it runs with."""
    import numpy

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    info = {"numpy": numpy.__version__, "library": libs[0] if libs else None, "threads": None}
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and info["threads"] is None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
    return info


def main() -> None:
    stats_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    stats: dict = {"setup_s": READY - SPAWN}
    if mode == "probe":
        stats["blas"] = blas_info()
    else:
        recorder = None
        if mode == "trace":
            import tracing

            recorder = tracing.Recorder(SPAWN)
            tracing.install(recorder)
        code = pudroid.cli.run(argv)
        end = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        stats.update(
            exit_code=code,
            wall_s=end - SPAWN,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
        if recorder is not None:
            stats["spans"] = recorder.finish(end)
            stats["counters"] = dict(recorder.counters)
            stats["missing_hooks"] = recorder.missing
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)


if __name__ == "__main__":
    main()
