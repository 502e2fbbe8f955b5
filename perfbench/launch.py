"""Run one rfim1d CLI invocation in this fresh interpreter and time it.

    python launch.py SIDECAR INVOCATION MODE [CLI ARGS...]

MODE is ``setup`` (import ``rfim1d.cli`` and report the environment),
``run`` (call the CLI entry point ``rfim1d.cli.main``, the function behind
the ``rfim1d`` console script and ``python -m rfim1d.cli``) or ``trace``
(the same with span wrappers installed). Monotonic timestamps, spans,
the environment and the times of the reference loop (``reference.py``:
``pre``, timed after the import outside both timed intervals, and
``during``, timed by a sampler thread while ``main`` runs) go to the JSON
file SIDECAR; the exit code is the CLI's. The parent times the launch, so
``ready`` minus launch is the set-up time.
"""

import importlib.util
import json
import platform
import sys
import time

import reference


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main() -> int:
    sidecar, invocation, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import rfim1d.cli
    record = {"ready": time.monotonic()}
    record["pre"] = reference.measure()
    rec = None
    try:
        if mode == "setup":
            record["env"] = _environment()
            return 0
        if mode == "trace":
            import tracing
            rec = tracing.Recorder(invocation)
            record["absent"] = tracing.install(rec)
        sampler = reference.Sampler()
        sampler.start()
        record["start"] = time.monotonic()
        try:
            return rfim1d.cli.main(sys.argv[4:])
        finally:
            record["end"] = time.monotonic()
            record["during"] = sampler.stop()
    finally:
        if rec is not None:
            record["spans"] = rec.spans
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
