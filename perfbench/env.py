"""Pinned and recorded run environment.

The benchmark measures the program on its defaults: serial execution,
verification off, statistics collection on, and no slow-query log
threshold.  :func:`pin_environment` clears the environment variables that
would change those defaults (before the program is imported), and
:func:`environment_record` describes the interpreter, NumPy and machine in
every result.
"""

from __future__ import annotations

import os
import platform
import sys

#: Environment variables through which the program reads non-default
#: settings; the benchmark removes them so it measures the defaults.
CLEARED_VARIABLES = (
    "REPRO_THREADS",
    "REPRO_VERIFICATION",
    "REPRO_LOG_MIN_DURATION",
)

#: String hashing is pinned so set and dict iteration orders repeat
#: between processes.
HASH_SEED = "0"


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to measure."""


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pin_environment(argv: list[str]) -> None:
    """Clear the program's setting variables; re-execute the interpreter
    once with a fixed hash seed (``execv`` replaces this process, so no
    child process is left behind)."""
    for name in CLEARED_VARIABLES:
        os.environ.pop(name, None)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *argv])


def add_program_to_path() -> str:
    """Put the checkout's ``src`` directory first on ``sys.path``;
    raises :class:`ProgramMissing` when the program is not there."""
    src = os.path.join(repo_root(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ProgramMissing(
            f"no program source under {src!r}: run the benchmark from a "
            "checkout of the repository"
        )
    if src not in sys.path:
        sys.path.insert(0, src)
    return src


def environment_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "cleared": list(CLEARED_VARIABLES),
    }
