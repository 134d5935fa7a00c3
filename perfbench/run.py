"""Entry point of the placement time-to-quality benchmark.

    python3 perfbench/run.py --workload flat --seed 3 --seconds 25 --trace 0

See README.md next to this file.  The benchmark measures the program
in ``src/`` of the checkout it sits in and refuses to run without it.
However a run ends, it stops and reaps every process it started before
it exits (see :func:`stop_children`).
"""

import atexit
import os
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_pids() -> list[int]:
    """Live children of this process (empty where /proc cannot say)."""
    pids = []
    for listing in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in listing.read_text().split()]
        except OSError:
            pass
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Runs at exit, after ``multiprocessing``'s own exit handler has
    joined the portfolio's workers and released their semaphores.  What
    is left then is its resource tracker: the first queue of a spawn
    context starts it, and by design it outlives its parent until it
    reads EOF on its pipe.  Closing the pipe lets it exit now, and
    ``_stop`` waits for it (the standard library's own test clean-up
    stops it the same way).  Anything still left is killed and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def terminated(signum, frame):
    # unwind through every ``finally`` (the portfolio closes its pool)
    # and on to the exit handlers
    sys.exit(128 + signum)


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # exit handlers run last-registered first: registering before the
    # program imports multiprocessing puts this one after its handler
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, terminated)
    import bench  # next to this file, so already importable

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
