"""The reference job: a fixed piece of dict-, tuple- and set-heavy Python.

``run.py`` starts this script as a helper process and writes one line to its
standard input before and after every request and set-up.  For each line,
the helper runs the job once and prints the seconds it took.  The machine
speed it measures is used to scale CPU time to reference speed.  The job
runs in its own process, so its memory does not count in the measured
process's peak RSS.
"""

import sys
import time


def reference_job() -> float:
    """Seconds one run of the job takes now."""
    started = time.perf_counter()
    counts = {}
    keys = []
    for index in range(60000):
        key = (index % 997, "v%d" % (index % 89))
        counts[key] = counts.get(key, 0) + 1
        keys.append(frozenset((key[0], index % 13)))
    len(set(keys))
    return time.perf_counter() - started


if __name__ == "__main__":
    for _line in sys.stdin:
        print(reference_job(), flush=True)
