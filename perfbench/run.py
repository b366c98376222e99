"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bank-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace 1``
prints the per-layer metrics from a separate run that alternates traced and
untraced requests.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it show each metric with its spread within the run.  A wrong answer or
verdict, or a work count that does not repeat for the same input, exits
with status 1 and prints no result.

End-to-end times are reported at reference speed (see :func:`adjusted`);
the lines before the result also give them as measured.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = BENCH_DIR / ".run"
TRACE_DIR = BENCH_DIR / ".traces"

WORKLOAD_NAMES = ("bank-cold", "bank-warm", "fanout-http", "containment")
#: How many times a run sets the workload up, the last time in the measuring
#: process and the others each in a fresh interpreter (``setup_s`` is their
#: median).  bank-warm sets up once: its set-up is a full cold batch, ~9 s.
SETUP_SAMPLES = {"bank-cold": 5, "bank-warm": 1, "fanout-http": 5, "containment": 5}
#: Seconds the reference job takes on the reference machine.
REFERENCE_S = 0.1
END_TO_END = (
    ("setup_s", "s"),
    ("request_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the set-up time as JSON and exit",
    )
    return parser.parse_args(argv)


class ReferenceClock:
    """Measures the machine's current speed with the reference job.

    The speed of a shared VM wanders.  On a 2-core machine, one containment
    sweep took 1.9–3.5 s within four minutes, and CPU time grew with wall
    time.  The job runs in a helper interpreter (``reference.py``). This
    process and the helper are pinned to one CPU, so the job measures the
    CPU the requests run on.
    """

    def __init__(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._helper = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "reference.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def measure(self) -> float:
        """Seconds the reference job takes now."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=30)
        self._helper.stdout.close()


def adjusted(elapsed_s: float, cpu_s: float, reference_s: float) -> float:
    """Elapsed time at reference speed.

    Waiting is taken as measured.  The process's CPU time is scaled by how
    fast the reference job ran.
    """
    cpu_s = min(cpu_s, elapsed_s)
    return elapsed_s - cpu_s + cpu_s * REFERENCE_S / reference_s


def _set_up(workload_name: str, seed: int):
    """Import the program and build the workload.

    Returns the workload with the set-up's elapsed and CPU seconds.
    """
    RUN_DIR.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=RUN_DIR)
    cpu = time.process_time()
    started = time.perf_counter()
    try:
        from workloads import WORKLOADS

        workload = WORKLOADS[workload_name](seed, run_dir)
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    return workload, time.perf_counter() - started, time.process_time() - cpu


def _setup_sample(args):
    """One set-up in a fresh interpreter, so imports are paid again.

    Returns its elapsed and CPU seconds.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"set-up sample failed with status {completed.returncode}")
    document = json.loads(completed.stdout.strip().splitlines()[-1])
    return document["elapsed_s"], document["cpu_s"]


def _timed_setups(args, clock):
    """Set the workload up as often as SETUP_SAMPLES asks, the last time in
    this process.  Returns the workload and (elapsed, adjusted) pairs."""
    # The traced run reports no set-up time, so it sets up once.
    count = 1 if args.trace else SETUP_SAMPLES[args.workload]
    setups = []
    for sample in range(count):
        before = clock.measure()
        if sample < count - 1:
            elapsed, cpu = _setup_sample(args)
        else:
            workload, elapsed, cpu = _set_up(args.workload, args.seed)
        reference = (before + clock.measure()) / 2
        setups.append((elapsed, adjusted(elapsed, cpu, reference)))
    return workload, setups


def _measure(workload, clock, seconds: float, trace: bool):
    """The closed loop: one request after another for ``seconds`` (and at
    least ``workload.min_requests``).  Returns (outcomes, attempted, failed)."""
    from workloads import WrongResult

    outcomes = []
    attempted = failed = 0
    reference_work = {}
    reference = clock.measure()
    started = time.perf_counter()
    index = 0
    while index < workload.min_requests or time.perf_counter() - started < seconds:
        # Alternate traced and untraced rounds over all inputs, so both
        # halves see the same inputs.
        traced = trace and (index // workload.inputs) % 2 == 0
        try:
            outcome = workload.request(index, traced)
        except WrongResult:
            raise
        except Exception:  # a failed request counts against ok_share
            traceback.print_exc(file=sys.stderr)
            attempted += workload.ops_per_request
            failed += workload.ops_per_request
            outcome = None
        index += 1
        before, reference = reference, clock.measure()
        if outcome is None:
            continue
        outcome.reference_s = (before + reference) / 2
        attempted += outcome.ops
        failed += outcome.failed
        if outcome.failed == 0:
            key = (outcome.key, traced)
            expected = reference_work.setdefault(key, outcome.work)
            if outcome.work != expected:
                raise WrongResult(
                    f"request {index - 1} did different work on input "
                    f"{outcome.key!r}: {outcome.work} != {expected}"
                )
        outcomes.append(outcome)
    return outcomes, attempted, failed


def _spread(values) -> str:
    """Inter-quartile range over median, as the within-run spread."""
    if len(values) < 2:
        return "n/a (1 sample)"
    median = statistics.median(values)
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    share = (quartiles[2] - quartiles[0]) / median if median else 0.0
    return f"spread {share:.3f} over {len(values)}"


def _end_to_end(outcomes, setup_samples, attempted, failed):
    times = [
        adjusted(outcome.elapsed_s, outcome.cpu_s, outcome.reference_s)
        for outcome in outcomes
    ]
    rates = [
        (outcome.ops - outcome.failed) / time_s for outcome, time_s in zip(outcomes, times)
    ]
    answered = sum(outcome.ops - outcome.failed for outcome in outcomes)
    values = {
        "setup_s": (statistics.median(setup_samples), _spread(setup_samples)),
        "request_ms_p50": (statistics.median(times) * 1000.0, _spread(times)),
        "ops_per_s": (answered / sum(times), _spread(rates)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "one per run",
        ),
        "ok_share": ((attempted - failed) / attempted, f"{failed} of {attempted} failed"),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def _per_layer(outcomes):
    from layers import PER_LAYER

    traced = [outcome for outcome in outcomes if outcome.layers is not None]
    untraced = [outcome for outcome in outcomes if outcome.layers is None]
    result = {}
    for name, unit, _better in PER_LAYER:
        if name.startswith("process."):
            continue
        samples = [outcome.layers[name] for outcome in traced]
        result[name] = (statistics.median(samples), unit, _spread(samples))
    # min_requests covers at least one traced and one untraced round, so
    # neither list is empty.
    cpu = [outcome.cpu_s for outcome in untraced]
    result["process.cpu_s"] = (statistics.median(cpu), "s", _spread(cpu))
    overhead = statistics.median(o.elapsed_s for o in traced) / statistics.median(
        o.elapsed_s for o in untraced
    )
    result["process.tracing_overhead"] = (
        overhead, "ratio", f"{len(traced)} traced / {len(untraced)} untraced"
    )
    return {name: result[name] for name, _unit, _better in PER_LAYER}


def _write_trace(workload_name: str, seed: int, outcomes) -> str:
    from repro.runtime.export import write_chrome_trace

    spans = [span for outcome in outcomes for span in outcome.spans]
    if not spans:
        return "no spans (this workload runs no traced layer)"
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload_name}-seed{seed}.json"
    events = write_chrome_trace(str(path), spans)
    return f"{events} events in {path.relative_to(ROOT)}"


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workload, elapsed, cpu = _set_up(args.workload, args.seed)
        workload.close()
        print(json.dumps({"elapsed_s": elapsed, "cpu_s": cpu}))
        return 0

    # Byte-compile first, so no run's set-up pays for compiling the sources.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    clock = ReferenceClock()
    try:
        workload, setups = _timed_setups(args, clock)
        from workloads import WrongResult

        try:
            outcomes, attempted, failed = _measure(
                workload, clock, args.seconds, bool(args.trace)
            )
        except WrongResult as error:
            print(f"error: wrong result: {error}", file=sys.stderr)
            return 1
        finally:
            workload.close()
    finally:
        clock.close()
    if not outcomes:
        print("error: every request failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = _per_layer(outcomes)
        trace_note = _write_trace(args.workload, args.seed, outcomes)
    else:
        metrics = _end_to_end(
            outcomes, [setup for _elapsed, setup in setups], attempted, failed
        )
        trace_note = "untraced run"
    print(
        f"{args.workload} seed={args.seed}: {len(outcomes)} requests, "
        f"{attempted} operations, {failed} failed; python {sys.version.split()[0]}, "
        f"{os.cpu_count()} cpus"
    )
    print(f"  witness store: {workload.flush_policy}; trace: {trace_note}")
    times = [outcome.elapsed_s for outcome in outcomes]
    references = [outcome.reference_s for outcome in outcomes]
    print(
        f"  as measured: set-up {statistics.median(e for e, _ in setups):.6g} s, "
        f"request p50 {statistics.median(times) * 1000.0:.6g} ms; reference job "
        f"{statistics.median(references) * 1000.0:.4g} ms ({_spread(references)}), "
        f"{REFERENCE_S * 1000.0:.4g} ms at reference speed"
    )
    if len(times) > 1:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] * 1000.0
        print(f"  request_ms_p90 {p90:.6g} ms over {len(times)} requests (diagnostic)")
    for name, (value, unit, spread) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} ({spread})")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _spread) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
