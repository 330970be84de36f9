"""The repository benchmark: host time of the packet-chaining simulator.

    python3 perfbench/run.py --workload mesh8-1flit --seed 1 \\
        --seconds 30 --trace 0

Runs from the root of a source checkout and imports the simulator from
``src/``. It repeats one operation of the workload (a simulation, or a
whole sweep) for about ``--seconds`` host seconds, checks every
simulated result (see expected.py; for a seed with no recording, one
untimed operation at the default seed is checked against its recording
first, within the same time budget), and prints one JSON object as the
last line of stdout: ``correct``, ``attempted`` and ``failed``
operations (a sweep point is one operation), and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with nothing traced and
host times in reference-host seconds (see calibration.py).
``--trace 1`` alternates untraced and traced operations, requires
their results to be equal, and reports the per-layer split of host
time measured by the traced ones (see tracing.py and README.md).
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import workloads
from calibration import REFERENCE_S, Calibrator, calibrate
from expected import RECORDED_SEEDS, canonical, load, mismatches, problems
from layers import layer_metrics, op_metrics
from tracing import LayerTracer

#: build_network calls timed for setup_s before each operation; the
#: median over the whole run is reported.
SETUP_REPEATS = 5


def median_of(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Operations of one benchmark run and their checks."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        #: Expected points for this seed; for an unrecorded seed, the
        #: first operation's results, so every later one must repeat them
        #: (``check_recorded`` compares with a recording first).
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def operate(self, tracer=None):
        """One checked operation; returns its Outcome, or None if it raised."""
        points = len(self.workload.schemes) * len(self.workload.rates)
        self.attempted += points
        try:
            outcome = workloads.simulate(self.workload, self.seed,
                                         tracer=tracer)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            traceback.print_exc()
            self.failed += points
            return None
        bad = set(problems(self.workload, outcome))
        if self.reference is None:
            self.reference = {
                key: canonical(r) for key, r in outcome.results.items()
            }
        bad.update(mismatches(self.reference, outcome))
        if bad:
            print(f"perfbench: {self.workload.name} seed {self.seed}: "
                  f"{len(bad)} bad point(s): {sorted(bad)[:5]}",
                  file=sys.stderr)
        self.failed += len(bad)
        return outcome


def check_recorded(run, recorded):
    """One untimed operation at the default seed, against its recording.

    For a seed with no recording, the run's own operations can only be
    compared with each other, which misses a change that repeats. This
    operation compares the simulator with ``expected/`` in every run;
    its points count as attempted, and a mismatch as failed.
    """
    seed = RECORDED_SEEDS[0]
    check = Run(run.workload, seed, recorded[seed])
    check.operate()
    run.attempted += check.attempted
    run.failed += check.failed


def cycles_of(outcome):
    return sum(r.cycles_run for r in outcome.results.values())


def time_setup(workload, seed, samples):
    """Append host seconds of ``SETUP_REPEATS`` ``build_network`` calls.

    Sampling before every operation spreads the samples over the run,
    like the operations themselves. Collecting garbage first keeps
    earlier builds' garbage from being collected inside a sample.
    """
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workloads.build(workload, seed)
        samples.append(time.perf_counter() - start)


def peak_rss_mb(workload):
    """Largest resident set: this process, or the largest sweep worker."""
    who = resource.RUSAGE_CHILDREN if workload.is_sweep else \
        resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run, deadline):
    """Repeat untraced operations; the end-to-end metrics.

    Times are in reference-host seconds (see calibration.py). An
    operation's wall time is scaled by the mean of the calibrations
    before and after it, on as many CPUs as it keeps busy (a sweep's
    workers). ``setup_s`` is timed in this process alone, right after a
    calibration, and scaled by that one-CPU calibration: host speed
    changes between operations, and the calibration after the
    operation tracked the builds worse.
    """
    workload = run.workload
    workloads.build(workload, run.seed)  # finishes lazy imports, untimed
    walls, rates, setups, raw_walls, cals = [], [], [], [], []
    with Calibrator(max(1, workload.workers)) as cpus:

        def measure():
            """(one-CPU, all-CPU) calibration seconds; the one-CPU
            loop runs last, next to the builds it scales."""
            every = cpus.measure() if cpus.helpers else None
            one = calibrate()
            return one, every or one

        before = measure()
        while True:
            builds = []
            time_setup(workload, run.seed, builds)
            setups.extend(b * REFERENCE_S / before[0] for b in builds)
            outcome = run.operate()
            if outcome is None:
                break
            after = measure()
            every = (before[1] + after[1]) / 2
            cals.append(every)
            before = after
            walls.append(outcome.wall_s * REFERENCE_S / every)
            rates.append(cycles_of(outcome) / walls[-1])
            raw_walls.append(outcome.wall_s)
            if time.perf_counter() + outcome.wall_s > deadline:
                break
        metrics = {
            "wall_s": (median_of(walls), "s"),
            "cycles_per_s": (median_of(rates), "1/s"),
            "setup_s": (median_of(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        }
    print(f"perfbench: {len(walls)} operation(s), unscaled median wall "
          f"{median_of(raw_walls):.4f} s, median calibration "
          f"{median_of(cals):.4f} s on {len(cpus.helpers) + 1} CPU(s) "
          f"(reference {REFERENCE_S} s)", file=sys.stderr)
    return metrics


def traced(run, deadline):
    """Alternate untraced and traced operations; the per-layer metrics.

    Both kinds are checked against the same reference, so a traced
    result that differs from its untraced twin fails the run.
    """
    plain, outcomes, ops = [], [], []
    tracer = None
    while True:
        t0 = time.perf_counter()
        base = run.operate()
        if base is None:
            break
        tracer = LayerTracer()
        seen = run.operate(tracer=tracer)
        if seen is None:
            break
        plain.append(base)
        outcomes.append(seen)
        ops.append(op_metrics(tracer, seen))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    if tracer is not None and len(tracer.spans.start):
        os.makedirs(workloads.OUT, exist_ok=True)
        tracer.spans.write_tsv(os.path.join(
            workloads.OUT, f"spans-{run.workload.name}.tsv"
        ))
    return layer_metrics(run.workload, plain, outcomes, ops)


def result_line(run, metrics):
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None, workloads_by_name=None):
    catalog = workloads_by_name or workloads.WORKLOADS
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the packet-chaining simulator."
    )
    parser.add_argument("--workload", required=True, choices=sorted(catalog))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = catalog[args.workload]
    deadline = time.perf_counter() + args.seconds
    recorded = load(workload)
    run = Run(workload, args.seed, recorded.get(args.seed))
    if args.seed not in recorded and RECORDED_SEEDS[0] in recorded:
        check_recorded(run, recorded)
    if args.trace:
        metrics = traced(run, deadline)
    else:
        metrics = end_to_end(run, deadline)
    line = result_line(run, metrics)
    print(json.dumps(line))
    return line


if __name__ == "__main__":
    # On SIGTERM, unwind through the finally blocks that stop the sweep's
    # pool workers instead of leaving them orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    main()
