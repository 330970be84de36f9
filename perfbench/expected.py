"""Expected simulated results, and the checks every operation passes.

Simulated results are deterministic per seed, so they are the
benchmark's correctness check. ``expected/<workload>.json`` pins
``SimResult.to_dict()`` minus ``timing`` (host time) for the default
seed and one held-out seed, per point for the sweep, together with the
workload's spec: a result recorded for other parameters is refused
rather than compared.

Re-record after a deliberate change to a workload or to the simulated
model (never to make a failing check pass):

    python3 perfbench/expected.py
"""

import json
import os
import sys

from workloads import WORKLOADS, point_key, simulate

HERE = os.path.dirname(os.path.abspath(__file__))
DIR = os.path.join(HERE, "expected")
#: The default seed and the held-out seed.
RECORDED_SEEDS = (1, 2)


def canonical(result):
    """A SimResult as plain JSON data, without host timing."""
    data = result.to_dict()
    data.pop("timing", None)
    return json.loads(json.dumps(data))


def path_for(workload):
    return os.path.join(DIR, f"{workload.name}.json")


def load(workload):
    """``{seed: {point: result dict}}`` recorded for ``workload``."""
    try:
        with open(path_for(workload)) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    if data["spec"] != workload.spec():
        raise ValueError(
            f"{path_for(workload)} was recorded for another spec of "
            f"{workload.name}; re-record it"
        )
    return {int(seed): points for seed, points in data["seeds"].items()}


def problems(workload, outcome):
    """Why each point of ``outcome`` is not a plausible result.

    ``{point: reason}``; points the sweep lost or retried count too.
    These checks hold for every seed, recorded or not.
    """
    bad = {}
    for key, result in outcome.results.items():
        if result.warnings:
            bad[key] = f"warnings {result.warnings}"
        elif result.drained is False:
            bad[key] = "drain did not complete"
        elif workload.faults:
            tr = result.faults["transport"]
            lost = tr["tracked"] - tr["delivered"]
            if tr["failed"] or tr["pending"] or lost:
                bad[key] = f"transport lost packets: {tr}"
    matrix = outcome.matrix
    if matrix is not None:
        for err in matrix.errors:
            bad[point_key(err.label, err.rate)] = f"error: {err.error}"
        for t in matrix.timings:
            if t.attempts > 1:
                bad[point_key(t.label, t.rate)] = f"{t.attempts} attempts"
    return bad


def mismatches(reference, outcome):
    """Points of ``reference`` whose result differs or is missing."""
    got = {key: canonical(r) for key, r in outcome.results.items()}
    return sorted(key for key, want in reference.items()
                  if got.get(key) != want)


def record():
    """Record every workload at ``RECORDED_SEEDS``."""
    os.makedirs(DIR, exist_ok=True)
    for workload in WORKLOADS.values():
        data = {"spec": workload.spec(), "seeds": {}}
        for seed in RECORDED_SEEDS:
            outcome = simulate(workload, seed)
            bad = problems(workload, outcome)
            if bad:
                raise SystemExit(f"{workload.name} seed {seed}: {bad}")
            data["seeds"][str(seed)] = {
                key: canonical(r) for key, r in outcome.results.items()
            }
            print(f"{workload.name} seed {seed}: "
                  f"{len(outcome.results)} point(s), {outcome.wall_s:.1f} s",
                  file=sys.stderr)
        with open(path_for(workload), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    record()
