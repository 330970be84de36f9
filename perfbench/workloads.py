"""The benchmark's workloads and the one operation each of them repeats.

Every workload uses uniform random traffic and the paper's router
(4 VCs x 8 slots, iSLIP-1 for switch and PC allocation, credit delay
2). ``--seed`` becomes the network seed (allocators, UGAL), the traffic
seed derived from it by the runner, and the fault plan's flit-error
seed, so one seed fixes every input. README.md says why each workload
was chosen.
"""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
# The simulator under test is the checkout's own source tree, never an
# installed copy.
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    raise ImportError(f"no simulator sources at {SRC}")
sys.path.insert(0, SRC)

from repro import fbfly_config, mesh_config, run_simulation  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultController, FaultPlan, ReliableTransport,
)
from repro.network.network import (  # noqa: E402
    BackendFallbackWarning, build_network,
)
from repro.sim import runner  # noqa: E402
from repro.sim.parallel import parallel_matrix  # noqa: E402
from repro.traffic import BimodalLength  # noqa: E402
from repro.traffic.injection import BernoulliInjector  # noqa: E402

from tracing import patched  # noqa: E402

#: The fault workload's plan: the repository's example plan, read from
#: the checkout. A change to it changes the simulated results, so it
#: shows as failed operations until the results are re-recorded.
FAULT_PLAN = os.path.join(os.path.dirname(HERE), "examples", "faultplan.json")
#: ReliableTransport timeout for the fault workload. The default, 512
#: cycles, makes the drain 40% of the run and its length depends on when
#: the last drop happens: one seed in ten drained three times longer.
#: 128 cycles is still above the round trip at this load (no duplicate
#: deliveries, the same retransmission counts).
RETRANSMIT_TIMEOUT = 128
#: Scratch space for sweep journals and span files (ignored by git).
OUT = os.path.join(HERE, "out")
#: Seconds to wait for a sweep's pool workers to exit before killing them.
REAP_TIMEOUT = 30.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; every field is pinned with its expected
    results, so changing one forces a re-record."""

    name: str
    topology: str  # "mesh" (8x8, DOR) or "fbfly" (4x4, UGAL)
    schemes: Tuple[str, ...]  # chaining schemes
    rates: Tuple[float, ...]  # offered flits/node/cycle
    warmup: int
    measure: int
    drain: int
    bimodal: bool = False  # 1-/5-flit packets (Sec. 4.4) instead of 1-flit
    faults: bool = False  # examples/faultplan.json + a ReliableTransport
    #: 0: one run_simulation call (one scheme, one rate). Otherwise
    #: every scheme x rate through parallel_matrix on this many
    #: worker processes.
    workers: int = 0

    @property
    def is_sweep(self):
        return self.workers > 0

    def spec(self):
        """The pinned fields, as stored beside the expected results."""
        return json.loads(json.dumps(dataclasses.asdict(self)))

    def config(self, seed, chaining=None):
        factory = mesh_config if self.topology == "mesh" else fbfly_config
        return factory(chaining=chaining or self.schemes[0], backend="fast",
                       seed=seed)

    def run_kwargs(self):
        kwargs = dict(pattern="uniform", warmup=self.warmup,
                      measure=self.measure, drain=self.drain)
        if self.bimodal:
            kwargs["lengths"] = BimodalLength(short=1, long=5)
        else:
            kwargs["packet_length"] = 1
        return kwargs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mesh8-1flit",
            topology="mesh", schemes=("same_input",), rates=(0.40,),
            warmup=200, measure=600, drain=2000,
        ),
        Workload(
            name="fbfly4-bimodal",
            topology="fbfly", schemes=("any_input",), rates=(0.50,),
            warmup=400, measure=1200, drain=2000, bimodal=True,
        ),
        Workload(
            name="mesh8-faults",
            topology="mesh", schemes=("same_input",), rates=(0.10,),
            warmup=200, measure=600, drain=20000, faults=True,
        ),
        Workload(
            name="sweep-fig7a",
            topology="mesh",
            schemes=("disabled", "same_vc", "same_input", "any_input"),
            rates=(0.25, 0.38, 0.45, 0.7, 1.0),
            warmup=50, measure=100, drain=0, workers=2,
        ),
    )
}


def fault_plan(seed):
    with open(FAULT_PLAN) as fh:
        data = json.load(fh)
    data["seed"] = seed
    return FaultPlan.from_dict(data)


def build(workload, seed):
    """The ``build_network`` call a run of ``workload`` makes first."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendFallbackWarning)
        return build_network(workload.config(seed),
                             allow_fast=not workload.faults)


@dataclass
class Outcome:
    """One operation's results, keyed by point (``"run"`` for one run)."""

    results: dict
    wall_s: float
    #: The sweep's MatrixResults (errors, per-point timings), else None.
    matrix: Optional[object] = None
    #: Host seconds from calling run_simulation to cycle 0 (traced runs).
    build_s: Optional[float] = None


def simulate(workload, seed, tracer=None):
    """Run one operation of ``workload``; ``tracer`` is a LayerTracer."""
    if workload.is_sweep:
        return _sweep(workload, seed, tracer)
    kwargs = workload.run_kwargs()
    if tracer is not None:
        kwargs["sampler"] = tracer
    if workload.faults:
        controller = FaultController(fault_plan(seed))
        transport = ReliableTransport(timeout=RETRANSMIT_TIMEOUT)
        if tracer is not None:
            tracer.spans.attach(controller, "begin_cycle",
                                "faults.begin_cycle")
            tracer.spans.attach(transport, "step", "transport.step")
        kwargs.update(faults=controller, transport=transport)
    with contextlib.ExitStack() as stack:
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("ignore", BackendFallbackWarning)
        if tracer is not None:
            spans = tracer.spans
            stack.enter_context(patched(BernoulliInjector, "generate",
                                        tracer.count_generated))
            stack.enter_context(patched(
                runner, "summarize",
                lambda fn: spans.wrap("stats.summarize", fn)))
        start = time.perf_counter()
        result = run_simulation(workload.config(seed),
                                rate=workload.rates[0], **kwargs)
        wall = time.perf_counter() - start
    build_s = None if tracer is None else tracer.bound_at - start
    return Outcome({"run": result}, wall, build_s=build_s)


def point_key(label, rate):
    return f"{label}@{rate!r}"


def _sweep(workload, seed, tracer):
    configs = {s: workload.config(seed, chaining=s) for s in workload.schemes}
    kwargs = workload.run_kwargs()
    if tracer is not None:
        # Each worker unpickles its own copy and traces its point; the
        # spans stay in the worker, so this checks only that tracing
        # leaves sweep results unchanged and what it costs.
        kwargs["sampler"] = tracer
    os.makedirs(OUT, exist_ok=True)
    journal = tempfile.mkdtemp(prefix="journal-", dir=OUT)
    try:
        start = time.perf_counter()
        matrix = parallel_matrix(configs, list(workload.rates),
                                 workers=workload.workers,
                                 journal_dir=journal, **kwargs)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(journal, ignore_errors=True)
        reap_workers()
    results = {
        point_key(label, rate): result
        for label, series in matrix.items()
        for rate, result in series
    }
    return Outcome(results, wall, matrix=matrix)


def reap_workers():
    """Wait for every pool worker to exit (so RUSAGE_CHILDREN sees it)."""
    deadline = time.monotonic() + REAP_TIMEOUT
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join()
            raise RuntimeError("sweep workers did not exit")
        time.sleep(0.01)
