"""Per-layer metrics of a traced benchmark run.

Times are busy seconds per operation (a span's whole duration, so a
layer called from another one, such as the allocators inside
``router.step``, is also inside its caller's time); ``network.self_s``
is the one self time. Counts are per operation and repeat exactly for a
seed. A layer a workload does not reach reports 0: the fault layers
outside ``mesh8-faults``, the sweep layer outside ``sweep-fig7a``, and
every in-simulation layer on ``sweep-fig7a``, whose spans are recorded
in the pool workers and not sent back.
"""

import statistics

from tracing import LayerTracer
from workloads import Outcome

#: name -> (span name, what of it, unit); "busy"/"self" seconds or calls.
SPAN_METRICS = {
    "network.step_s": ("network.step", "busy", "s"),
    "network.self_s": ("network.step", "self", "s"),
    "router.receive_s": ("router.receive", "busy", "s"),
    "router.step_s": ("router.step", "busy", "s"),
    "router.step_calls": ("router.step", "calls", "count"),
    "alloc.sa_s": ("alloc.sa", "busy", "s"),
    "alloc.sa_calls": ("alloc.sa", "calls", "count"),
    "alloc.pc_s": ("alloc.pc", "busy", "s"),
    "alloc.pc_calls": ("alloc.pc", "calls", "count"),
    "terminal.source_s": ("terminal.source", "busy", "s"),
    "terminal.sink_s": ("terminal.sink", "busy", "s"),
    "terminal.credits_s": ("terminal.credits", "busy", "s"),
    "routing.next_hop_s": ("routing.next_hop", "busy", "s"),
    "routing.next_hop_calls": ("routing.next_hop", "calls", "count"),
    "traffic.generate_s": ("traffic.generate", "busy", "s"),
    "stats.record_s": ("stats.record", "busy", "s"),
    "stats.summarize_s": ("stats.summarize", "busy", "s"),
    "faults.begin_cycle_s": ("faults.begin_cycle", "busy", "s"),
    "transport.step_s": ("transport.step", "busy", "s"),
}
_FIELD = {"calls": 0, "busy": 1, "self": 2}
TERMINAL_SPANS = ("terminal.source", "terminal.sink", "terminal.credits")


def _ratio(num, den):
    return num / den if den else 0.0


def op_metrics(tracer, outcome):
    """Metrics of one traced operation."""
    totals = tracer.spans.totals()
    out = {}
    for name, (span, what, unit) in SPAN_METRICS.items():
        out[name] = (totals.get(span, (0, 0.0, 0.0))[_FIELD[what]], unit)
    step, own = out["network.step_s"][0], out["network.self_s"][0]
    out["network.covered_pct"] = (100.0 * _ratio(step - own, step), "%")
    out["terminal.calls"] = (
        sum(totals.get(s, (0,))[0] for s in TERMINAL_SPANS), "count"
    )
    out["traffic.packets"] = (
        tracer.spans.counts.get("traffic.packets", 0), "count"
    )

    net = tracer.network
    routers = net.routers if net is not None else []
    flits = sum(sum(r.port_flits) for r in routers)
    out["router.flits_switched"] = (flits, "count")
    router_s = out["router.receive_s"][0] + out["router.step_s"][0]
    out["router.us_per_flit"] = (1e6 * _ratio(router_s, flits), "us")
    counters = {}
    for r in routers:
        for key, value in r.alloc_counters.items():
            counters[key] = counters.get(key, 0) + value
    out["alloc.sa_grant_ratio"] = (
        _ratio(counters.get("sa_grants", 0), counters.get("sa_requests", 0)),
        "ratio",
    )
    out["alloc.pc_grant_ratio"] = (
        _ratio(counters.get("pc_grants", 0), counters.get("pc_requests", 0)),
        "ratio",
    )
    out["alloc.wasted_speculations"] = (
        sum(r.wasted_speculations for r in routers), "count"
    )

    results = list(outcome.results.values())
    out["chain.chained"] = (
        sum(r.chain_stats.total_chains for r in results), "count"
    )
    out["chain.conflicts"] = (
        sum(r.chain_stats.conflicts for r in results), "count"
    )
    transports = [r.faults["transport"] for r in results
                  if r.faults and "transport" in r.faults]
    tracked = sum(t["tracked"] for t in transports)
    out["transport.retransmissions"] = (
        sum(t["retransmissions"] for t in transports), "count"
    )
    out["transport.delivered_ratio"] = (
        _ratio(sum(t["delivered"] for t in transports), tracked), "ratio"
    )
    out["transport.failed"] = (
        sum(t["failed"] for t in transports), "count"
    )
    out["runner.build_s"] = (outcome.build_s or 0.0, "s")
    return out


def _sweep_metrics(workers, outcomes):
    """The sim.parallel layer, from untraced sweeps (medians per sweep)."""
    per_sweep = []
    for outcome in outcomes:
        matrix = outcome.matrix
        if matrix is None:
            continue
        walls = [t.wall_time for t in matrix.timings]
        busy = sum(walls)
        per_sweep.append({
            "sweep.point_s_p50": statistics.median(walls) if walls else 0.0,
            "sweep.point_s_max": max(walls, default=0.0),
            "sweep.busy_s": busy,
            "sweep.worker_util": _ratio(busy, workers * outcome.wall_s),
            "sweep.dispatch_s": outcome.wall_s - busy / workers,
        })
    units = {"sweep.worker_util": "ratio"}
    names = ("sweep.point_s_p50", "sweep.point_s_max", "sweep.busy_s",
             "sweep.worker_util", "sweep.dispatch_s")
    return {
        name: (statistics.median(s[name] for s in per_sweep)
               if per_sweep else 0.0, units.get(name, "s"))
        for name in names
    }


def _retries(outcomes):
    """Extra attempts over every sweep point, lost points included."""
    total = 0
    for outcome in outcomes:
        matrix = outcome.matrix
        if matrix is None:
            continue
        total += sum(t.attempts - 1 for t in matrix.timings)
        total += sum(e.attempts - 1 for e in matrix.errors)
    return total


def layer_metrics(workload, plain, traced, ops):
    """Per-layer metrics from paired untraced/traced operations.

    ``ops`` holds :func:`op_metrics` of each traced operation.
    """
    ops = ops or [op_metrics(LayerTracer(), Outcome({}, 0.0))]
    metrics = {
        name: (statistics.fmean(op[name][0] for op in ops), unit)
        for name, (_, unit) in ops[0].items()
    }
    metrics.update(_sweep_metrics(workload.workers, plain))
    metrics["sweep.retries"] = (_retries(plain + traced), "count")
    plain_wall = statistics.median(o.wall_s for o in plain) if plain else 0.0
    traced_wall = statistics.median(o.wall_s for o in traced) if traced \
        else 0.0
    metrics["trace.overhead_pct"] = (
        100.0 * (_ratio(traced_wall, plain_wall) - 1.0) if plain else 0.0,
        "%",
    )
    return metrics
