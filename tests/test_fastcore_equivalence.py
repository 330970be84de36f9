"""Fast-core equivalence: the bit-identical correctness bar.

The structure-of-arrays core (``backend="fast"``) must be
indistinguishable from the reference core on everything a run can
export: bit-identical SimResult JSON, bit-identical metrics export, an
identical trace-event stream, and checkpoints that round-trip across
backends in both directions. That holds under fault injection and the
reliable transport too. Anything less and the fast core is a different
simulator, not a faster one.
"""

import dataclasses
import json
import os
import random

import pytest

from repro.checkpoint import SimulationKilled, load_checkpoint
from repro.faults import (
    FaultController,
    FaultPlan,
    HangWatchdog,
    InvariantChecker,
    ReliableTransport,
)
from repro.faults.plan import FlitErrors, LinkFault, RouterFault
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.network.network import build_network
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, TraceBus
from repro.sim.runner import run_simulation
from repro.topology.mesh import PORT_XPLUS, PORT_YPLUS
from repro.traffic import BimodalLength
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern


RUN = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)

SEEDS = [1, 2, 3]

#: allocator x chaining grid from the issue: both allocators, chaining
#: on and off (the chained configs exercise the PC pipeline end to end).
CONFIGS = {
    "islip1": dict(allocator="islip1", chaining="disabled"),
    "islip1+chain": dict(allocator="islip1", chaining="any_input"),
    "wavefront": dict(allocator="wavefront", chaining="disabled"),
    "wavefront+chain": dict(allocator="wavefront", chaining="any_input"),
}


def _traced_run(config, **kw):
    """(result JSON, metrics JSON, trace events) for one run."""
    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    registry = MetricsRegistry()
    result = run_simulation(config, trace=bus, metrics=registry, **kw)
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        json.dumps(registry.to_dict(), sort_keys=True),
        sink.events,
    )


def _both_backends(config, **kw):
    ref = _traced_run(dataclasses.replace(config, backend="reference"), **kw)
    fast = _traced_run(dataclasses.replace(config, backend="fast"), **kw)
    return ref, fast


@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_backend_is_bit_identical(label, seed):
    config = mesh_config(mesh_k=4, seed=seed, **CONFIGS[label])
    ref, fast = _both_backends(config, **RUN)
    assert fast[0] == ref[0]  # SimResult JSON
    assert fast[1] == ref[1]  # metrics export
    assert fast[2] == ref[2]  # full trace-event stream
    assert fast[2]  # the comparison is not vacuous


def test_fast_backend_matches_on_larger_mesh():
    """mesh_k=8 shakes out radix/topology assumptions the 4x4 hides."""
    config = mesh_config(mesh_k=8, seed=2, chaining="any_input")
    ref, fast = _both_backends(config, **RUN)
    assert fast == ref


def test_fast_backend_matches_with_starvation_threshold():
    """THRESHOLD starvation control takes the non-default chain gates."""
    config = mesh_config(
        mesh_k=4, seed=1, chaining="any_input", starvation_threshold=8
    )
    ref, fast = _both_backends(config, **RUN)
    assert fast == ref


@pytest.mark.parametrize("first,second", [
    ("reference", "fast"),
    ("fast", "reference"),
])
def test_checkpoint_round_trips_across_backends(tmp_path, first, second):
    """A checkpoint taken under one backend restores under the other.

    The config hash excludes the backend (it is an execution detail,
    not an experiment parameter), so flipping it in the payload must
    restore cleanly and converge on the uninterrupted run's answer.
    """
    config = mesh_config(mesh_k=4, seed=5, chaining="any_input")
    ref, _ = _both_backends(config, **RUN)

    ck = str(tmp_path / "ck.json")
    flitmod.set_next_packet_id(0)
    with pytest.raises(SimulationKilled):
        run_simulation(
            dataclasses.replace(config, backend=first),
            checkpoint_path=ck, checkpoint_every=100, kill_at=250, **RUN,
        )
    payload = load_checkpoint(ck)
    assert payload["config"]["backend"] == first
    payload = dict(payload, config=dict(payload["config"], backend=second))

    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    registry = MetricsRegistry()
    result = run_simulation(
        dataclasses.replace(config, backend=second),
        trace=bus, metrics=registry, resume_from=payload, **RUN,
    )
    assert json.dumps(result.to_dict(), sort_keys=True) == ref[0]
    assert json.dumps(registry.to_dict(), sort_keys=True) == ref[1]
    ck_cycle = payload["cycle"]
    assert sink.events == [e for e in ref[2] if e["cycle"] >= ck_cycle]
    assert sink.events


def test_state_snapshot_round_trips_between_network_classes():
    """network.snapshot() from one backend restores into the other."""
    from repro.checkpoint import RestoreContext, SnapshotContext
    from repro.network.network import build_network
    from repro.sim.runner import run_simulation as _run  # noqa: F401

    config = mesh_config(mesh_k=4, seed=3, chaining="any_input")

    # Drive a fast network for a while, snapshot it.
    flitmod.set_next_packet_id(0)
    _traced_run(dataclasses.replace(config, backend="fast"), **RUN)
    # A fresh pair of networks: snapshot an idle reference network into
    # a fast one and back; layouts must be interchangeable.
    ref_net = build_network(dataclasses.replace(config, backend="reference"))
    fast_net = build_network(dataclasses.replace(config, backend="fast"))
    ctx = SnapshotContext()
    state = ref_net.snapshot(ctx)
    fast_net.restore(state, RestoreContext(ctx.packets))
    ctx2 = SnapshotContext()
    state2 = fast_net.snapshot(ctx2)
    ref_net.restore(state2, RestoreContext(ctx2.packets))
    assert json.dumps(state, sort_keys=True) == \
        json.dumps(state2, sort_keys=True)


# --- fault injection and the reliable transport -----------------------------

EXAMPLE_PLAN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "faultplan.json",
)

FAULT_RUN = dict(pattern="uniform", warmup=100, measure=300, drain=8000)

#: name -> (mesh_k, config kwargs, run kwargs, plan factory, transport?,
#: trace events that must occur, so the comparison exercises the case).
FAULT_CASES = {
    "example-plan+transport": (
        8, dict(chaining="same_input"), dict(rate=0.1, packet_length=1),
        lambda: FaultPlan.load(EXAMPLE_PLAN), True,
        ("link_failed", "link_repaired", "detour", "retransmit"),
    ),
    "transient-link-tears-held-connection": (
        4, dict(chaining="any_input"),
        dict(rate=0.35, lengths=BimodalLength(short=1, long=5)),
        lambda: FaultPlan(seed=3, links=[
            LinkFault(router=5, port=PORT_XPLUS, cycle=150, duration=120),
            LinkFault(router=9, port=PORT_YPLUS, cycle=220, duration=80),
        ]),
        True, ("conn_torn_down", "link_repaired", "pc_chain"),
    ),
    "router-fault": (
        4, dict(chaining="any_input"),
        dict(rate=0.2, lengths=BimodalLength(short=1, long=5)),
        lambda: FaultPlan(seed=4, routers=[RouterFault(router=5, cycle=228)]),
        False, ("router_failed", "flit_dropped"),
    ),
    "flit-drop-and-corrupt": (
        4, dict(chaining="same_input"),
        dict(rate=0.3, packet_length=4),
        lambda: FaultPlan(
            seed=5, flit_errors=FlitErrors(drop=0.003, corrupt=0.003),
        ),
        True, ("flit_dropped", "flit_corrupted", "retransmit"),
    ),
    "link-fails-after-routes-memoised": (
        4, dict(chaining="same_input"), dict(rate=0.25, packet_length=1),
        lambda: FaultPlan(seed=6, links=[
            LinkFault(router=6, port=PORT_XPLUS, cycle=350),
        ]),
        True, ("link_failed", "detour"),
    ),
}


def _fault_run(config, plan_factory, reliable, run_kw):
    """Traced run with a fresh controller, transport, strict invariant
    checker and watchdog; returns (result, metrics, events, network)."""
    controller = FaultController(plan_factory())
    transport = ReliableTransport(timeout=256) if reliable else None
    result, metrics, events = _traced_run(
        config, faults=controller, transport=transport,
        invariants=InvariantChecker(period=16, mode="strict"),
        watchdog=HangWatchdog(window=2000), **FAULT_RUN, **run_kw,
    )
    return result, metrics, events, controller.network


@pytest.mark.parametrize("case", list(FAULT_CASES))
def test_fast_backend_is_bit_identical_under_faults(case):
    from repro.fastcore import FastNetwork

    mesh_k, config_kw, run_kw, plan_factory, reliable, expect = \
        FAULT_CASES[case]
    config = mesh_config(mesh_k=mesh_k, seed=2, **config_kw)
    ref = _fault_run(dataclasses.replace(config, backend="reference"),
                     plan_factory, reliable, run_kw)
    fast = _fault_run(dataclasses.replace(config, backend="fast"),
                      plan_factory, reliable, run_kw)
    assert type(fast[3]) is FastNetwork
    assert fast[0] == ref[0]  # SimResult JSON
    assert fast[1] == ref[1]  # metrics export
    assert fast[2] == ref[2]  # full trace-event stream
    kinds = {event["ev"] for event in ref[2]}
    missing = [kind for kind in expect if kind not in kinds]
    assert not missing, f"scenario did not exercise {missing}"
    assert json.loads(ref[0])["drained"]
    # Fault-aware DOR detours, so the route memos stay off.
    assert all(r._route_cache is None for r in fast[3].routers)
    assert all(s._route_cache is None for s in fast[3].sources)


def _queued_behind(net):
    """First (router, port, vc, index) whose VC holds a flit of another
    packet behind the front packet's flits, or None."""
    for r, router in enumerate(net.routers):
        for p, vcs in enumerate(router.in_vcs):
            for v, vcobj in enumerate(vcs):
                queue = vcobj.queue
                for i, flit in enumerate(queue):
                    if flit.packet is not queue[0].packet:
                        return r, p, v, i
    return None


def _kill_behind_run(backend, kill=None, cycles=300):
    """Drive a faulted (but fault-free-plan) 4x4 mesh at high load; at
    ``kill = (cycle, (router, port, vc, index))`` kill the packet of the
    flit at that queue position. Returns (trace events, first queued-
    behind position seen at or after cycle 50)."""
    flitmod.set_next_packet_id(0)
    bus = TraceBus()
    sink = bus.attach(MemorySink())
    net = build_network(mesh_config(mesh_k=4, seed=3, backend=backend),
                        trace=bus)
    controller = net.attach_faults(FaultController(FaultPlan()))
    net.attach_invariants(InvariantChecker(period=1, mode="strict"))
    rng = random.Random(11)
    injector = BernoulliInjector(
        net.num_terminals, build_pattern("uniform", net.num_terminals, rng),
        0.6, FixedLength(4), rng,
    )
    found = None
    for _ in range(cycles):
        if kill is not None and net.cycle == kill[0]:
            r, p, v, i = kill[1]
            flit = net.routers[r].in_vcs[p][v].queue[i]
            controller.kill_packet(flit.packet, net.cycle, "test")
        if found is None and net.cycle >= 50:
            position = _queued_behind(net)
            if position is not None:
                found = (net.cycle, position)
        for packet in injector.generate(net.cycle):
            net.inject(packet)
        net.step()
    return sink.events, found


def test_packet_killed_behind_a_live_one_is_purged_at_the_front():
    """The gated prepass must keep scanning a router while a killed
    packet waits behind a live one, so it is purged when it reaches the
    VC front exactly as the every-cycle reference prepass purges it."""
    _, kill = _kill_behind_run("reference")
    assert kill is not None
    ref, _ = _kill_behind_run("reference", kill=kill)
    fast, _ = _kill_behind_run("fast", kill=kill)
    assert fast == ref
    dropped = [e for e in ref if e["ev"] == "flit_dropped"]
    assert any(e["reason"] == "killed" for e in dropped)
