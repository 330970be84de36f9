"""Host-time spans around the simulator's layer boundaries.

Nothing here changes the simulator. :class:`LayerTracer` is passed to
``run_simulation(..., sampler=tracer)``; ``Network.attach_sampler``
hands it the live network before cycle 0, and it replaces public
methods on the live objects (``network.step``, every router's
``receive``/``step``, allocators, terminals, routing, the stats
collector) with wrappers that record one span per call. Objects the
runner builds after the sampler is attached are reached otherwise: the
benchmark wraps the fault controller and transport it passes in, and
:func:`patched` swaps a class or module attribute for the duration of
one run (the traffic injector, ``summarize``).

Spans live in flat in-memory arrays (name, parent, start, end) and are
written out only after the run. A layer's self time is its spans'
duration minus the part covered by their direct child spans.
"""

import contextlib
import time
from array import array


class SpanRecorder:
    """Flat arrays of spans, one per wrapped call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Per-name tallies that are not times (e.g. packets generated).
        self.counts = {}

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        """``fn`` recording a ``name`` span around every call."""
        nid = self._id(name)
        names, parents, starts, ends = (
            self.name, self.parent, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def attach(self, obj, attr, name):
        """Replace ``obj.attr`` (a bound method) with its traced wrapper."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def totals(self):
        """``{name: (calls, busy seconds, self seconds)}`` over all spans."""
        starts, ends = self.start, self.end
        dur = [e - s for s, e in zip(starts, ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            busy[nid] += dur[i]
            own[nid] += dur[i] - covered[i]
        return {
            name: (calls[n], busy[n], own[n])
            for n, name in enumerate(self.names)
        }

    def write_tsv(self, path):
        """One line per span: index, parent, name, start and end in us."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_us\tend_us\n")
            fh.writelines(
                f"{i}\t{p}\t{names[n]}\t{(s - t0) * 1e6:.3f}\t"
                f"{(e - t0) * 1e6:.3f}\n"
                for i, (n, p, s, e) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)
                )
            )


@contextlib.contextmanager
def patched(owner, attr, wrapper):
    """Set ``owner.attr = wrapper(owner.attr)`` until the block exits."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class LayerTracer:
    """The ``sampler=`` observer that instruments a live network.

    ``bind`` is the ``Network.attach_sampler`` hook: it records when
    the network came out of ``build_network`` and wraps the per-cycle
    entry points of every layer. ``maybe_sample`` is the per-cycle
    sampler hook and does nothing.
    """

    def __init__(self):
        self.spans = SpanRecorder()
        self.network = None
        #: perf_counter() when the network was handed over (cycle 0).
        self.bound_at = None

    def bind(self, net):
        self.bound_at = time.perf_counter()
        self.network = net
        attach = self.spans.attach
        attach(net, "step", "network.step")
        for router in net.routers:
            attach(router, "receive", "router.receive")
            attach(router, "step", "router.step")
            attach(router.switch_alloc, "allocate", "alloc.sa")
            attach(router.pc_alloc, "allocate", "alloc.pc")
        for source in net.sources:
            attach(source, "receive_credits", "terminal.credits")
            attach(source, "step", "terminal.source")
        for sink in net.sinks:
            attach(sink, "step", "terminal.sink")
        attach(net.routing, "next_hop", "routing.next_hop")
        for hook in ("record_created", "record_injected",
                     "record_flit_ejected", "record_ejected"):
            attach(net.stats, hook, "stats.record")
        return self

    def maybe_sample(self, cycle):
        pass

    def count_generated(self, generate):
        """Wrap ``BernoulliInjector.generate`` to trace and count packets."""
        traced = self.spans.wrap("traffic.generate", generate)
        counts = self.spans.counts

        def generate_counted(injector, cycle):
            packets = traced(injector, cycle)
            counts["traffic.packets"] = (
                counts.get("traffic.packets", 0) + len(packets)
            )
            return packets

        return generate_counted
