"""The opt-in fast simulation core (``NetworkConfig.backend="fast"``).

A drop-in backend behind the reference ``Network``/runner interface,
bit-identical to the reference core — same ``SimResult``, metrics
export, trace-event stream, and checkpoint layout
(tests/test_fastcore_equivalence.py is the gate) — but substantially
faster. See DESIGN.md ("The fast core") for the state layout and the
equivalence contract, and :mod:`repro.fastcore.soa` for where NumPy is
(and deliberately is not) used; the core itself has no hard NumPy
dependency and never imports it.

Every feature runs here, fault injection and the reliable transport
included. Use :func:`repro.network.network.build_network` to construct
the backend a config asks for.
"""

from repro.fastcore.allocators import FastSeparableInputFirstAllocator
from repro.fastcore.network import FastNetwork
from repro.fastcore.router import FastRouter
from repro.fastcore.soa import state_arrays

__all__ = [
    "FastNetwork",
    "FastRouter",
    "FastSeparableInputFirstAllocator",
    "state_arrays",
]
