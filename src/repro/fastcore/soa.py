"""Structure-of-arrays export of router state.

The fast core keeps its *hot* per-router state in packed Python ints
(see :mod:`repro.fastcore.router`): at NoC sizes (radix ~5, 4 VCs),
scalar element access into NumPy arrays costs more than int/bitmask
operations, so the per-cycle loops stay on packed ints and NumPy is
used where arrays genuinely win — whole-network analysis snapshots.

:func:`state_arrays` flattens every router's credits, VC occupancy,
connection tables, and chain ages into dense ``[router, port, ...]``
arrays (ragged radices are padded with ``-1``). With NumPy installed
the result is a dict of ``int64`` ndarrays ready for slicing /
aggregation (the live dashboard and hot-spot attribution tools consume
these); without it, the same data comes back as plain nested lists —
the fast core itself never requires NumPy. NumPy is imported on the
first export, not with the module: building and running a network
never loads it (about 11 MB of resident memory).
"""

#: Fill value for ports beyond a router's radix (ragged topologies).
PAD = -1


def _np():
    """The numpy module, imported on first use (``sys.modules`` caches
    it from then on), or None where it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - where numpy is absent
        return None
    return numpy


def state_arrays(network):
    """Dense SoA snapshot: credits, occupancy, connections, ages.

    Returns a dict with keys ``credits`` and ``occupancy`` (shape
    ``[R, Pmax, V]``), ``conn_in``, ``conn_age``, ``port_flits`` (shape
    ``[R, Pmax]``), and ``conn_out`` (shape ``[R, Pmax, 2]`` holding
    ``(input, vc)`` or ``(-1, -1)``). Entries beyond a router's radix
    are ``-1``. Values are NumPy ``int64`` arrays when NumPy is
    available, nested lists otherwise.
    """
    return _export(
        [
            (
                router.credits,
                [[len(vc.queue) for vc in vcs] for vcs in router.in_vcs],
                router.conn_in,
                router.conn_age,
                router.port_flits,
                router.conn_out,
            )
            for router in network.routers
        ],
        network.config.num_vcs,
    )


def state_arrays_from_state(router_states, num_vcs):
    """Rebuild the SoA export from routers' canonical ``state_dict()``s.

    ``router_states`` is the list of per-router ``state_dict(ctx)``
    outputs (the exact structures checkpoints store and
    :mod:`repro.obs.digest` hashes). Producing the same arrays
    :func:`state_arrays` reads off the live objects closes the coverage
    gap between the two representations: if the fast core's array view
    ever drifted from canonical state, the two exports would disagree.
    """
    return _export(
        [
            (
                state["credits"],
                [[len(vc["queue"]) for vc in vcs] for vcs in state["in_vcs"]],
                state["conn_in"],
                state["conn_age"],
                state["port_flits"],
                state["conn_out"],
            )
            for state in router_states
        ],
        num_vcs,
    )


def verify_state_arrays(network):
    """Assert the live SoA export matches the state_dict()-derived one.

    Raises AssertionError naming the first mismatching array; returns
    the (verified) live export. ``repro diverge`` runs this at a
    divergence point to tell SoA-maintenance bugs from allocation bugs.
    """
    from repro.checkpoint import SnapshotContext

    live = state_arrays(network)
    derived = state_arrays_from_state(
        [r.state_dict(SnapshotContext()) for r in network.routers],
        network.config.num_vcs,
    )
    numpy = _np()
    for key in live:
        a, b = live[key], derived[key]
        if numpy is not None:
            equal = bool(numpy.array_equal(a, b))
        else:
            equal = a == b
        assert equal, (
            f"SoA export drifted from canonical state_dict() state: "
            f"array {key!r} differs"
        )
    return live


def _export(rows, num_vcs):
    """Pad per-router ``(credits, occupancy, conn_in, conn_age,
    port_flits, conn_out)`` rows to the largest radix, as arrays."""
    max_radix = max(len(row[2]) for row in rows)
    out = {key: [] for key in (
        "credits", "occupancy", "conn_in", "conn_age", "port_flits",
        "conn_out",
    )}
    for credits, occupancy, conn_in, conn_age, port_flits, conn_out in rows:
        fill = max_radix - len(conn_in)
        out["credits"].append(
            [list(c) for c in credits] + _pad_rows(fill, num_vcs)
        )
        out["occupancy"].append(
            [list(o) for o in occupancy] + _pad_rows(fill, num_vcs)
        )
        out["conn_in"].append(
            [PAD if ci is None else ci for ci in conn_in] + [PAD] * fill
        )
        out["conn_age"].append(list(conn_age) + [PAD] * fill)
        out["port_flits"].append(list(port_flits) + [PAD] * fill)
        out["conn_out"].append(
            [[PAD, PAD] if held is None else [held[0], held[1]]
             for held in conn_out] + _pad_rows(fill, 2)
        )
    numpy = _np()
    if numpy is None:
        return out
    return {
        key: numpy.array(value, dtype=numpy.int64)
        for key, value in out.items()
    }


def _pad_rows(count, width):
    return [[PAD] * width for _ in range(count)]
