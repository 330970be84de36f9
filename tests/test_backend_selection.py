"""Backend selection: config plumbing, CLI, fallback, and bench twins.

The ``backend`` field is an execution detail that must survive config
round-trips, be selectable from the CLI, and *never* silently degrade.
Every feature (fault injection and the reliable transport included)
runs on both cores; the only fallback left is an explicit
``build_network(..., allow_fast=False)``, which carries a
:class:`BackendFallbackWarning`.
"""

import dataclasses
import io
import json
import subprocess
import sys
import warnings

import pytest

from repro.cli import main
from repro.faults import FaultController, ReliableTransport
from repro.faults.plan import FaultPlan, FlitErrors, LinkFault
from repro.network import flit as flitmod
from repro.network.config import NetworkConfig, mesh_config
from repro.network.network import BackendFallbackWarning, build_network
from repro.sim.runner import run_simulation


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


RUN = dict(pattern="uniform", rate=0.2, warmup=50, measure=150, drain=100)


class TestConfigRoundTrip:
    def test_backend_survives_dict_round_trip(self):
        config = mesh_config(mesh_k=4, backend="fast")
        data = config.to_dict()
        assert data["backend"] == "fast"
        assert NetworkConfig.from_dict(data).backend == "fast"

    def test_backend_survives_file_round_trip(self, tmp_path):
        path = str(tmp_path / "config.json")
        mesh_config(mesh_k=4, backend="fast").save(path)
        assert NetworkConfig.load(path).backend == "fast"

    def test_backend_defaults_to_reference(self):
        assert mesh_config(mesh_k=4).backend == "reference"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            mesh_config(mesh_k=4, backend="turbo")


class TestBuildNetwork:
    def test_fast_backend_builds_fast_network(self):
        from repro.fastcore import FastNetwork

        net = build_network(mesh_config(mesh_k=4, backend="fast"))
        assert type(net) is FastNetwork

    def test_reference_backend_builds_reference_network(self):
        from repro.network.network import Network

        net = build_network(mesh_config(mesh_k=4))
        assert type(net) is Network

    def test_disallowed_fast_falls_back_with_warning(self):
        from repro.network.network import Network

        with pytest.warns(BackendFallbackWarning):
            net = build_network(
                mesh_config(mesh_k=4, backend="fast"), allow_fast=False
            )
        assert type(net) is Network

    def test_fast_network_accepts_faults_and_transport(self):
        from repro.fastcore import FastNetwork

        net = build_network(mesh_config(mesh_k=4, backend="fast"))
        controller = net.attach_faults(FaultController(FaultPlan()))
        transport = net.attach_transport(ReliableTransport())
        assert type(net) is FastNetwork
        assert net.faults is controller and net.transport is transport
        net.run(5)
        assert net.cycle == 5


def _fault_plan():
    return FaultPlan(
        links=[LinkFault(router=5, port=1, cycle=60, duration=20)],
        flit_errors=FlitErrors(drop=0.002, corrupt=0.001),
    )


class TestRunnerFallback:
    def test_fault_run_builds_fast_network_without_warning(self):
        from repro.fastcore import FastNetwork

        controller = FaultController(_fault_plan())
        config = mesh_config(mesh_k=4, backend="fast")
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            result = run_simulation(config, faults=controller, **RUN)
        assert type(controller.network) is FastNetwork
        assert result.faults["injection"]["failed_links"] == 1

    def test_transport_run_builds_fast_network_without_warning(self):
        from repro.fastcore import FastNetwork

        transport = ReliableTransport(timeout=128)
        config = mesh_config(mesh_k=4, backend="fast")
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            result = run_simulation(
                config, faults=_fault_plan(), transport=transport, **RUN
            )
        assert type(transport.network) is FastNetwork
        assert result.faults["transport"]["tracked"] > 0

    def test_fault_free_fast_run_does_not_warn(self):
        config = mesh_config(mesh_k=4, backend="fast")
        with warnings.catch_warnings():
            warnings.simplefilter("error", BackendFallbackWarning)
            result = run_simulation(config, **RUN)
        assert result.offered_rate > 0


class TestCLI:
    def test_run_backend_fast(self):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1", "--backend", "fast",
            "--warmup", "100", "--measure", "200", "--drain", "100",
        )
        assert code == 0
        assert "accepted (mean)" in text

    def test_run_backend_fast_matches_reference_output(self):
        args = ("run", "--mesh-k", "4", "--rate", "0.2", "--json",
                "--chaining", "any_input",
                "--warmup", "100", "--measure", "200", "--drain", "100")
        flitmod.set_next_packet_id(0)
        _, ref_text = run_cli(*args)
        flitmod.set_next_packet_id(0)
        _, fast_text = run_cli(*args, "--backend", "fast")
        assert json.loads(fast_text) == json.loads(ref_text)

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--backend", "turbo")


class TestBenchTwins:
    def test_fast_twin_shares_grid_point(self):
        from repro.bench import default_suite

        cases = default_suite(quick=True)
        by_name = {c.name: c for c in cases}
        twin = by_name["mesh4-islip1-chain-fast"]
        ref = by_name["mesh4-islip1-chain"]
        assert twin.backend == "fast"
        assert dataclasses.replace(twin, name=ref.name,
                                   backend="reference") == ref
        assert twin.config().backend == "fast"

    def test_backend_speedups_pairs_twins(self):
        from repro.bench import backend_speedups

        cases = {
            "a": {"backend": "reference", "cycles_per_sec": 100.0},
            "a-fast": {"backend": "fast", "cycles_per_sec": 320.0},
            "b": {"backend": "reference", "cycles_per_sec": 100.0},
        }
        speedups = backend_speedups(cases)
        assert speedups == {"a": pytest.approx(3.2)}


class TestStateArrays:
    def test_state_arrays_shapes_and_values(self):
        config = mesh_config(mesh_k=4, backend="fast")
        net = build_network(config)
        arrays = net.state_arrays()
        rows = arrays["credits"]
        assert len(rows) == len(net.routers)
        # Idle network: all credits at full depth, occupancy zero.
        radix = net.routers[0].radix
        assert list(rows[0][0]) == [config.vc_buf_depth] * config.num_vcs
        occupancy = arrays["occupancy"]
        assert all(
            x == 0 for row in occupancy for port in row[:radix] for x in port
        )
        conn_out = arrays["conn_out"]
        assert list(conn_out[0][0]) == [-1, -1]

    def test_state_arrays_are_int64_ndarrays_with_numpy(self):
        numpy = pytest.importorskip("numpy")
        net = build_network(mesh_config(mesh_k=4, backend="fast"))
        arrays = net.state_arrays()
        for value in arrays.values():
            assert isinstance(value, numpy.ndarray)
            assert value.dtype == numpy.int64

    def test_fast_network_run_does_not_import_numpy(self):
        """NumPy loads on the first SoA export, not with the fast core."""
        code = (
            "import sys\n"
            "from repro.network.config import mesh_config\n"
            "from repro.network.network import build_network\n"
            "net = build_network(mesh_config(mesh_k=4, backend='fast'))\n"
            "net.run(20)\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
