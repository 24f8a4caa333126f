"""Application studies: KV store and TAS-like RPC."""

import pytest

from repro.analysis.loopback import InterfaceKind, build_interface
from repro.apps.kvstore import KvServerApp, KvStudy, KvWorkload
from repro.apps.tas import FlowState, RpcStudy, TasFastPath
from repro.errors import WorkloadError
from repro.platform import icx


class TestKvServer:
    def make_app(self, kind=InterfaceKind.CCNIC, n_ops=400, offered=20.0):
        setup = build_interface(icx(), kind)
        return KvServerApp(setup, KvWorkload.ads(), offered_mops=offered, n_ops=n_ops)

    def test_all_ops_complete(self):
        app = self.make_app()
        result = app.run()
        assert result.ops == 400
        assert result.latency.count > 0

    def test_server_busy_time_tracked(self):
        app = self.make_app()
        app.run()
        assert app.server_busy_ns > 0
        assert app.server_ops >= 400
        assert app.per_thread_mops > 0

    def test_runs_on_pcie_interface(self):
        app = self.make_app(kind=InterfaceKind.CX6, n_ops=200)
        result = app.run()
        assert result.ops == 200

    def test_get_set_mix_validates(self):
        setup = build_interface(icx(), InterfaceKind.CCNIC)
        with pytest.raises(WorkloadError):
            KvServerApp(setup, KvWorkload.ads(), offered_mops=0, n_ops=10)

    def test_buffers_not_leaked(self):
        app = self.make_app(n_ops=300)
        app.run()
        pool = app.setup.interface.pool
        outstanding = pool.stats.get("alloc_bufs") - pool.stats.get("free_bufs")
        # Small slack for in-flight buffers at stop time.
        assert outstanding < 128


class TestKvStudy:
    def study(self, per_thread=5.0, peak=35.0):
        return KvStudy(kind=InterfaceKind.CCNIC, per_thread_mops=per_thread,
                       peak_mops=peak)

    def test_linear_then_capped(self):
        study = self.study()
        spec = icx()
        assert study.throughput(2, spec) == pytest.approx(10.0)
        assert study.throughput(16, spec) == 35.0

    def test_threads_to_saturate(self):
        study = self.study()
        spec = icx()
        # 0.95 * 35 = 33.25 -> ceil(33.25 / 5) = 7 threads.
        assert study.threads_to_saturate(spec) == 7

    def test_faster_threads_need_fewer(self):
        spec = icx()
        slow = self.study(per_thread=2.5)
        fast = self.study(per_thread=5.0)
        assert fast.threads_to_saturate(spec) < slow.threads_to_saturate(spec)

    def test_hyperthreads_contribute_fractionally(self):
        study = self.study(per_thread=1.0, peak=100.0)
        spec = icx()
        base = study.throughput(16, spec)
        ht = study.throughput(18, spec)
        assert base < ht < base + 2.0


class TestTasFastPath:
    def make(self, kind=InterfaceKind.CCNIC, n_ops=400):
        setup = build_interface(icx(), kind)
        return TasFastPath(setup, n_flows=16, offered_mops=30.0, n_ops=n_ops)

    def test_all_rpcs_echoed(self):
        fastpath = self.make()
        result = fastpath.run()
        assert result.ops == 400

    def test_flow_state_maintained(self):
        fastpath = self.make(n_ops=320)
        fastpath.run()
        # Every flow saw traffic and its seq advanced by 64B per packet.
        for flow in fastpath.flows.values():
            assert flow.rx_packets > 0
            assert flow.seq == flow.rx_packets * 64
            assert flow.ack == flow.seq

    def test_per_thread_rate_positive(self):
        fastpath = self.make()
        fastpath.run()
        assert fastpath.per_thread_mops > 0

    def test_flow_validation(self):
        setup = build_interface(icx(), InterfaceKind.CCNIC)
        with pytest.raises(WorkloadError):
            TasFastPath(setup, n_flows=0, offered_mops=10.0, n_ops=10)

    @pytest.mark.parametrize(
        "offered_mops, n_ops",
        [(30.0, 0), (0.0, 10), (-1.0, 10)],
        ids=["no-ops", "zero-rate", "negative-rate"],
    )
    def test_ops_and_rate_validation(self, offered_mops, n_ops):
        # With no ops the fast path polled until max_sim_ns; with a zero
        # rate client() divided by zero.
        setup = build_interface(icx(), InterfaceKind.CCNIC)
        with pytest.raises(WorkloadError, match="must be positive"):
            TasFastPath(setup, n_flows=16, offered_mops=offered_mops, n_ops=n_ops)

    def test_flowstate_defaults(self):
        flow = FlowState(flow_id=3)
        assert flow.seq == 0 and flow.ack == 0


class TestRpcStudy:
    def test_threads_to_saturate(self):
        study = RpcStudy(kind=InterfaceKind.CCNIC, per_thread_mops=20.0,
                         peak_mops=60.0)
        assert study.threads_to_saturate() == 3

    def test_capped_throughput(self):
        study = RpcStudy(kind=InterfaceKind.CX6, per_thread_mops=10.0,
                         peak_mops=60.0)
        assert study.throughput(4) == 40.0
        assert study.throughput(10) == 60.0
