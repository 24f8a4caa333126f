"""Protocol sanitizer: seeded violations, clean runs, fingerprints."""

import pytest

from repro.analysis.checks import format_rule_summary, format_violation_table
from repro.analysis.loopback import InterfaceKind, build_interface, run_point
from repro.analysis.perf import _fingerprint
from repro.shard.runner import _system_snapshot
from repro.check import METADATA_CLASSES, Sanitizer
from repro.core.buffers import Buffer
from repro.core.config import CcnicConfig
from repro.errors import SanitizerError
from repro.obs import Observability
from repro.obs.export import SANITIZE_SCHEMA, export_doc, load_doc
from repro.platform import icx


class FakeAgent:
    def __init__(self, name):
        self.name = name


class FakeRegion:
    def __init__(self, name, home):
        self.name = name
        self.home = home


class FakeReg:
    base = 0x9000


class FakeQueue:
    """Just enough ring surface for driving the hooks directly."""

    def __init__(self, name="txq0", inline_signals=True, grouped=True):
        self.name = name
        self.inline_signals = inline_signals
        self.grouped = grouped
        self.tail = 0
        self.tail_reg = None if inline_signals else FakeReg()

    def line_addr(self, index):
        if self.grouped:
            return 0x8000 + (index // 4) * 64
        return 0x8000 + index * 64


class FakeItem:
    def __init__(self, buf=None, pkt=None):
        self.buf = buf
        self.pkt = pkt


HOST = FakeAgent("host-q0")
NIC = FakeAgent("nic-q0")


def _publish_and_observe(san, queue, base=0, visible=0.0, n=4):
    group = [FakeItem() for _ in range(n)]
    san.group_publish(queue, HOST, base, group, visible)
    san.signal_observe(queue, NIC, base, visible)
    return group


class TestDoubleReap:
    def test_second_consume_flags(self):
        san = Sanitizer()
        queue = FakeQueue()
        _publish_and_observe(san, queue)
        for i in range(4):
            san.slot_consume(queue, NIC, i, FakeItem(), 10.0, True)
        assert san.total == 0
        san.slot_consume(queue, NIC, 0, FakeItem(), 12.5, True)
        assert san.counts["double-reap"] == 1
        v = san.violations[0]
        assert v.rule == "double-reap"
        assert v.addr == queue.line_addr(0) == 0x8000
        assert v.sim_time == 12.5
        assert v.agents == ("nic-q0",)


class TestReadBeforeSignal:
    def test_never_published(self):
        san = Sanitizer()
        queue = FakeQueue()
        san.slot_consume(queue, NIC, 5, FakeItem(), 3.0, True)
        assert san.counts["read-before-signal"] == 1
        assert "never published" in san.violations[0].message
        assert san.violations[0].addr == queue.line_addr(5)

    def test_consume_before_store_retires(self):
        san = Sanitizer()
        queue = FakeQueue(grouped=False)
        san.slot_publish(queue, HOST, 0, FakeItem(), visible=100.0)
        san.signal_observe(queue, NIC, 0, 50.0)
        san.slot_consume(queue, NIC, 0, FakeItem(), 50.0, True)
        assert san.counts["read-before-signal"] == 1
        v = san.violations[0]
        assert "retires at t=100.0ns" in v.message
        assert v.sim_time == 50.0

    def test_signal_skipping_reader(self):
        # Consumer never observed the inlined signal: no happens-before
        # edge from publish to consume.
        san = Sanitizer()
        queue = FakeQueue()
        san.group_publish(queue, HOST, 0, [FakeItem()] * 4, 0.0)
        san.slot_consume(queue, NIC, 0, FakeItem(), 5.0, True)
        assert san.counts["read-before-signal"] == 1
        assert "not happens-before ordered" in san.violations[0].message

    def test_observed_signal_is_clean(self):
        san = Sanitizer()
        queue = FakeQueue()
        _publish_and_observe(san, queue, visible=2.0)
        for i in range(4):
            san.slot_consume(queue, NIC, i, FakeItem(), 5.0, True)
        assert san.total == 0

    def test_register_tail_observed_before_retirement(self):
        san = Sanitizer()
        queue = FakeQueue(inline_signals=False, grouped=False)
        san.slot_publish(queue, HOST, 0, FakeItem(), visible=0.0)
        san.signal_publish(queue, HOST, 1, visible=100.0)
        san.signal_observe(queue, NIC, "tail", 40.0)
        assert san.counts["read-before-signal"] == 1
        v = san.violations[0]
        assert v.addr == FakeReg.base
        assert "before the producer's store retired" in v.message

    def test_register_consume_beyond_observed_tail(self):
        san = Sanitizer()
        queue = FakeQueue(inline_signals=False, grouped=False)
        san.slot_publish(queue, HOST, 0, FakeItem(), visible=0.0)
        # Tail store published but this consumer never read the register.
        san.signal_publish(queue, HOST, 1, visible=0.0)
        san.slot_consume(queue, NIC, 0, FakeItem(), 5.0, True)
        assert san.counts["read-before-signal"] == 1
        assert "beyond the observed tail" in san.violations[0].message

    def test_register_mode_clean(self):
        san = Sanitizer()
        queue = FakeQueue(inline_signals=False, grouped=False)
        san.slot_publish(queue, HOST, 0, FakeItem(), visible=0.0)
        san.signal_publish(queue, HOST, 1, visible=0.0)
        san.signal_observe(queue, NIC, "tail", 5.0)
        san.slot_consume(queue, NIC, 0, FakeItem(), 5.0, True)
        assert san.total == 0


class TestTornGroupRead:
    def test_non_aligned_signal_gate(self):
        san = Sanitizer()
        queue = FakeQueue()
        san.signal_observe(queue, NIC, 2, 7.0)
        assert san.counts["torn-group-read"] == 1
        v = san.violations[0]
        assert "non-group-aligned position 2" in v.message
        assert v.sim_time == 7.0

    def test_partial_group_consume(self):
        san = Sanitizer()
        queue = FakeQueue()
        _publish_and_observe(san, queue, base=0)
        _publish_and_observe(san, queue, base=4)
        san.slot_consume(queue, NIC, 0, FakeItem(), 9.0, True)
        san.slot_consume(queue, NIC, 1, FakeItem(), 9.0, True)
        # Jumping to the next line with half the group unconsumed.
        san.slot_consume(queue, NIC, 4, FakeItem(), 9.0, True)
        assert san.counts["torn-group-read"] == 1
        v = [x for x in san.violations if x.rule == "torn-group-read"][0]
        assert "2/4 slots" in v.message
        assert v.addr == queue.line_addr(0)


class TestBlankSkip:
    def test_emitted_blank_flags(self):
        san = Sanitizer()
        queue = FakeQueue()
        _publish_and_observe(san, queue, n=2)  # slots 2,3 are blanks
        san.slot_consume(queue, NIC, 0, FakeItem(), 4.0, True)
        san.slot_consume(queue, NIC, 1, FakeItem(), 4.0, True)
        san.slot_consume(queue, NIC, 2, None, 4.0, True, blank=True)
        assert san.counts["blank-skip"] == 1
        assert "emitted as a work item" in san.violations[0].message

    def test_skipped_blank_is_clean(self):
        san = Sanitizer()
        queue = FakeQueue()
        _publish_and_observe(san, queue, n=2)
        san.slot_consume(queue, NIC, 0, FakeItem(), 4.0, True)
        san.slot_consume(queue, NIC, 1, FakeItem(), 4.0, True)
        san.slot_consume(queue, NIC, 2, None, 4.0, False, blank=True)
        san.slot_consume(queue, NIC, 3, None, 4.0, False, blank=True)
        assert san.total == 0


class TestQueueReset:
    def test_reset_clears_stale_state(self):
        san = Sanitizer()
        queue = FakeQueue()
        _publish_and_observe(san, queue)
        queue.tail = 4
        san.queue_reset(queue)
        # Fresh traffic after a watchdog reset is clean.
        _publish_and_observe(san, queue, base=4)
        for i in range(4, 8):
            san.slot_consume(queue, NIC, i, FakeItem(), 20.0, True)
        assert san.total == 0


class TestBufferOwnership:
    def _buf(self, addr=0x20000):
        buf = Buffer(addr=addr, capacity=2048)
        buf._allocated = True
        return buf

    def test_use_after_free(self):
        san = Sanitizer()
        buf = self._buf()
        san.pool_alloc(None, HOST, [buf])
        # Mirror the pool: hook fires before the allocated flag flips.
        san.pool_free(None, NIC, buf)
        buf._allocated = False
        assert san.total == 0
        san.buf_access(HOST, buf, write=True)
        assert san.counts["use-after-free"] == 1
        v = san.violations[0]
        assert v.addr == buf.addr
        assert "freed by nic-q0" in v.message

    def test_double_free(self):
        san = Sanitizer()
        buf = self._buf()
        san.pool_alloc(None, HOST, [buf])
        san.pool_free(None, HOST, buf)
        buf._allocated = False
        san.pool_free(None, HOST, buf)
        assert san.counts["double-free"] == 1
        assert f"buffer {buf.buf_id}" in san.violations[0].message

    def test_access_while_inflight(self):
        san = Sanitizer()
        queue = FakeQueue(grouped=False)
        buf = self._buf()
        san.pool_alloc(None, HOST, [buf])
        san.slot_publish(queue, HOST, 0, FakeItem(buf=buf), visible=0.0)
        san.buf_access(HOST, buf, write=True)
        assert san.counts["use-after-free"] == 1
        assert "in flight on txq0" in san.violations[0].message
        # Consumption transfers ownership; access is clean again.
        san.signal_observe(queue, NIC, 0, 1.0)
        san.slot_consume(queue, NIC, 0, FakeItem(buf=buf), 1.0, True)
        san.buf_access(NIC, buf, write=False)
        assert san.total == 1

    def test_owned_access_is_clean(self):
        san = Sanitizer()
        buf = self._buf()
        san.pool_alloc(None, HOST, [buf])
        san.buf_access(HOST, buf, write=True)
        san.buf_access(HOST, buf, write=False)
        assert san.total == 0


class TestWriterHoming:
    def test_metadata_read_flags(self):
        san = Sanitizer()
        region = FakeRegion("txq0_ring", home=1)
        san.spec_read(8.0, 100, region, NIC, write=False)
        assert san.counts["writer-homing"] == 1
        v = san.violations[0]
        assert v.addr == 100 * 64
        assert v.sim_time == 8.0
        assert "txq0_ring" in v.message

    def test_writer_access_exempt(self):
        san = Sanitizer()
        san.spec_read(8.0, 100, FakeRegion("txq0_ring", 0), HOST, write=True)
        assert san.total == 0

    def test_payload_and_pool_meta_exempt(self):
        assert "pool_meta" not in METADATA_CLASSES
        san = Sanitizer()
        san.spec_read(8.0, 5, FakeRegion("pool", 0), HOST, write=False)
        san.spec_read(8.0, 6, FakeRegion("pool_meta", 0), HOST, write=False)
        assert san.total == 0

    def test_one_retained_finding_per_line(self):
        san = Sanitizer()
        region = FakeRegion("rxq0_ring", home=0)
        san.spec_read(1.0, 7, region, HOST, write=False)
        san.spec_read(2.0, 7, region, HOST, write=False)
        assert san.counts["writer-homing"] == 2
        assert len(san.violations) == 1


class TestStrictMode:
    def test_first_violation_raises_with_structure(self):
        san = Sanitizer(strict=True)
        queue = FakeQueue()
        with pytest.raises(SanitizerError) as info:
            san.slot_consume(queue, NIC, 5, FakeItem(), 3.25, True)
        exc = info.value
        assert exc.rule == "read-before-signal"
        assert exc.addr == queue.line_addr(5)
        assert exc.agents == ("nic-q0",)
        assert exc.sim_time == 3.25


class TestReport:
    def test_schema_and_roundtrip(self, tmp_path):
        san = Sanitizer()
        queue = FakeQueue()
        san.slot_consume(queue, NIC, 5, FakeItem(), 3.0, True)
        report = san.report(config={"command": "test"})
        assert report["schema"] == SANITIZE_SCHEMA
        assert report["total"] == 1
        assert report["counts"] == {"read-before-signal": 1}
        assert not report["truncated"]
        path = str(tmp_path / "san.json")
        export_doc(report, path)
        assert load_doc(path, SANITIZE_SCHEMA) == report

    def test_tables_render(self):
        san = Sanitizer()
        queue = FakeQueue()
        san.slot_consume(queue, NIC, 5, FakeItem(), 3.0, True)
        report = san.report()
        assert "read-before-signal" in format_rule_summary(report)
        assert "0x8040" in format_violation_table(report)
        assert "No sanitizer findings." in format_violation_table(
            Sanitizer().report()
        )

    def test_max_findings_caps_retention_not_counts(self):
        san = Sanitizer(max_findings=2)
        queue = FakeQueue(grouped=False)
        for i in range(5):
            san.slot_consume(queue, NIC, 10 + 2 * i, FakeItem(), 1.0, True)
        assert san.counts["read-before-signal"] == 5
        assert len(san.violations) == 2
        assert san.report()["truncated"]


# ----------------------------------------------------------------------
# System-level scenarios
# ----------------------------------------------------------------------
def _sanitized_loopback(config=None, n_packets=300, sanitizer=None):
    obs = Observability(sanitizer=sanitizer) if sanitizer is not None else None
    setup = build_interface(icx(), InterfaceKind.CCNIC, config=config, obs=obs)
    result = run_point(setup, 64, n_packets, inflight=32, obs=obs)
    assert result.received == n_packets
    return setup


class TestCleanRuns:
    def test_default_loopback_zero_findings(self):
        san = Sanitizer()
        _sanitized_loopback(sanitizer=san)
        assert san.total == 0
        assert san.events > 0

    def test_register_signaling_zero_findings(self):
        config = CcnicConfig(
            ring_slots=1024, recycle_stack_max=1024, inline_signals=False
        )
        san = Sanitizer()
        _sanitized_loopback(config=config, sanitizer=san)
        assert san.total == 0

    def test_strict_clean_run_does_not_raise(self):
        _sanitized_loopback(sanitizer=Sanitizer(strict=True))


class TestSeededWriterHomingViolation:
    def test_reader_homed_rings_detected(self):
        config = CcnicConfig(
            ring_slots=1024, recycle_stack_max=1024, writer_homed_rings=False
        )
        san = Sanitizer()
        _sanitized_loopback(config=config, sanitizer=san)
        assert san.counts.get("writer-homing", 0) > 0
        regions = {v.location for v in san.violations}
        assert any("ring" in r for r in regions)


class TestFingerprintInvariance:
    """Sanitized runs must be bit-identical to unsanitized ones."""

    def _fingerprint(self, sanitizer=None):
        setup = _sanitized_loopback(sanitizer=sanitizer)
        if sanitizer is not None:
            # The sanitizer watched the memoized plan path.
            assert setup.system.fabric._plans
        return _fingerprint(_system_snapshot(setup.system))

    def test_attached_vs_detached(self):
        assert self._fingerprint() == self._fingerprint(Sanitizer())
