"""Exception hierarchy and configuration validation."""

import pytest

from repro import errors
from repro.core import CcnicConfig, DescLayout
from repro.errors import ConfigError


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for name in ("SimulationError", "AddressSpaceError", "CoherenceError",
                     "InterconnectError", "NicError", "PoolError",
                     "ConfigError", "WorkloadError", "CheckError",
                     "SanitizerError", "LintError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_pool_error_is_nic_error(self):
        assert issubclass(errors.PoolError, errors.NicError)

    def test_check_errors_are_check_errors(self):
        assert issubclass(errors.SanitizerError, errors.CheckError)
        assert issubclass(errors.LintError, errors.CheckError)

    def test_config_error_still_a_value_error(self):
        # Pre-taxonomy call sites (and their tests) catch ValueError.
        assert issubclass(errors.ConfigError, ValueError)

    def test_catchable_at_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.PoolError("boom")

    def test_sanitizer_error_structured_attrs(self):
        exc = errors.SanitizerError(
            "double reap", rule="double-reap", addr=0x1000,
            agents=("nic-q0", "host-q0"), sim_time=12.5,
        )
        assert exc.rule == "double-reap"
        assert exc.addr == 0x1000
        assert exc.agents == ("nic-q0", "host-q0")
        assert exc.sim_time == 12.5

    def test_sanitizer_error_defaults(self):
        exc = errors.SanitizerError("bare")
        assert exc.rule is None
        assert exc.addr is None
        assert exc.agents == ()
        assert exc.sim_time is None


class TestCcnicConfig:
    def test_defaults_are_fully_optimized(self):
        config = CcnicConfig()
        assert config.inline_signals
        assert config.desc_layout is DescLayout.OPT
        assert config.buf_recycling
        assert config.small_buffers
        assert config.nic_buffer_mgmt
        assert config.nonseq_alloc
        assert config.writer_homed_rings
        assert config.caching_stores

    @pytest.mark.parametrize("field,value", [
        ("ring_slots", 0),
        ("ring_slots", 6),          # not a multiple of 4
        ("pool_buffers", 0),
        ("buf_size", 60),           # not a multiple of 64
        ("small_buf_size", 100),    # does not divide buf_size
        ("tx_batch", 0),
        ("rx_batch", -1),
        ("wire_delay_ns", -0.1),
        ("small_threshold", 256),   # exceeds small_buf_size
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            CcnicConfig(**{field: value})

    def test_frozen(self):
        config = CcnicConfig()
        with pytest.raises(Exception):
            config.ring_slots = 4  # type: ignore[misc]

    def test_layout_descs_per_line(self):
        assert DescLayout.OPT.descs_per_line == 4
        assert DescLayout.PACK.descs_per_line == 4
        assert DescLayout.PAD.descs_per_line == 1


class TestCostModelValidation:
    def test_ordering_constraints(self):
        from repro.coherence import CostModel
        with pytest.raises(ConfigError):
            CostModel(l2_hit=100.0, local_cache=48.0, local_dram=72.0,
                      remote_dram=144.0, remote_cache_writer_homed=114.0,
                      remote_cache_reader_homed=119.0, local_invalidate=30.0,
                      remote_invalidate=100.0)  # l2_hit > local_dram
        with pytest.raises(ConfigError):
            CostModel(l2_hit=5.0, local_cache=48.0, local_dram=200.0,
                      remote_dram=144.0, remote_cache_writer_homed=114.0,
                      remote_cache_reader_homed=119.0, local_invalidate=30.0,
                      remote_invalidate=100.0)  # local > remote DRAM

    def test_scaled_remote(self):
        from repro.coherence import CostModel
        base = CostModel(l2_hit=5.0, local_cache=48.0, local_dram=72.0,
                         remote_dram=144.0, remote_cache_writer_homed=114.0,
                         remote_cache_reader_homed=119.0, local_invalidate=30.0,
                         remote_invalidate=100.0)
        scaled = base.scaled_remote(1.5)
        assert scaled.remote_dram == 216.0
        assert scaled.local_dram == 72.0
        with pytest.raises(ConfigError):
            base.scaled_remote(0.0)

    def test_nt_efficiency_bounds(self):
        from repro.coherence import CostModel
        with pytest.raises(ConfigError):
            CostModel(l2_hit=5.0, local_cache=48.0, local_dram=72.0,
                      remote_dram=144.0, remote_cache_writer_homed=114.0,
                      remote_cache_reader_homed=119.0, local_invalidate=30.0,
                      remote_invalidate=100.0, nt_link_efficiency=1.5)


class TestNicSpecValidation:
    def test_bad_values_rejected(self):
        from repro.platform.nicspecs import NicHardwareSpec
        with pytest.raises(ConfigError):
            NicHardwareSpec(name="x", pcie_one_way_ns=0, mmio_read_rtt_ns=1,
                            dma_rtt_ns=1, pipeline_ns=1, pps_capacity=1,
                            line_rate_gbps=1)
        with pytest.raises(ConfigError):
            NicHardwareSpec(name="x", pcie_one_way_ns=1, mmio_read_rtt_ns=1,
                            dma_rtt_ns=1, pipeline_ns=1, pps_capacity=0,
                            line_rate_gbps=1)
