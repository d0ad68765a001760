"""Crash, failover, batch-fault and abort recovery — differential checks.

Every test here runs a real system plus the exact oracle through the
:class:`~repro.validate.differential.DifferentialHarness` under a fixed
fault plan and asserts *completeness*: the joined-pair multiset is
identical with multiplicity one despite the injected failures.  The
harness's invariant guards (conservation, colocation, recovery
consistency) are active throughout.
"""

import pytest

from repro.errors import ConfigError, ValidationError
from repro.validate import GuardConfig, InvariantGuards
from repro.validate.differential import DifferentialHarness
from repro.validate.workloads import validation_config


def _run(fault_spec, *, system="fastjoin", seed=3, ticks=300, **kw):
    harness = DifferentialHarness(
        system, seed=seed, ticks=ticks, n_instances=4,
        tuples_per_stream=2_400, fault_spec=fault_spec, **kw,
    )
    report = harness.run()
    return harness, report


class TestCrashRecovery:
    def test_crash_restart_preserves_completeness(self):
        harness, report = _run("crash:R0@1+0.5;ckpt=0.25")
        assert report.ok, report.summary()
        inj = harness.runtime.faults
        assert inj.n_crashes == 1
        assert inj.n_recoveries == 1
        assert inj.n_checkpoints > 0

    def test_failover_hands_state_to_survivor(self):
        harness, report = _run("failover:S1@0.8+0.5;ckpt=0.25")
        assert report.ok, report.summary()
        inj = harness.runtime.faults
        assert inj.n_failovers == 1
        reasons = [
            ev.reason for ev in harness.runtime.metrics.migration_events()
        ]
        assert "failover" in reasons

    def test_crash_on_baseline_system(self):
        _, report = _run("crash:S2@0.6+0.4;ckpt=0.25", system="bistream")
        assert report.ok, report.summary()

    def test_unfired_actions_are_counted_not_lost(self):
        # t=500 is far beyond the ~1.2s emission window of this workload.
        harness, report = _run("crash:R0@500+1")
        assert report.ok
        assert harness.runtime.faults.summary()["n_unfired"] == 1


class TestBatchFaults:
    def test_delay_and_drop_preserve_completeness(self):
        harness, report = _run("delay:R@0.6+0.3;drop:S@0.9")
        assert report.ok, report.summary()
        assert harness.runtime.faults.n_batch_faults == 2

    def test_delay_is_mirrored_into_the_oracle(self):
        """Pair counts only match because the oracle shifts the same
        batch's visible time — equality is the evidence of mirroring."""
        _, plain = _run(None)
        _, delayed = _run("delay:R@0.5+0.4")
        assert plain.ok and delayed.ok
        assert delayed.results_system == delayed.pairs_oracle


class TestMigrationAbort:
    def test_select_and_transfer_aborts_roll_back(self):
        harness, report = _run("abort:R@0.4/select;abort:R@0.7/transfer")
        assert report.ok, report.summary()
        assert harness.runtime.faults.n_aborts == 2
        # rolled-back state still satisfies checkpoint+WAL == live store
        for inst in harness.runtime.instances:
            assert inst.checkpointer.verify() is None

    def test_reroute_abort_raises_replayable_error(self):
        with pytest.raises(ValidationError) as exc_info:
            _run("abort:R@0.4/reroute")
        exc = exc_info.value
        assert exc.invariant == "migration-abort"
        assert "fault_plan" in exc.context
        assert "abort:R@0.4/reroute" in exc.context["fault_plan"]


class TestConfiguration:
    def test_windowed_stores_reject_fault_injection(self):
        with pytest.raises(ConfigError, match="window"):
            validation_config(
                kind="zipf", n_instances=4, seed=0,
                fault_spec="crash:R0@1+0.5", window_subwindows=6,
            )

    def test_out_of_range_instance_rejected_at_bind(self):
        with pytest.raises(ConfigError, match="instances"):
            _run("crash:R9@1+0.5")


class TestDeterminism:
    def test_same_seed_and_plan_bit_identical(self):
        spec = "failover:R1@0.7+0.4;delay:S@0.5+0.2;ckpt=0.25"
        a_h, a = _run(spec, seed=5)
        b_h, b = _run(spec, seed=5)
        assert a.ok and b.ok
        assert a.results_system == b.results_system
        assert a.n_migrations == b.n_migrations
        am, bm = a_h.runtime.metrics, b_h.runtime.metrics
        assert [e.keys for e in am.migration_events()] == \
               [e.keys for e in bm.migration_events()]
        assert a_h.runtime.faults.log == b_h.runtime.faults.log


def _guarded_runtime():
    """A faulted fastjoin runtime after 120 ticks, plus detached guards
    that pass on it."""
    harness = DifferentialHarness(
        "fastjoin", seed=3, ticks=120, n_instances=4,
        tuples_per_stream=2_400, fault_spec="ckpt=0.25", guards=False,
    )
    for _ in range(120):
        harness.runtime.step()
    guards = InvariantGuards(seed=3, config=GuardConfig())
    guards._runtime = harness.runtime
    guards.check_recovery(harness.runtime)          # clean: no raise
    return harness.runtime, guards


def _drop_a_stored_key(store):
    key = next(iter(store.counts_snapshot()))
    assert store.remove_keys({key})


class TestRecoveryGuard:
    def test_guard_catches_store_checkpoint_divergence(self):
        """A store mutation that bypasses the WAL breaks the standing
        invariant live == checkpoint + WAL; check_recovery must fire."""
        runtime, guards = _guarded_runtime()
        runtime.instances[0].store.merge_counts({999_983: 3})
        with pytest.raises(ValidationError) as exc_info:
            guards.check_recovery(runtime)
        assert exc_info.value.invariant == "recovery-consistency"

    @pytest.mark.parametrize(
        "diverge",
        [
            pytest.param(lambda s: s.merge_counts({-7: 3}), id="negative-key"),
            pytest.param(lambda s: s.merge_counts({1 << 23: 2}),
                         id="beyond-dense-cap"),
            pytest.param(_drop_a_stored_key, id="dense-count-down"),
        ],
    )
    def test_guard_catches_overflow_and_shrinking_divergence(self, diverge):
        """Overflow keys live outside the dense table and a count can go
        down as well as up: the array comparison must see both."""
        runtime, guards = _guarded_runtime()
        diverge(runtime.instances[0].store)
        with pytest.raises(ValidationError) as exc_info:
            guards.check_recovery(runtime)
        assert exc_info.value.invariant == "recovery-consistency"
