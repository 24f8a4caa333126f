"""Recovery policy shared by both driver families.

The paper's data plane has no recovery story — coherent memory never
loses a descriptor. Under injected faults it needs one, and the shape is
the classic NIC driver triad:

* **bounded retry with exponential backoff** — a full ring is normally
  transient backpressure; the driver retries submission with a doubling
  backoff and gives up (raising
  :class:`~repro.errors.RingTimeoutError`) once the budget is spent, at
  which point the application sheds the packets instead of crashing.
* **ring watchdog** — a wedged NIC leaves descriptors in the ring with
  the consumer cursor frozen. The watchdog detects "non-empty ring, no
  consumption progress for ``watchdog_ns``" and triggers a full queue
  reinitialization (abandoned descriptors reclaimed, device unwedged).
* **in-flight write-off** — packets that were on the wire during a
  reset are gone; the traffic generator writes them off as lost after
  ``inflight_timeout_ns`` so closed-loop windows refill.

All knobs live in one frozen :class:`RecoveryPolicy` so experiments can
sweep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.buffers import Buffer
from repro.core.results import TxResult
from repro.errors import FaultError, RingTimeoutError
from repro.workloads.packets import Packet


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunable recovery budgets (all times in simulated ns)."""

    #: First retry backoff after a zero-accept submission.
    backoff_base_ns: float = 500.0
    #: Backoff ceiling for the exponential doubling.
    backoff_cap_ns: float = 20_000.0
    #: Consecutive zero-accept submissions before RingTimeoutError.
    max_retries: int = 10
    #: No-progress interval after which the watchdog resets a queue.
    watchdog_ns: float = 60_000.0
    #: Age after which the generator writes off an in-flight packet.
    inflight_timeout_ns: float = 120_000.0

    def __post_init__(self) -> None:
        if self.backoff_base_ns <= 0:
            raise FaultError("backoff_base_ns must be positive")
        if self.backoff_cap_ns < self.backoff_base_ns:
            raise FaultError("backoff_cap_ns must be >= backoff_base_ns")
        if self.max_retries < 1:
            raise FaultError("max_retries must be >= 1")
        if self.watchdog_ns <= 0:
            raise FaultError("watchdog_ns must be positive")
        if self.inflight_timeout_ns <= 0:
            raise FaultError("inflight_timeout_ns must be positive")

    def backoff_ns(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise FaultError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_cap_ns, self.backoff_base_ns * (2.0 ** (attempt - 1)))


def first_instant(since: float, span: float) -> float:
    """The earliest time ``t`` at which ``t - since >= span`` holds.

    The recovery clocks test elapsed time by that float subtraction, and
    ``since + span`` can round to either side of where it first holds;
    stepping by ulps finds the exact boundary, so a poller that skips
    its idle steps stops before the first one at which a deadline fires.
    """
    t = since + span
    while t - since < span:
        t = math.nextafter(t, math.inf)
    while True:
        earlier = math.nextafter(t, -math.inf)
        if earlier - since < span:
            return t
        t = earlier


class RingWatchdog:
    """Detects a stalled descriptor ring by watching consumption progress.

    The driver feeds it ``(now, depth, consumed)`` each housekeeping
    pass; it reports a stall when the ring has stayed non-empty with an
    unchanged consumed count for at least ``policy.watchdog_ns``.
    """

    def __init__(self, policy: RecoveryPolicy) -> None:
        self.policy = policy
        self._last_consumed = -1
        self._stalled_since: float = -1.0

    def stalled(self, now: float, depth: int, consumed: int) -> bool:
        """Update progress state; True when the stall budget is exhausted."""
        if depth <= 0 or consumed != self._last_consumed:
            self._last_consumed = consumed
            self._stalled_since = now
            return False
        if self._stalled_since < 0:
            self._stalled_since = now
            return False
        return now - self._stalled_since >= self.policy.watchdog_ns

    def reset(self, now: float) -> None:
        """Restart the stall clock (called after a recovery action)."""
        self._last_consumed = -1
        self._stalled_since = now

    def quiet_until(self, depth: int) -> float:
        """When :meth:`stalled` would first fire on an unchanged ring.

        Valid right after a call that returned False, fed the same
        ``depth`` and consumed count from then on: an empty ring only
        restarts the stall clock (``inf``), a non-empty one fires once
        ``watchdog_ns`` has passed since the clock last started.
        """
        if depth <= 0:
            return math.inf
        return first_instant(self._stalled_since, self.policy.watchdog_ns)

    def skip(self, last: float, depth: int) -> None:
        """Replay :meth:`stalled` calls on an unchanged ring up to ``last``.

        Before :meth:`quiet_until`, such a call changes only the stall
        clock of an empty ring, restarting it at each call's time.
        """
        if depth <= 0:
            self._stalled_since = last


class RecoverableDriver:
    """Mixin giving a driver family the shared recovery machinery.

    Provides :meth:`configure_recovery` and the bounded-backoff
    :meth:`tx_submit`; subclasses supply ``tx_burst``/``free`` (the
    common burst API) plus their own ``watchdog`` / ring-reset logic,
    which is where the two families genuinely differ.
    """

    def _init_recovery_state(self) -> None:
        """Initialize recovery bookkeeping (call from ``__init__``)."""
        self.recovery: Optional[RecoveryPolicy] = None
        self._watchdog: Optional[RingWatchdog] = None
        self._tx_zero_accepts = 0
        self.tx_retries = 0
        self.tx_timeouts = 0
        self.watchdog_resets = 0
        self.reset_dropped = 0
        self._reset_losses = 0

    def _register_recovery_metrics(self, registry) -> None:
        registry.gauge(self.obs_name, "tx_retries", fn=lambda: float(self.tx_retries))
        registry.gauge(self.obs_name, "tx_timeouts", fn=lambda: float(self.tx_timeouts))
        registry.gauge(
            self.obs_name, "watchdog_resets", fn=lambda: float(self.watchdog_resets)
        )
        registry.gauge(
            self.obs_name, "reset_dropped", fn=lambda: float(self.reset_dropped)
        )

    def configure_recovery(self, policy: RecoveryPolicy) -> None:
        """Enable timeout/retry/watchdog handling with ``policy``'s budgets."""
        self.recovery = policy
        self._watchdog = RingWatchdog(policy)
        self._tx_zero_accepts = 0

    def tx_submit(
        self,
        entries: Sequence[Tuple[Buffer, Packet]],
        base_ns: float = 0.0,
    ) -> TxResult:
        """``tx_burst`` with bounded exponential-backoff retry.

        A zero-accept submission (full ring) is charged an exponential
        backoff, folded into the returned ``ns`` so the caller's next
        yield spans it — in a discrete-event loop the retry *must*
        happen on a later step, or the consumer never gets a chance to
        drain the ring. After ``max_retries`` consecutive zero-accepts
        the ring is declared dead and :class:`RingTimeoutError` is
        raised; the caller sheds the burst instead of spinning forever.
        """
        if self.recovery is None:
            return self.tx_burst(entries, base_ns=base_ns)
        tx = self.tx_burst(entries, base_ns=base_ns)
        if tx.count or not entries:
            self._tx_zero_accepts = 0
            return tx
        self._tx_zero_accepts += 1
        if self._tx_zero_accepts > self.recovery.max_retries:
            self._tx_zero_accepts = 0
            self.tx_timeouts += 1
            raise RingTimeoutError(
                f"queue {self.queue_index}: TX ring accepted nothing for "
                f"{self.recovery.max_retries} consecutive attempts"
            )
        self.tx_retries += 1
        backoff = self.recovery.backoff_ns(self._tx_zero_accepts)
        return TxResult(0, tx.ns + backoff)

    def _free_abandoned(self, bufs: Sequence[Buffer]) -> float:
        """Free reclaimed buffers exactly once each.

        Multi-segment packets appear once per descriptor, chains must be
        expanded, external (application-owned) segments are not pool
        memory, and a buffer may already have been freed through another
        path — so dedupe by identity and honor the allocation flag.
        """
        seen = set()
        unique: List[Buffer] = []
        for buf in bufs:
            for seg in buf.segments():
                if id(seg) in seen or seg.external or not seg._allocated:
                    continue
                seen.add(id(seg))
                unique.append(seg)
        if not unique:
            return 0.0
        return self.free(unique)
