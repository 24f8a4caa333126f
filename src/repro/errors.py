"""Exception hierarchy for the CC-NIC reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base type at an API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class AddressSpaceError(ReproError):
    """Address-space or region misuse (bad address, overlap, exhaustion)."""


class CoherenceError(ReproError):
    """The coherence protocol reached an inconsistent state."""


class InterconnectError(ReproError):
    """Invalid link configuration or message."""


class NicError(ReproError):
    """NIC interface misuse: bad descriptor, full ring, bad burst."""


class PoolError(NicError):
    """Buffer-pool misuse: double free, exhaustion, foreign buffer."""


class RingTimeoutError(NicError):
    """A descriptor ring made no progress within the recovery budget."""


class FaultError(ReproError):
    """Invalid fault plan, fault event, or fault-injector misuse."""


class ConfigError(ReproError, ValueError):
    """Invalid platform, interface, or tool configuration.

    Also a :class:`ValueError`: configuration mistakes are bad argument
    values, so callers guarding stdlib-style (``except ValueError``)
    keep working while everything stays catchable at :class:`ReproError`.
    """


class WorkloadError(ReproError):
    """Invalid workload parameters."""


class CheckError(ReproError):
    """Base class for ``repro.check`` findings (sanitizer and linter)."""


class SanitizerError(CheckError):
    """A protocol violation detected by the runtime sanitizer.

    Raised by fail-fast (``--sanitize=strict``) runs. Carries the
    structured finding so handlers need not re-parse the message:

    Attributes:
        rule: Violation rule id (e.g. ``read-before-signal``).
        addr: Byte address of the violating cache line, when known.
        agents: Names of the agents involved.
        sim_time: Simulated nanoseconds at the violation.
    """

    def __init__(self, message, rule=None, addr=None, agents=(), sim_time=None):
        super().__init__(message)
        self.rule = rule
        self.addr = addr
        self.agents = tuple(agents)
        self.sim_time = sim_time


class LintError(CheckError):
    """The static lint pass was misconfigured or could not run."""


class ModelCheckError(CheckError):
    """The protocol model checker or schedule explorer found a violation.

    Raised when a small-scope enumeration of the coherence fabric (or a
    permuted cohort schedule) breaks a checked invariant. Carries the
    structured counterexample so handlers can replay it without parsing
    the message:

    Attributes:
        invariant: Violated invariant id (e.g. ``swmr``, ``stale-read``,
            ``transition-unknown``, ``cost-mismatch``,
            ``fingerprint-diverged``).
        sequence: The op sequence (or schedule plan) that reproduces the
            violation, as a tuple of JSON-safe steps.
        step: Index into ``sequence`` of the violating step, when known.
        detail: Free-form structured context (expected/observed values).
    """

    def __init__(self, message, invariant=None, sequence=(), step=None, detail=None):
        super().__init__(message)
        self.invariant = invariant
        self.sequence = tuple(sequence)
        self.step = step
        self.detail = dict(detail or {})
