"""Exception types shared across the package.

Every failure mode that callers are expected to react to gets its own class,
so the CLI can map them onto distinct exit codes.
"""

from contextlib import contextmanager


class VmsnsError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(VmsnsError):
    """Invalid user input: bad config keys/values, unsupported degrees,
    size caps exceeded, inconsistent scenario combinations.

    ``messages`` collects every individual problem found so a bad config
    file is reported in full, not one key at a time.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class UsageError(VmsnsError):
    """Malformed command line (unknown subcommand, missing argument)."""


class SolverNonconvergence(VmsnsError):
    """Picard loop exhausted its iteration budget.

    Carries the last relative increment and the time ``t`` the failing
    step was advancing to, so the caller can report where the run died;
    the time names the step also when dt changes between steps.
    """

    def __init__(self, t, iterations, last_increment):
        self.t = t
        self.iterations = iterations
        self.last_increment = last_increment
        super().__init__(
            f"picard iteration did not converge in the step to t = {t:g}: "
            f"{iterations} iterations, last relative increment {last_increment:.3e}"
        )


class SolverDivergence(VmsnsError):
    """A non-finite value appeared in the solution (blow-up)."""


class InvariantViolation(VmsnsError):
    """A structural invariant failed: degenerate cell, lost orthogonality,
    non-symmetric operator where symmetry is required, corrupt ledger row.
    """


class InternalError(VmsnsError):
    """A linear solve or factorization that must succeed did not."""

    @staticmethod
    @contextmanager
    def from_factorization(message):
        """An InternalError reading ``message`` and the exception, for a
        sparse factorization in the block that meets a singular matrix
        (RuntimeError) or runs out of SuperLU's work space (SystemError)
        or of memory."""
        try:
            yield
        except (RuntimeError, SystemError, MemoryError) as exc:
            raise InternalError(f"{message}: {type(exc).__name__}: {exc}") from exc
