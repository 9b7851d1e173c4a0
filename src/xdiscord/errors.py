"""Exception types shared across the package.

The CLI maps these onto process exit codes, so computational code should
raise the most specific one that applies rather than bare ValueError:
ConfigError exits 2, RootFindError and ConvergenceError exit 3, and
DomainError and InvalidStateError exit 4.
"""


class ConfigError(ValueError):
    """Command-line or config-file input could not be resolved into a valid run."""


class InvalidStateError(ValueError):
    """A state, parameter set, or derived quantity violates a physical invariant."""


class DomainError(ValueError):
    """Inputs fall outside the validity window of a closed-form expression."""


class RootFindError(RuntimeError):
    """The crossing time lies past the search horizon or outside the float range."""


class ConvergenceError(RuntimeError):
    """The brute-force oracle's Newton steps did not settle at the optimal basis."""

    def __init__(self, message, best_so_far=None):
        super().__init__(message)
        # best breakdown found before giving up, for diagnosis
        self.best_so_far = best_so_far
