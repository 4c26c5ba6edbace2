"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class GuardError(RuntimeError):
    """An enumeration would exceed the configured state-space guard."""
