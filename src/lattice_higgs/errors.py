"""Exception types shared across the package, and the state-space guard."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class GuardError(RuntimeError):
    """An enumeration would exceed the configured state-space guard."""


# the most states an exact enumeration, or entries a sampler's table, may hold
STATE_GUARD = 1 << 26
