"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates an operation's contract (bad shape, range, or label)."""


class StateError(RuntimeError):
    """The object is in a state the operation cannot act on (e.g. a one-node graph's margin)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries enough context to locate the run."""


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the line or key."""
