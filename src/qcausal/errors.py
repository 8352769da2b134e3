"""Shared exception types.

Configuration problems (bad files, bad CLI values, inconsistent parameters)
raise ConfigError; violations of internal model invariants raise
InvariantViolation.  The CLI maps these to distinct exit codes.
"""

import re
import sys


class ConfigError(ValueError):
    """A configuration value or file is invalid.  The library checks each
    input once, where it is taken, naming each parameter it refuses by a
    qualified name (wave.sigma), which a front end may rename (the CLI to
    its flag); param is the parameter whose name starts the message."""

    def __init__(self, message):
        super().__init__(message)
        qualified = re.match(r"[a-z_]+\.(\w+)", message)
        self.param = qualified and qualified[1]


class ParseError(ConfigError):
    """A text input failed to parse.  Carries a 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


def check_array_length(n, what: str):
    """Raise ConfigError, before anything is allocated, when n values (an int
    or a float count) are more than one float64 numpy array can address."""
    if not n <= sys.maxsize // 8:
        raise ConfigError(f"{what} = {n} is more values than one array can hold")


class InvariantViolation(RuntimeError):
    """An internal model invariant was broken during a run."""


class DegenerateObjectError(InvariantViolation):
    """An operation would leave a quantum object with no usable paths."""


class UnknownObjectError(KeyError):
    """An object id was not found in the system state."""
