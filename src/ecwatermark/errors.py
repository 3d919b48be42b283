"""Exception and warning types shared across the package."""


class EcwmError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(EcwmError):
    """A point-enumeration bound was exceeded."""


class InputError(EcwmError):
    """A runtime signal value is outside the supported domain."""


class ConfigError(EcwmError):
    """A configuration file or object failed validation."""

    def __init__(self, message: str, path: str | None = None):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ParameterError(EcwmError):
    """Filter taps outside the admissible parameter set."""


class DivergenceError(EcwmError):
    """A simulated block's state exceeded the overflow guard."""

    def __init__(self, block: str, step: int, magnitude: float):
        self.block = block
        self.step = step
        self.magnitude = magnitude
        super().__init__(
            f"state of block '{block}' reached magnitude {magnitude:.3e} at step {step}"
        )


class ConfigurationWarning(UserWarning):
    """Accepted but suspicious configuration (degenerate scalar, weak tap floor)."""
