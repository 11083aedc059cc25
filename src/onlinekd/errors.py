"""Exception types shared across the package."""


class OnlineKdError(Exception):
    """Base class for all package errors."""


class ConfigError(OnlineKdError):
    """Invalid configuration; message names the offending field."""


class DivergenceError(OnlineKdError):
    """Non-finite value surfaced during training or inference.

    Carries the job of the diverging model; the message names the layer.
    """

    def __init__(self, message: str, *, job: str | None = None):
        super().__init__(message)
        self.job = job


class StoreError(OnlineKdError):
    """Label store failure (I/O, protocol misuse)."""


class StoreCorruptionError(StoreError):
    """Checksum or structural validation failed on a store file."""


class WriterLockError(StoreError):
    """A second writer attempted to open an already-locked store."""


class SchemaError(OnlineKdError):
    """A CSV or config document does not match the documented schema."""
