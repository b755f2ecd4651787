"""Exception hierarchy shared across the package."""


class QuatKGEError(Exception):
    """Base class for all errors raised by this package."""


class ZeroQuaternionError(QuatKGEError):
    """A quaternion cannot be normalized or scored.

    Raised for a coordinate of (near-)zero magnitude and for embeddings or
    scores that are not finite.
    """


class ParseError(QuatKGEError):
    """A triple file line could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ShapeMismatchError(QuatKGEError):
    """A checkpoint's dimensions disagree with the dataset or configuration."""


class CheckpointError(QuatKGEError):
    """A checkpoint file is malformed or has an unsupported version."""
