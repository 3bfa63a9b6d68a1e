"""Exception types shared across the package, and the one reader of input
text files, which raises them."""


class ProtAgentError(Exception):
    """Base class for all package errors."""


class EmptyInputError(ProtAgentError):
    """Raised when an input that must contain data is empty."""


class EmptySequenceError(ProtAgentError):
    """Raised when a sequence is empty after normalization."""


class InvalidResidueError(ProtAgentError):
    """Raised when a sequence contains a character outside the alphabet."""

    def __init__(self, message, char=None, line=None):
        super().__init__(message)
        self.char = char
        self.line = line


class UndefinedCompositionError(ProtAgentError):
    """Raised when a composition statistic is undefined (e.g. all-X sequence)."""


class EmptyIndexError(ProtAgentError):
    """Raised when a homology search is attempted against an empty index."""


class MissingAnnotationError(ProtAgentError):
    """Raised when a hit accession has no annotation in the store."""


class ProfileParseError(ProtAgentError):
    """Raised for malformed profile-HMM library text."""


class MalformedProfileError(ProfileParseError):
    """Raised when a profile record is missing required header fields."""


class TruncatedProfileError(ProfileParseError):
    """Raised when a profile has fewer emission rows than its stated length."""


class EmptyLibraryError(ProtAgentError):
    """Raised when a domain scan is attempted with no profiles."""


class DegenerateWindowError(ProtAgentError):
    """Raised when a sliding window is too large for the sequence."""


class SchemaError(ProtAgentError):
    """Raised when an on-disk record is missing required fields."""


class AlignmentMismatchError(ProtAgentError):
    """Raised when evaluation cases and session results cannot be paired."""


class EmptyReferenceError(ProtAgentError):
    """Raised when a metric reference tokenizes to nothing."""


class BackendError(ProtAgentError):
    """Raised when a chat backend cannot produce an assistant message."""


class ConfigError(ProtAgentError):
    """Raised for unusable runtime configuration."""


def read_text(path: str, error: type[ProtAgentError] = SchemaError) -> str:
    """The text of a UTF-8 file, with universal newlines. A file that is not
    UTF-8 raises `error` naming the file; OSError passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from exc
