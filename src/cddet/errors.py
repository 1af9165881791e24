"""Exception hierarchy shared across the engine, and the readers' helpers that name the file at fault."""

import functools


class EngineError(Exception):
    """Base class for all engine failures."""


class DimensionError(EngineError):
    """Operand shapes do not satisfy an operation's contract."""


class DegenerateInputError(EngineError):
    """Input is degenerate (zero norm, empty score mass)."""


class ContractError(EngineError):
    """A caller violated a documented precondition."""


class ProtocolError(EngineError):
    """The incremental-session protocol was violated."""


class ConfigError(EngineError):
    """Invalid configuration or profile combination."""


class ParseError(EngineError):
    """Malformed persisted artifact; carries a line number when known, and
    the path of the file at fault once the code that read it names it."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.path = path


def names_its_file(read):
    """Make a reader put the path it is given (its first argument) on any ``ParseError`` it raises."""

    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ParseError as exc:
            exc.path = str(path)
            raise

    return reader


def read_text(path) -> str:
    """A file's text, as every command reads an input file: one that cannot be
    read (missing, a directory) or bytes that are not UTF-8 (with their
    line) raise ``ParseError`` naming the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read ({exc.strerror})", path=path) from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", line=data.count(b"\n", 0, exc.start) + 1, path=path) from None


class NumericsError(EngineError):
    """A tensor picked up non-finite entries."""
