"""Exception hierarchy shared across the package, and the input checks that raise it."""
import json
from pathlib import Path
from types import NoneType


class BotforgeError(Exception):
    """Base class for all package errors."""


class SchemaError(BotforgeError):
    """A document or config value violates its schema.

    Carries the field path and the offending value so callers can report
    exactly what was wrong.
    """

    def __init__(self, path: str, message: str, value=None):
        self.path = path
        self.value = value
        super().__init__(f"{path}: {message}" + (f" (got {value!r})" if value is not None else ""))


class ValidationError(BotforgeError):
    """A populated object violates a domain invariant."""


class BackendError(BotforgeError):
    """A content backend failed after exhausting its retries."""

    def __init__(self, message: str, raw_text: str | None = None):
        self.raw_text = raw_text
        super().__init__(message)


class ManifestError(BotforgeError):
    """An output directory's manifest is missing, corrupt, or inconsistent."""


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; SchemaError naming the file when it is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"not valid UTF-8: {exc}") from exc


def read_json(path: str | Path):
    """The JSON document of a UTF-8 file; SchemaError naming the file when it is not one."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(str(path), "not valid JSON: nested too deeply") from None


def _check_types(doc: dict, types: dict, path: str) -> None:
    """SchemaError for the first value of doc whose type is not one of its exact types."""
    for key, allowed in types.items():
        try:
            value = doc[key]
        except KeyError:  # not a membership test first: this runs for every key of every tweet
            continue
        if type(value) not in allowed:
            name = " | ".join("None" if t is NoneType else t.__name__ for t in allowed)
            raise SchemaError(f"{path}.{key}", f"must be {name}", value)
