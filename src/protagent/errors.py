"""Exception types shared across the package, and the readers of input
files that raise them: `read_text` for any UTF-8 file, `parse_file` for a
text format with its own parser, `read_json` and `read_jsonl` for JSON and
JSON-lines files, `check_unique`, the one check for a key that an input
repeats, and `decode_json`, the one JSON decoder of files and of the wire.
`to_json` is the one serialiser of results and `write_json` the one writer
of JSON files."""

import json
import re


class ProtAgentError(Exception):
    """Base class for all package errors: what the CLI boundary, the tool
    executor and the readers catch."""


class SchemaError(ProtAgentError):
    """An input (a file, record, sequence, profile, setting or call
    argument) breaks a rule."""


class BackendError(ProtAgentError):
    """A chat backend cannot produce an assistant message; the session ends
    with `backend_error`."""


def read_text(path: str) -> str:
    """The text of a UTF-8 file, with universal newlines. A file that is not
    UTF-8 raises SchemaError naming the file; OSError passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc


def parse_file(path: str, parse):
    """`parse(text)` of a UTF-8 file; a SchemaError from `parse` is raised
    again prefixed "{path}: ", as read_json does."""
    text = read_text(path)
    try:
        return parse(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def check_unique(seen: dict, key, at: str, name: str) -> None:
    """Record `key` (a `name`, such as "accession") as found `at` a position
    ("on line 3"). A key recorded before raises SchemaError naming it and its
    first position; the caller's message names the second."""
    first = seen.setdefault(key, at)
    if first != at:
        raise SchemaError(f"duplicate {name} {key!r} (first {first})")


def _unique_keys(pairs: list) -> dict:
    """The JSON decoder's object hook: a repeated key is a SchemaError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: dict = {}
        for n, (key, _) in enumerate(pairs, start=1):
            check_unique(seen, key, f"at key {n}", "key")
    return obj


# json.loads given a hook builds a decoder per call; this one is built once.
_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


# A JSON escape of a UTF-16 surrogate, \uD800 to \uDFFF; an escaped backslash
# before "u" matches too, which costs only the exact check below.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def decode_json(text: str):
    """The JSON value of text, decoded by every file reader and for the
    wire. An object that repeats a key, or a string holding a lone surrogate
    (it decodes, but no UTF-8 output such as a trace, a report or the
    terminal can write it), is a SchemaError; text that is not JSON raises
    json.JSONDecodeError, and nesting too deep RecursionError."""
    obj = _decode(text)
    # Only a surrogate escape in text can make a lone surrogate (an escaped
    # pair decodes to one character), so other text is not walked.
    if not _SURROGATE_ESCAPE.search(text):
        return obj
    stack = [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SchemaError(f"lone surrogate {exc.object[exc.start]!r} in a string; UTF-8 cannot encode it") from None
        elif isinstance(value, dict):
            stack += value
            stack += value.values()
        elif isinstance(value, list):
            stack += value
    return obj


def read_jsonl(path: str, what: str, parse) -> list:
    """`parse(line_no, obj)` of each JSON object of a JSON-lines file, in
    order; blank lines are skipped but counted. A line that decode_json
    refuses or that is not an object, and any ProtAgentError from `parse`,
    raises SchemaError prefixed "{what} line N"."""
    out = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = decode_json(line)
            if isinstance(obj, dict):
                out.append(parse(line_no, obj))
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise SchemaError(f"{what} line {line_no} is not valid JSON: {exc}") from exc
        except ProtAgentError as exc:
            raise SchemaError(f"{what} line {line_no}: {exc}") from exc
        if not isinstance(obj, dict):
            raise SchemaError(f"{what} line {line_no} is not a JSON object")
    return out


def read_json(path: str):
    """The JSON value of a whole file, by decode_json; any fault is a
    SchemaError naming the file."""
    text = read_text(path)
    try:
        obj = decode_json(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return obj


# What to_json returns as it is; checked first, as most values are these.
_JSON_VALUES = (str, int, float, dict, list, type(None))


def to_json(obj):
    """The JSON value of obj: a dataclass is an object of its fields in
    declaration order and a tuple is a list, each item converted in turn.
    Anything else (a dict, list, string, number or None) is returned as it
    is: payloads and audit entries are JSON already, so they are not walked."""
    if isinstance(obj, _JSON_VALUES):
        return obj
    if isinstance(obj, tuple):
        return [to_json(item) for item in obj]
    fields = getattr(type(obj), "__dataclass_fields__", None)
    return obj if fields is None else {name: to_json(getattr(obj, name)) for name in fields}


def write_json(path: str, obj) -> None:
    """Write obj as a JSON file: UTF-8, indented by 2, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
