"""Runtime configuration: key=value config files with flag overrides.

API keys are never read from config files; the config only names the
environment variable that holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import SchemaError, read_text


@dataclass
class RunConfig:
    backend: str = "scripted"  # remote | scripted
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "PROTAGENT_API_KEY"
    script: str = ""
    temperature: float = 0.0
    max_tokens: int = 4096
    max_turns: int = 12
    tool_budget: int = 10
    store_fasta: str = ""
    store_annotations: str = ""
    store_json: str = ""
    hmm_library: str = ""
    run_dir: str = "runs"
    workers: int = 1

    def validate(self) -> None:
        if self.backend not in ("remote", "scripted"):
            raise SchemaError(f"backend must be 'remote' or 'scripted', got {self.backend!r}")
        if self.backend == "remote" and not (self.endpoint and self.model):
            raise SchemaError("remote backend requires both endpoint and model")
        if self.backend == "scripted" and not self.script:
            raise SchemaError("scripted backend requires a script file")
        if self.workers < 1:
            raise SchemaError(f"workers must be >= 1, got {self.workers}")
        if self.max_turns < 1:
            raise SchemaError(f"max_turns must be >= 1, got {self.max_turns}")
        if self.max_tokens < 1:
            raise SchemaError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.tool_budget < 0:
            raise SchemaError(f"tool_budget must be >= 0, got {self.tool_budget}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise SchemaError(f"temperature must be a finite number >= 0, got {self.temperature}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse key = value lines; '#' starts a comment; unknown or repeated
    keys rejected."""
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        lines = read_text(path).split("\n")
    except OSError as exc:
        raise SchemaError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise SchemaError(f"{path}:{line_no}: unknown config key {key!r}")
        if first_line.setdefault(key, line_no) != line_no:
            raise SchemaError(f"{path}:{line_no}: duplicate config key {key!r} (first on line {first_line[key]})")
        values[key] = _coerce(key, raw, f"{path}:{line_no}")
    return values


def _coerce(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad value for {key}: {raw!r}") from exc
    return raw


def build_config(config_path: str | None, **overrides) -> RunConfig:
    """Config file values first, then non-None flag overrides."""
    values = load_config_file(config_path) if config_path else {}
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return RunConfig(**values)
