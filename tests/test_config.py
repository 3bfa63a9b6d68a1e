import math

import pytest

from protagent.config import build_config, load_config_file
from protagent.errors import SchemaError


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_turns", 0),
        ("max_turns", -3),
        ("max_tokens", 0),
        ("tool_budget", -1),
        ("temperature", -0.5),
        ("temperature", math.nan),
        ("temperature", math.inf),
    ],
    ids=["max_turns-0", "max_turns-negative", "max_tokens-0", "tool_budget-negative", "temperature-negative",
         "temperature-nan", "temperature-inf"],
)
def test_out_of_range_value_is_config_error(field, value):
    cfg = build_config(None, script="script.jsonl", **{field: value})
    with pytest.raises(SchemaError, match=f"{field} must be"):
        cfg.validate()


def test_smallest_allowed_values_validate():
    build_config(None, script="script.jsonl", max_turns=1, max_tokens=1, tool_budget=0, temperature=0.0).validate()


def test_out_of_range_value_in_config_file_is_config_error(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("script = s.jsonl\ntemperature = nan\n")
    with pytest.raises(SchemaError, match="temperature must be a finite number >= 0, got nan"):
        build_config(str(path)).validate()


def test_repeated_config_key_names_both_lines(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("max_turns = 3\n# a comment\nscript = s.jsonl\nmax_turns = 9\n")
    with pytest.raises(SchemaError, match=r"run.conf:4: duplicate config key 'max_turns' \(first on line 1\)"):
        load_config_file(str(path))
