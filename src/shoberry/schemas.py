"""JSON Schemas for the run configuration and the emitted reports.

The config schema is assembled from the CLI's parameter table, so it lists
exactly what the CLI accepts; the result schema is the companion contract
every JSON report re-parses under.
"""

from .cli import AXIS_SCHEMA, PARAMETERS


def _config_properties() -> dict:
    """Each parameter's schema at its config key; a dotted key's section is an
    object that lists its required keys."""
    properties = {}
    for p in PARAMETERS:
        section, _, name = p.key.rpartition(".")
        node = properties
        if section:
            node = properties.setdefault(section, {
                "type": "object", "additionalProperties": False, "properties": {}})
            if p.required:
                node.setdefault("required", []).append(name)
            node = node["properties"]
        node[name] = p.schema
    return properties


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": _config_properties(),
    "$defs": {"sweep_axis": AXIS_SCHEMA},
}

RESULT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "columns", "rows"],
    "properties": {
        "command": {"enum": ["berry", "driven", "sweep", "trajectory"]},
        "columns": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "duration": {"type": "number"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": {
                    "oneOf": [
                        {"type": "number"},
                        {"type": "null"},
                        {"type": "string"},
                    ]
                },
            },
        },
    },
}
