"""SARIF 2.1.0 output for simlint (``repro-lint --format sarif``).

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning UIs ingest — GitHub's ``upload-sarif`` action turns
the document this module renders into inline PR annotations. The emitted
subset is deliberately small and fully spec-conformant:

* one ``run`` with a ``tool.driver`` listing every active rule
  (id, short description, help URI placeholder);
* one ``result`` per reportable finding with a ``physicalLocation``;
  whole-program findings add a ``relatedLocations`` entry for the other
  end of the offending path;
* baselined findings are included with ``baselineState: "unchanged"``
  and suppressed ones are omitted entirely (they are invisible debt by
  choice, not results).

:func:`validate` checks a document against an embedded subset of the
SARIF 2.1.0 schema — the required-property and type skeleton that
``upload-sarif`` actually trips on — so the test suite can assert schema
conformance without a ``jsonschema`` dependency.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence

from .core import Finding, LintResult, Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "simlint"
_INFO_URI = "https://example.invalid/simlint"


def _location(path: str, line: int) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {
                "uri": pathlib.PurePath(path).as_posix(),
                "uriBaseId": "%SRCROOT%",
            },
            "region": {"startLine": max(1, line)},
        }
    }


def _result(finding: Finding, *, baseline_state: Optional[str] = None) -> dict:
    result = {
        "ruleId": finding.rule_id,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [_location(finding.path, finding.line)],
    }
    if finding.related_path:
        related = _location(finding.related_path, finding.related_line)
        related["message"] = {"text": "other end of the offending path"}
        result["relatedLocations"] = [related]
    if baseline_state is not None:
        result["baselineState"] = baseline_state
    return result


def to_sarif(result: LintResult, rules: Sequence[Rule],
             *, tool_version: str = "2.0") -> dict:
    """Render a :class:`LintResult` as a SARIF 2.1.0 document (dict)."""
    seen: Dict[str, dict] = {}
    for rule in rules:
        if rule.rule_id not in seen:
            seen[rule.rule_id] = {
                "id": rule.rule_id,
                "shortDescription": {"text": rule.title},
                "helpUri": _INFO_URI,
            }
    # Rules referenced by findings but not in the active set (SL000
    # parse errors) still need driver entries.
    for f in list(result.findings) + list(result.baselined):
        if f.rule_id not in seen:
            seen[f.rule_id] = {
                "id": f.rule_id,
                "shortDescription": {"text": "simlint diagnostic"},
                "helpUri": _INFO_URI,
            }
    rule_entries = [seen[k] for k in sorted(seen)]
    results = [_result(f) for f in result.findings]
    results += [_result(f, baseline_state="unchanged")
                for f in result.baselined]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "version": tool_version,
                    "informationUri": _INFO_URI,
                    "rules": rule_entries,
                }
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


# ----------------------------------------------------------------------
# Embedded subset-schema validation (no jsonschema dependency)
# ----------------------------------------------------------------------

#: The structural skeleton of the SARIF 2.1.0 schema that consumers
#: (GitHub code scanning in particular) actually enforce. Each node:
#: ``type``, optional ``required``, optional ``properties`` (dict of
#: child nodes), optional ``items`` (node for array elements), optional
#: ``enum``. Unknown properties are allowed, as in the real schema.
_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"type": "string", "enum": ["2.1.0"]},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "informationUri": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {
                                                        "text": {"type": "string"},
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "type": "string",
                                    "enum": ["none", "note", "warning", "error"],
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"},
                                    },
                                },
                                "baselineState": {
                                    "type": "string",
                                    "enum": ["new", "unchanged",
                                             "updated", "absent"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {"$ref": "location"},
                                },
                                "relatedLocations": {
                                    "type": "array",
                                    "items": {"$ref": "location"},
                                },
                            },
                        },
                    },
                },
            },
        },
    },
    "definitions": {
        "location": {
            "type": "object",
            "properties": {
                "physicalLocation": {
                    "type": "object",
                    "properties": {
                        "artifactLocation": {
                            "type": "object",
                            "properties": {
                                "uri": {"type": "string"},
                                "uriBaseId": {"type": "string"},
                            },
                        },
                        "region": {
                            "type": "object",
                            "properties": {
                                "startLine": {"type": "integer"},
                            },
                        },
                    },
                },
            },
        },
    },
}

_TYPES = {
    "object": dict, "array": list, "string": str,
    "integer": int, "number": (int, float), "boolean": bool,
}


def validate(doc: dict, schema: Optional[dict] = None) -> List[str]:
    """Validate *doc* against the embedded SARIF subset schema.

    Returns a list of ``path: problem`` strings (empty = valid).
    """
    root = schema or _SUBSET_SCHEMA
    definitions = root.get("definitions", {})
    errors: List[str] = []

    def check(node: dict, value, path: str) -> None:
        if "$ref" in node:
            node = definitions[node["$ref"]]
        expected = node.get("type")
        if expected is not None:
            py = _TYPES[expected]
            if not isinstance(value, py) or (
                    expected == "integer" and isinstance(value, bool)):
                errors.append(f"{path}: expected {expected}, "
                              f"got {type(value).__name__}")
                return
        if "enum" in node and value not in node["enum"]:
            errors.append(f"{path}: {value!r} not in {node['enum']}")
        if expected == "object":
            for req in node.get("required", ()):
                if req not in value:
                    errors.append(f"{path}: missing required property "
                                  f"{req!r}")
            for key, sub in node.get("properties", {}).items():
                if key in value:
                    check(sub, value[key], f"{path}.{key}")
        elif expected == "array" and "items" in node:
            for i, item in enumerate(value):
                check(node["items"], item, f"{path}[{i}]")

    check(root, doc, "$")
    return errors
