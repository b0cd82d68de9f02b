"""JSON Schema validation for the keywords the problem schemas use.

Supported: type (one of "object", "array", "string", "integer"), const,
minimum, maximum, pattern, required, properties, additionalProperties
(false only), patternProperties, items (one schema for every item),
minItems, maxItems and oneOf, and a subschema {"$ref": "#/$defs/<name>"}
with no other keyword, which stands for that entry of the root's $defs;
$schema is ignored.  Any other keyword or $ref raises KeyError, so a
schema cannot silently outgrow the validator.

Errors are found and ranked as jsonschema (4.x, draft 2020-12) finds and
ranks them, so `validate` raises the error its best_match would pick,
with the same message.  One difference is deliberate: an integral float
such as 5.0 is not an "integer" here, as booleans are not; the handlers
need Python ints.
"""

from __future__ import annotations

import re

__all__ = ["ValidationError", "validate"]

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class ValidationError(ValueError):
    """One way an instance fails its schema: the message, the failing
    keyword, the path to the failing value and, for oneOf, the errors of
    every branch."""

    def __init__(self, message, keyword, instance, schema, context=()):
        super().__init__(message)
        self.message = message
        self.keyword = keyword
        self.path: tuple = ()
        self.context = list(context)
        self.matches_type = "type" in schema and _TYPES[schema["type"]](instance)


def validate(instance, schema: dict) -> None:
    """Raise the most relevant ValidationError of `instance`, if any."""
    schema = _resolve(schema, schema.get("$defs", {}))
    best = max(_errors(instance, schema), key=_relevance, default=None)
    if best is None:
        return
    while best.context:
        # into the branch errors of a oneOf, unless two tie for the deepest
        smallest = sorted(best.context, key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            break
        best = smallest[0]
    raise best


def _resolve(node, defs: dict):
    """node with each {"$ref": "#/$defs/<name>"} in it replaced by that entry
    of defs, itself resolved; a const value is data and stays as it is."""
    if isinstance(node, list):
        return [_resolve(item, defs) for item in node]
    if not isinstance(node, dict):
        return node
    if "$ref" in node:
        name = node["$ref"].removeprefix("#/$defs/")
        if len(node) > 1 or name == node["$ref"]:
            raise KeyError(f"$ref other than a lone '#/$defs/<name>': {node!r}")
        return _resolve(defs[name], defs)
    return {k: v if k == "const" else _resolve(v, defs) for k, v in node.items()}


def _relevance(error: ValidationError) -> tuple:
    # jsonschema's best_match key: shallower, then the later sibling, then
    # not oneOf, then failing a value of the schema's own type
    return (-len(error.path), error.path, error.keyword != "oneOf", not error.matches_type)


def _errors(instance, schema: dict):
    """Every error of `instance`, keyword by keyword in schema order, with
    paths relative to `instance`."""
    for keyword, value in schema.items():
        if keyword not in ("$schema", "$defs"):
            yield from _KEYWORDS[keyword](value, instance, schema)


def _descend(instance, schema: dict, key):
    for error in _errors(instance, schema):
        error.path = (key, *error.path)
        yield error


def _type(expected, instance, schema):
    if not _TYPES[expected](instance):
        yield ValidationError(
            f"{instance!r} is not of type {expected!r}", "type", instance, schema
        )


def _const(expected, instance, schema):
    # JSON equality: 1 == 1.0, but a boolean equals only a boolean
    if instance != expected or isinstance(instance, bool) != isinstance(expected, bool):
        yield ValidationError(f"{expected!r} was expected", "const", instance, schema)


def _minimum(bound, instance, schema):
    if _is_number(instance) and instance < bound:
        yield ValidationError(
            f"{instance!r} is less than the minimum of {bound!r}", "minimum", instance, schema
        )


def _maximum(bound, instance, schema):
    if _is_number(instance) and instance > bound:
        yield ValidationError(
            f"{instance!r} is greater than the maximum of {bound!r}", "maximum", instance, schema
        )


def _pattern(regex, instance, schema):
    if isinstance(instance, str) and not re.search(regex, instance):
        yield ValidationError(
            f"{instance!r} does not match {regex!r}", "pattern", instance, schema
        )


def _required(names, instance, schema):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield ValidationError(
                    f"{name!r} is a required property", "required", instance, schema
                )


def _properties(subschemas, instance, schema):
    if isinstance(instance, dict):
        for name, subschema in subschemas.items():
            if name in instance:
                yield from _descend(instance[name], subschema, name)


def _pattern_properties(subschemas, instance, schema):
    if isinstance(instance, dict):
        for regex, subschema in subschemas.items():
            for name, value in instance.items():
                if re.search(regex, name):
                    yield from _descend(value, subschema, name)


def _additional_properties(allowed, instance, schema):
    if allowed is not False:
        raise KeyError("additionalProperties other than false")
    if not isinstance(instance, dict):
        return
    patterns = "|".join(schema.get("patternProperties", {}))
    extras = sorted(
        name
        for name in instance
        if name not in schema.get("properties", {})
        and not (patterns and re.search(patterns, name))
    )
    if not extras:
        return
    joined = ", ".join(repr(name) for name in extras)
    if "patternProperties" in schema:
        verb = "does" if len(extras) == 1 else "do"
        regexes = ", ".join(repr(r) for r in sorted(schema["patternProperties"]))
        message = f"{joined} {verb} not match any of the regexes: {regexes}"
    else:
        verb = "was" if len(extras) == 1 else "were"
        message = f"Additional properties are not allowed ({joined} {verb} unexpected)"
    yield ValidationError(message, "additionalProperties", instance, schema)


def _items(subschema, instance, schema):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            yield from _descend(item, subschema, index)


def _min_items(bound, instance, schema):
    if isinstance(instance, list) and len(instance) < bound:
        message = "should be non-empty" if bound == 1 else "is too short"
        yield ValidationError(f"{instance!r} {message}", "minItems", instance, schema)


def _max_items(bound, instance, schema):
    if isinstance(instance, list) and len(instance) > bound:
        message = "is expected to be empty" if bound == 0 else "is too long"
        yield ValidationError(f"{instance!r} {message}", "maxItems", instance, schema)


def _one_of(subschemas, instance, schema):
    context, valid = [], []
    for subschema in subschemas:
        errors = list(_errors(instance, subschema))
        context.extend(errors)
        if not errors:
            valid.append(subschema)
    if not valid:
        yield ValidationError(
            f"{instance!r} is not valid under any of the given schemas",
            "oneOf",
            instance,
            schema,
            context,
        )
    elif len(valid) > 1:
        # jsonschema lists the later matches first, then the first one
        reprs = ", ".join(repr(s) for s in valid[1:] + valid[:1])
        yield ValidationError(
            f"{instance!r} is valid under each of {reprs}", "oneOf", instance, schema
        )


_KEYWORDS = {
    "type": _type,
    "const": _const,
    "minimum": _minimum,
    "maximum": _maximum,
    "pattern": _pattern,
    "required": _required,
    "properties": _properties,
    "patternProperties": _pattern_properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "oneOf": _one_of,
}
