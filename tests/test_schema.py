"""heckelift.schema against jsonschema, its reference: single-fault
mutations of every sample problem must be accepted or rejected alike and,
outside the oneOf of local-compat, rejected with the same message that
jsonschema's best_match gives.  Inside that oneOf only the outcome must
agree: exit 2 with a schema error."""

import copy
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator, validators
from jsonschema.exceptions import best_match

from heckelift.cli import COMMANDS, SCHEMA_FILES, _load_schema
from heckelift.schema import ValidationError, validate
from test_cli import run_json
from test_golden import PROBLEMS, TARGETS

SCHEMAS = {command: _load_schema(command) for command in COMMANDS}
SAMPLES = {stem: json.loads((PROBLEMS / f"{stem}.json").read_text()) for stem in TARGETS}

# jsonschema with the one intended difference: 5.0 is not an integer
StrictValidator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)

SUPPORTED = {
    "$schema", "$defs", "$ref", "type", "const", "minimum", "maximum",
    "pattern", "required", "properties", "additionalProperties",
    "patternProperties", "items", "minItems", "maxItems", "oneOf",
}  # fmt: skip


def _keywords(schema):
    yield from schema
    for key in ("$defs", "properties", "patternProperties"):
        for sub in schema.get(key, {}).values():
            yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _keywords(sub)


@pytest.mark.parametrize("command", COMMANDS)
def test_problem_schema_stays_in_the_supported_subset(command):
    Draft202012Validator.check_schema(SCHEMAS[command])
    assert set(_keywords(SCHEMAS[command])) <= SUPPORTED


def test_every_schema_file_is_read_and_none_is_a_copy():
    folder = resources.files("heckelift").joinpath("schemas")
    files = {path.name: path.read_bytes() for path in folder.iterdir()}
    read = {f"{SCHEMA_FILES.get(command, command)}.json" for command in COMMANDS}
    assert set(files) == read | {"report.json"}
    assert len(set(files.values())) == len(files)


def test_refs_other_than_lone_local_defs_are_refused():
    defs = {"qz": {"type": "string"}}
    for ref in (
        {"$ref": "other.json#/$defs/qz"},
        {"$ref": "#/definitions/qz"},
        {"$ref": "#/$defs/missing"},
        {"$ref": "#/$defs/qz", "type": "string"},
    ):
        with pytest.raises(KeyError):
            validate({"x": "1/2"}, {"$defs": defs, "properties": {"x": ref}})
    # a lone local ref stands for its entry; a const object is data, not a ref
    with pytest.raises(ValidationError, match="is not of type 'string'"):
        validate({"x": 5}, {"$defs": defs, "properties": {"x": {"$ref": "#/$defs/qz"}}})
    validate({"$ref": "#/$defs/qz"}, {"$defs": defs, "const": {"$ref": "#/$defs/qz"}})


def test_samples_are_accepted():
    for stem, (command, _) in TARGETS.items():
        validate(SAMPLES[stem], SCHEMAS[command])


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, (*path, index))


VALUES = st.one_of(
    st.integers(-12, 12),
    st.integers(-12, 12).map(float),  # integral floats
    st.sampled_from([10**30, -(10**30), 0.5, float("nan"), float("inf")]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "1/2", "-3/4", "1/", "a", "1/2\n", "unramified", "unipotent"]),
    st.text(max_size=4),
    st.sampled_from([[], {}, [1], {"a": 1}]),
)
KEYS = st.one_of(st.sampled_from(["surprise", "7", "7\n", "x", "D"]), st.text(max_size=3))


@st.composite
def faulty_problems(draw):
    """(command, mutated problem, whether the fault is inside a oneOf,
    whether it put in an integral float)"""
    stem = draw(st.sampled_from(sorted(TARGETS)))
    command = TARGETS[stem][0]
    problem = copy.deepcopy(SAMPLES[stem])
    path = draw(st.sampled_from(list(_paths(problem))))
    parent = None
    node = problem
    for key in path:
        parent, node = node, node[key]
    kinds = ["replace"]
    if path:
        kinds.append("drop")
    if isinstance(node, dict):
        kinds.append("add")
    if isinstance(node, str):
        kinds.append("edit")
    if isinstance(node, list):
        kinds += ["empty", "overfill"]
    kind = draw(st.sampled_from(kinds))
    value = None
    if kind in ("replace", "edit"):
        if kind == "replace":
            value = draw(VALUES)
        else:  # near misses of a pattern
            value = draw(st.sampled_from([node + "\n", node + "/", "-" + node, node[1:]]))
        if path:
            parent[path[-1]] = value
        else:
            problem = value
    elif kind == "drop":
        del parent[path[-1]]
    elif kind == "add":
        key = draw(KEYS.filter(lambda k: k not in node))
        value = node[key] = draw(VALUES)
    elif kind == "empty":
        node.clear()
    else:
        node.append(copy.deepcopy(node[-1]) if node else 1)
    inside_one_of = command == "local-compat" and path[:1] in (("datum",), ("datum_prime",))
    integral_float = isinstance(value, float) and value.is_integer()
    return command, problem, inside_one_of, integral_float


def _message(problem, schema):
    try:
        validate(problem, schema)
    except ValidationError as exc:
        return exc.message
    return None


def _with(stem, key, value):
    problem = copy.deepcopy(SAMPLES[stem])
    problem[key] = value
    return problem


_FROB = {"zeta": "0/1", "weight": 0}
_TAME = {"type": "tame_principal", "modulus_exponent": 1, "inertial": ["0/1", "1/2"]}


# maxItems, which no sample reaches by one append: three entries where two
# are allowed.  The tame datum is the one oneOf branch with a frobenius
# list, so its message is compared too (inside_one_of False)
@example(
    ("lift-quadratic", _with("quadratic_trivial_pair", "infinity_type", [144] * 3), False, False)
)
@example(
    (
        "local-compat",
        _with("local_compat_minus_ell", "datum", dict(_TAME, frobenius=[_FROB] * 3)),
        False,
        False,
    )
)
@settings(max_examples=400, deadline=None)
@given(faulty_problems())
def test_agrees_with_jsonschema(case):
    command, problem, inside_one_of, integral_float = case
    schema = SCHEMAS[command]
    ours = _message(problem, schema)
    oracle = best_match(StrictValidator(schema).iter_errors(problem))
    assert (ours is None) == (oracle is None), (ours, oracle)
    plain = best_match(Draft202012Validator(schema).iter_errors(problem))
    if (plain is None) != (oracle is None):
        # jsonschema counts 5.0 as an integer; heckelift.schema does not
        assert integral_float and plain is None
    if ours is None:
        return
    # a rejected problem never reaches its handler, so this is fast
    with tempfile.TemporaryDirectory() as tmp:
        code, report = run_json(Path(tmp), command, problem)
    assert code == 2
    assert report["error"]["type"] == "schema"
    if not inside_one_of:
        assert report["error"]["message"] == oracle.message
