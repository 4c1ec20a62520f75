"""The CLI's interpreter of ``problem_schema.json`` against jsonschema.

jsonschema is not a dependency of the package; it serves here only as the
oracle.  Seeded mutations of the shipped problem files must get the same
valid/invalid verdict from both, and the location ``load_problem`` reports
must lie at the depth of jsonschema's ``best_match``.  Sibling ties at one
depth are broken differently on purpose (see ``load_problem``).
"""

import copy
import json
import pathlib
import random

import pytest

from stieltjes.cli import load_problem
from stieltjes.errors import SchemaError

REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads(
    (REPO / "src" / "stieltjes" / "problem_schema.json").read_text())
PROBLEMS = [json.loads(path.read_text())
            for path in sorted((REPO / "problems").glob("*.json"))]

INTERPRETED = {"$ref", "$defs", "oneOf", "type", "enum", "required",
               "properties", "additionalProperties", "items", "minItems",
               "maxItems", "minimum", "maximum", "exclusiveMinimum"}
ANNOTATIONS = {"$schema", "title", "description"}
TYPES = {"object", "array", "string", "number", "integer"}

# Replacement values and added keys.  No key holds a dot, since the
# reported location joins the path with dots; no number is NaN or infinite,
# since jsonschema (unlike JSON) accepts those as numbers.
VALUES = [0, 1, 2, -1, 5, 21, 10 ** 20, 0.0, -0.0, 0.5, 2.0, 5.0, -3.5,
          1e-12, 1e300, True, False, None, "", "x", "g", "eset", "real",
          "weighted-one", "max", [], [0.0], [0.0, 1.0], [1.0, 0.5, 0.0],
          [[0.0]], [[0.0, 1.0]], ["x", 1], {}, {"re": 1.0, "im": 0.0},
          {"re": 1.0}, {"re": "a", "im": 0.0}, {"re": 1, "im": 2, "z": 3},
          {"re": "a", "im": "b"}, {"kind": "max"},
          {"kind": "weighted-sup", "weights": [1.0, -1.0]},
          {"kind": "max", "parts": [{"kind": "quadratic",
                                     "matrix": [[1.0, {"re": 0.0}]]}]}]
KEYS = ["kind", "weights", "matrix", "parts", "re", "im", "space",
        "values", "tolerance", "seed", "resolution", "dimension", "field",
        "domain", "task", "functions", "parameters", "bogus", "y"]


def schema_nodes(schema):
    """Every schema object inside ``schema``, itself first."""
    yield schema
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from schema_nodes(sub)
        elif key == "oneOf":
            for sub in value:
                yield from schema_nodes(sub)
        elif key in ("items", "additionalProperties") \
                and isinstance(value, dict):
            yield from schema_nodes(value)


def test_schema_uses_only_interpreted_keywords():
    # a keyword the interpreter does not know would be silently ignored
    nodes = list(schema_nodes(SCHEMA))
    keywords = {key for node in nodes for key in node}
    assert keywords - ANNOTATIONS <= INTERPRETED
    assert {node["type"] for node in nodes if "type" in node} <= TYPES
    assert all(node["$ref"].startswith("#/$defs/")
               for node in nodes if "$ref" in node)


def doc_nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from doc_nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from doc_nodes(value, path + (i,))


def mutate(doc, rng):
    """Apply one to three random edits to a copy of ``doc``."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path, node = rng.choice(list(doc_nodes(doc)))
        op = rng.randrange(4)
        if op == 0 and path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(rng.choice(VALUES))
        elif op == 1 and isinstance(node, dict) and node:
            del node[rng.choice(list(node))]
        elif op == 2 and isinstance(node, dict):
            node[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
        elif op == 3 and isinstance(node, list) and node:
            i = rng.randrange(len(node))
            if rng.random() < 0.5:
                del node[i]
            else:
                node.insert(i, copy.deepcopy(node[i]))
    return doc


def test_verdict_and_depth_agree_with_jsonschema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    rng = random.Random(1010)
    path = tmp_path / "problem.json"
    invalid = 0
    for trial in range(5000):
        doc = mutate(rng.choice(PROBLEMS), rng)
        path.write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")
        best = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        try:
            load_problem(path)
        except SchemaError as exc:
            assert best is not None, (trial, doc, exc.location, str(exc))
            depth = 0 if exc.location == "<root>" \
                else len(exc.location.split("."))
            assert depth == len(best.absolute_path), \
                (trial, doc, exc.location, list(best.absolute_path))
            invalid += 1
        else:
            assert best is None, (trial, doc, best.message)
    assert 1000 < invalid < 4000
