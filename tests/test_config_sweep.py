"""One-field mutation sweep over small configs of every subcommand.

Each base config is cheap to run. Every mutant changes one field: it sets a
field to one of a few ill-typed or boundary values, deletes it, or adds an
unknown key to an object. A mutant must either fail in `parse_config` with a
SchemaError, or run to completion or fail with a MixLabError; any other
exception is a fault the schema or the library lets through. An unknown key
must always be a SchemaError.
"""

import copy
import json
from dataclasses import replace

import pytest

from mixlab.errors import MixLabError, SchemaError
from mixlab.lab import parse_config, run

MUTANT_VALUES = ("x", -1, 0, 0.5, True, None, [], {})
UNKNOWN_KEY = "zz_unknown"

BASES = {
    "distance": {
        "subcommand": "distance",
        "seed": 7,
        "workers": 1,
        "measures": [
            {"atoms": [[0.2], [0.8]], "weights": [0.5, 0.5]},
            {"atoms": [[0.25], [0.8]], "weights": [0.3, 0.7]},
        ],
        "parameters": {
            "metrics": [
                {"name": "DN", "N": 9},
                {"name": "Dr", "r1": 1.5, "r2": 2},
                {"name": "wasserstein", "p": 2},
                {"name": "components"},
            ]
        },
    },
    "divergence": {
        "subcommand": "divergence",
        "seed": 9,
        "kernel": {"family": "gaussian_location", "params_fixed": {"sigma": 1.0}},
        "measures": [
            {"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]},
            {"atoms": [[-1.2], [1.0]], "weights": [0.4, 0.6]},
        ],
        "parameters": {"name": "hellinger", "N": 2, "budget": 2000},
    },
    "identify_bernoulli": {
        "subcommand": "identify",
        "seed": 3,
        "kernel": {"family": "bernoulli"},
        "measures": [{"atoms": [[0.3], [0.7]], "weights": [0.5, 0.5]}],
        "parameters": {"n_grid": [1, 3]},
    },
    "identify_gaussian": {
        "subcommand": "identify",
        "seed": 3,
        "kernel": {"family": "gaussian_location"},
        "measures": [{"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}],
        "parameters": {
            "grid": {"points": [-2.0, 0.0, 2.0], "weights": [1.0, 1.0, 1.0]},
            "direction": [1.0, 0.0, 0.5, -0.5],
        },
    },
    "witness": {
        "subcommand": "witness",
        "seed": 3,
        "measures": [{"atoms": [[0.3], [0.7]], "weights": [0.5, 0.5]}],
        "parameters": {"a": [1.0, 2.0]},
    },
    "probe_inverse_ratio": {
        "subcommand": "probe",
        "seed": 5,
        "kernel": {"family": "bernoulli"},
        "measures": [{"atoms": [[0.3], [0.7]], "weights": [0.5, 0.5]}],
        "parameters": {
            "name": "inverse_ratio",
            "direction": [1.0, -1.0, 0.5, -0.5],
            "N": 2,
            "ell_grid": [10.0, 100.0],
            "budget": 2000,
        },
    },
    "probe_sqrtN_sharpness": {
        "subcommand": "probe",
        "seed": 5,
        "kernel": {"family": "gaussian_location"},
        "measures": [{"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}],
        "parameters": {
            "name": "sqrtN_sharpness",
            "psi_exponent": 1.0,
            "N_grid": [1, 4],
            "eps_grid": [0.1, 0.2],
            "atom_index": 0,
            "coordinate": 0,
        },
    },
    "minimax": {
        "subcommand": "minimax",
        "seed": 1,
        "parameters": {"m": [100, 200], "N": 4, "gamma": 1.0, "beta0": 1.0, "a": 0.5},
    },
    "posterior-sim": {
        "subcommand": "posterior-sim",
        "seed": 11,
        "kernel": {"family": "bernoulli"},
        "measures": [{"atoms": [[0.25], [0.75]], "weights": [0.4, 0.6]}],
        "parameters": {
            "m_grid": [3, 4, 5],
            "length_law": ["constant", 3],
            "replicates": 1,
            "mcmc": {"steps": 40, "burn_fraction": 0.25, "initial_scale": 0.25},
            "prior_box": [[0.05, 0.95]],
        },
    },
}


def field_paths(node, path=()):
    """Paths of every object field and list item below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, path + (key,))


def object_paths(node, path=()):
    """Paths of node and of every object below it."""
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from object_paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutants(base):
    """(label, document, must be a SchemaError) for every one-field mutation
    of base."""
    for path in field_paths(base):
        for value in MUTANT_VALUES:
            doc = copy.deepcopy(base)
            _parent(doc, path)[path[-1]] = value
            yield f"{path} = {value!r}", doc, False
        doc = copy.deepcopy(base)
        del _parent(doc, path)[path[-1]]
        yield f"del {path}", doc, False
    for path in object_paths(base):
        doc = copy.deepcopy(base)
        _parent(doc, path + (UNKNOWN_KEY,))[UNKNOWN_KEY] = 1
        yield f"{path} + {UNKNOWN_KEY}", doc, True


@pytest.mark.parametrize("name", sorted(BASES))
def test_one_field_mutations_end_cleanly(tmp_path, name):
    config = parse_config(json.dumps(BASES[name]))
    run(replace(config, out=str(tmp_path / "base")))
    escaped = []
    for label, doc, reject in mutants(BASES[name]):
        try:
            config = parse_config(json.dumps(doc))
        except SchemaError:
            continue
        if reject:
            escaped.append(f"{label}: accepted")
            continue
        try:
            run(replace(config, out=str(tmp_path / "mutant")))
        except MixLabError:
            pass
        except Exception as err:  # every escape is reported, not just the first
            escaped.append(f"{label}: {type(err).__name__}: {err}")
    assert escaped == []
