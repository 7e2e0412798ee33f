"""Experiment runner: JSON configs in, CSV tables and JSON envelopes out.

Every subcommand is a pure function of (config, seed, workers): reports are
written atomically, stochastic work derives per-task streams from the master
seed by stable labels, and the worker count never changes any number.
"""

import csv
import io
import json
import math
import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import probes
from .errors import InvalidParameter, MixLabError, SchemaError
from .identifiability import (
    bernoulli_first_order_system,
    bernoulli_nonidentifiable_witness,
    degenerate_direction_check,
    first_order_gram,
)
from .kernels import BernoulliKernel, kernel_from_spec
from .measures import (
    MixingMeasure,
    atom_and_weight_distances,
    distance_DN,
    distance_Dr1r2,
    wasserstein,
)
from .posterior import (
    MCMCConfig,
    PriorSpec,
    contraction_experiment,
    resolve_length_law,
)
from .products import estimate_divergence

# A field's default is a value (checked like a given one),
# REQUIRED (the document must give the field) or OMITTED (an absent field stays
# absent, so the default of the API function the field feeds applies).
REQUIRED, OMITTED = object(), object()

# The spec nodes that _check walks:
# - Scalar: a JSON scalar of kind "integer", "number", "boolean" or "string",
#   or one of a tuple of values; at least `minimum` (above it if `strict`).
# - Seq: a list of `item`s (`head` for item 0) with min_len to max_len items;
#   with `scalar`, one bare item stands for a one-item list.
# - Obj: `fields` {name: (spec, default)}; the required field `tag` picks
#   more fields from `variants`. Any other key is a SchemaError.
# - Build: `spec`, then `make` turns the checked value into a typed one.
# - Either: an object is checked by `obj`, any other value by `other`.
Scalar = namedtuple("Scalar", "kind minimum strict", defaults=(None, False))
Seq = namedtuple(
    "Seq", "item min_len max_len scalar head", defaults=(0, None, False, None)
)
Obj = namedtuple("Obj", "fields tag variants", defaults=(None, None))
Build = namedtuple("Build", "spec make")
Either = namedtuple("Either", "other obj")

SCALAR_TYPES = {"integer": int, "number": (int, float), "boolean": bool, "string": str}
INT, NUMBER, NUMBERS = Scalar("integer"), Scalar("number"), Seq(Scalar("number"))
COUNT, NONNEG = Scalar("integer", 1), Scalar("integer", 0)


def _length_law(law):
    resolve_length_law(law)
    return law


def _fixed(**fields):
    """A kernel family's ``params_fixed`` object."""
    return {"params_fixed": (Obj(fields), OMITTED)}


KERNEL = Build(Obj({}, "family", {
    "bernoulli": _fixed(),
    "gaussian_location": _fixed(sigma=(NUMBER, OMITTED)),
    "gamma": _fixed(normalized=(Scalar("boolean"), OMITTED)),
    "uniform": _fixed(),
    "locscale_exponential": _fixed(),
    "gaussian_location_mixture": _fixed(k=(INT, REQUIRED), sigma=(NUMBER, OMITTED)),
    "beta_pushforward": _fixed(xi=(NUMBER, REQUIRED)),
}), kernel_from_spec)
MEASURE = Build(Obj({
    "atoms": (Seq(Seq(NUMBER, scalar=True)), REQUIRED),
    "weights": (NUMBERS, REQUIRED),
}), lambda doc: MixingMeasure(doc["atoms"], doc["weights"]))
METRIC = Obj({}, "name", {
    "DN": {"N": (NUMBER, 1)},
    "Dr": {"r1": (NUMBER, 1), "r2": (NUMBER, 1)},
    "wasserstein": {"p": (NUMBER, 1)},
    "components": {},
})
GRID = Either(Scalar(("auto",)), Obj({
    "points": (Seq(NUMBER, min_len=1), REQUIRED),
    "weights": (NUMBERS, OMITTED),
}))
PATH_FIELDS = {"ell_grid": (NUMBERS, OMITTED), "budget": (COUNT, OMITTED)}
PROBE = Obj({}, "name", {
    "inverse_ratio": {
        "direction": (NUMBERS, REQUIRED),
        "N": (COUNT, REQUIRED),
        **PATH_FIELDS,
    },
    "impact_Dr": {
        "direction": (NUMBERS, REQUIRED),
        "r": (Scalar("number", 1), REQUIRED),
        **PATH_FIELDS,
    },
    "curvature_locscale": {"ell_grid": (NUMBERS, OMITTED)},
    "sqrtN_sharpness": {
        "psi_exponent": (NUMBER, REQUIRED),
        "N_grid": (NUMBERS, OMITTED),
        "eps_grid": (NUMBERS, OMITTED),
        "atom_index": (NONNEG, OMITTED),
        "coordinate": (NONNEG, OMITTED),
    },
})
MCMC = Build(Obj({
    "steps": (INT, OMITTED),
    "burn_fraction": (NUMBER, OMITTED),
    "initial_scale": (NUMBER, OMITTED),
}), lambda fields: MCMCConfig(**fields))


def _subcommand(parameters, kernel=REQUIRED, measures=(1, 1)):
    """A subcommand's fields: its parameters, whether it needs a kernel and
    the (least, most) measures it reads."""
    return {
        "kernel": (KERNEL, kernel),
        "measures": (Seq(MEASURE, *measures), []),
        "parameters": (parameters, {}),
    }


# The whole config document: the subcommand picks the fields that follow.
SCHEMA = Obj(
    {"seed": (NONNEG, REQUIRED), "workers": (COUNT, 1), "out": (Scalar("string"), ".")},
    "subcommand",
    {
        "distance": _subcommand(Obj({
            "metrics": (Seq(METRIC, min_len=1), [{"name": "DN", "N": 1}]),
        }), kernel=OMITTED, measures=(2, None)),
        "divergence": _subcommand(Obj({
            "name": (Scalar(("tv", "hellinger")), "tv"),
            "N": (COUNT, 1),
            "budget": (COUNT, OMITTED),
        }), measures=(2, 2)),
        "identify": _subcommand(Obj({
            "n_grid": (Seq(COUNT, min_len=1, scalar=True), OMITTED),
            "grid": (GRID, OMITTED),
            "direction": (NUMBERS, OMITTED),
        })),
        "witness": _subcommand(Obj({
            "a": (Seq(Scalar("number", 0, strict=True), 1, scalar=True), [1.0, 2.0]),
        }), kernel=OMITTED),
        "probe": _subcommand(PROBE),
        "minimax": _subcommand(Obj({
            "m": (Seq(NUMBER, min_len=1, scalar=True), REQUIRED),
            "N": (Seq(NUMBER, min_len=1, scalar=True), REQUIRED),
            "gamma": (NUMBER, REQUIRED),
            "beta0": (NUMBER, REQUIRED),
            "a": (NUMBER, REQUIRED),
        }), kernel=OMITTED, measures=(0, None)),
        "posterior-sim": _subcommand(Obj({
            "m_grid": (Seq(Scalar("integer", 3), min_len=2), REQUIRED),
            "length_law": (Build(Seq(COUNT, 1, head=Scalar("string")), _length_law),
                           REQUIRED),
            "replicates": (COUNT, 1),
            "mcmc": (MCMC, {}),
            "prior_box": (Seq(Seq(NUMBER, 2, 2)), OMITTED),
        })),
    },
)
SUBCOMMANDS = tuple(SCHEMA.variants)


def _check(spec, value, path):
    """The checked value of one field, with defaults filled in and typed
    parts built; a SchemaError names the path of the first fault."""
    if isinstance(spec, Build):
        value = _check(spec.spec, value, path)
        try:
            return spec.make(value)
        except MixLabError as err:
            raise SchemaError(path, str(err)) from err
    if isinstance(spec, Either):
        return _check(spec.obj if isinstance(value, dict) else spec.other, value, path)
    if isinstance(spec, Scalar):
        if isinstance(spec.kind, tuple):
            if value not in spec.kind:
                choices = ", ".join(spec.kind)
                raise SchemaError(path, f"unknown value {value!r}; expected {choices}")
            return value
        kind = SCALAR_TYPES[spec.kind]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise SchemaError(path, f"expected {spec.kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(path, f"expected a finite number, got {value!r}")
        low = spec.minimum
        if low is not None and (value <= low if spec.strict else value < low):
            raise SchemaError(path, f"must be {'>' if spec.strict else '>='} {low}")
        return value
    if isinstance(spec, Seq):
        if not isinstance(value, list):
            if not spec.scalar:
                raise SchemaError(path, f"expected a list, got {value!r}")
            value = [value]
        if len(value) < spec.min_len:
            raise SchemaError(path, f"expected at least {spec.min_len} items")
        if spec.max_len is not None and len(value) > spec.max_len:
            raise SchemaError(path, f"expected at most {spec.max_len} items")
        return [
            _check(spec.head if i == 0 and spec.head else spec.item, v, f"{path}[{i}]")
            for i, v in enumerate(value)
        ]
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {value!r}")
    prefix = f"{path}." if path else ""
    fields = spec.fields
    if spec.tag is not None:
        if spec.tag not in value:
            raise SchemaError(prefix + spec.tag, "required field is missing")
        tag = _check(Scalar(tuple(spec.variants)), value[spec.tag], prefix + spec.tag)
        fields = {spec.tag: (Scalar((tag,)), REQUIRED), **fields, **spec.variants[tag]}
    for key in value:
        if key not in fields:
            raise SchemaError(prefix + key, "unknown field")
    out = {}
    for key, (field, default) in fields.items():
        if key in value:
            out[key] = _check(field, value[key], prefix + key)
        elif default is REQUIRED:
            raise SchemaError(prefix + key, "required field is missing")
        elif default is not OMITTED:
            out[key] = _check(field, default, prefix + key)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: subcommand, inputs, and run controls."""

    subcommand: str
    seed: int
    kernel: object
    measures: tuple
    parameters: dict
    workers: int
    out: str


def parse_config(text):
    """Validate a JSON experiment document against SCHEMA; SchemaError names
    the bad field. Parameters come back typed, with defaults filled in."""
    if isinstance(text, (dict, list)):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise SchemaError("$", f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError("$", "top-level document must be an object")
    doc = _check(SCHEMA, doc, "")
    kernel, params = doc.get("kernel"), doc["parameters"]
    if kernel is not None:
        for i, G in enumerate(doc["measures"]):
            for j, atom in enumerate(G.atoms):
                try:
                    kernel.check_theta(atom)
                except MixLabError as err:
                    raise SchemaError(f"measures[{i}].atoms[{j}]", str(err)) from err
    if "prior_box" in params:
        try:
            params["prior_box"] = PriorSpec(kernel, params["prior_box"])
        except InvalidParameter as err:
            raise SchemaError("parameters.prior_box", str(err)) from err
    return ExperimentConfig(**dict(doc, kernel=kernel, measures=tuple(doc["measures"])))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _run_distance(config):
    G, G2 = config.measures[0], config.measures[1]
    rows = []
    for metric in config.parameters["metrics"]:
        name = metric["name"]
        if name == "DN":
            N = metric["N"]
            rows.append(("DN", f"N={_fmt(N)}", distance_DN(G, G2, N)))
        elif name == "Dr":
            r1, r2 = metric["r1"], metric["r2"]
            value = distance_Dr1r2(G, G2, r1, r2)
            rows.append(("Dr", f"r1={_fmt(r1)},r2={_fmt(r2)}", value))
        elif name == "wasserstein":
            p = metric["p"]
            rows.append(("wasserstein", f"p={_fmt(p)}", wasserstein(G, G2, p)))
        else:
            d_theta, d_p = atom_and_weight_distances(G, G2)
            rows.append(("components", "d_theta", d_theta))
            rows.append(("components", "d_p", d_p))
    header = ("metric", "detail", "value")
    envelope = {
        "subcommand": "distance",
        "seed": config.seed,
        "values": [
            {"metric": m, "detail": d, "value": float(v)} for m, d, v in rows
        ],
    }
    return header, rows, envelope


def _run_divergence(config):
    params = dict(config.parameters)
    name, N = params.pop("name"), params.pop("N")
    G, G2 = config.measures
    estimate = estimate_divergence(G, G2, config.kernel, N, name, seed=config.seed,
                                   workers=config.workers, **params)
    header = ("divergence", "N", "method", "value", "stderr")
    rows = [(name, N, estimate.method, estimate.value, estimate.stderr)]
    envelope = {
        "subcommand": "divergence",
        "seed": config.seed,
        "divergence": name,
        "N": int(N),
        "method": estimate.method,
        "value": float(estimate.value),
        "stderr": float(estimate.stderr),
    }
    return header, rows, envelope


def _run_identify(config):
    G = config.measures[0]
    kernel = config.kernel
    params = config.parameters
    rows = []
    envelope = {"subcommand": "identify", "seed": config.seed, "kernel": kernel.name}
    if kernel.points is not None:
        k = G.k
        n_values = params["n_grid"] if "n_grid" in params else range(1, 2 * k + 2)
        ranks = {}
        for n in n_values:
            report = bernoulli_first_order_system(G, n)
            rows.append(("rank", n, report.rank))
            ranks[n] = report.rank
        full = 2 * k
        identified = [n for n, r in ranks.items() if r == full]
        length = min(identified) if identified else None
        envelope["first_order_identifiable_length"] = length
        envelope["ranks"] = [
            {"n": int(n), "rank": int(r)} for n, r in sorted(ranks.items())
        ]
    else:
        grid = [params["grid"]] if "grid" in params else []
        gram = first_order_gram(kernel, G.atoms, *grid)
        rows.append(("gram_min_eigenvalue", 0, gram))
        envelope["gram_min_eigenvalue"] = float(gram)
        if "direction" in params:
            residual = degenerate_direction_check(kernel, G, params["direction"], *grid)
            rows.append(("direction_residual", 0, residual))
            envelope["direction_residual"] = float(residual)
    return ("quantity", "index", "value"), rows, envelope


def _run_witness(config):
    G = config.measures[0]
    kernel = BernoulliKernel()
    rows = []
    found = []
    for a in config.parameters["a"]:
        witness = bernoulli_nonidentifiable_witness(G, float(a))
        tv_next = estimate_divergence(
            witness.original, witness.witness, kernel, witness.n + 1, "tv"
        ).value
        rows.append((a, "moment_mismatch", witness.moment_mismatch))
        rows.append((a, "tv_at_matched_length", witness.tv_at_n))
        rows.append((a, "tv_at_next_length", tv_next))
        found.append(
            {
                "a": float(a),
                "n_matched": int(witness.n),
                "moment_mismatch": float(witness.moment_mismatch),
                "tv_at_matched_length": float(witness.tv_at_n),
                "tv_at_next_length": float(tv_next),
                "witness": json.loads(witness.witness.to_json()),
            }
        )
    envelope = {
        "subcommand": "witness",
        "seed": config.seed,
        "original": json.loads(G.to_json()),
        "witnesses": found,
    }
    return ("a", "quantity", "value"), rows, envelope


# Probe name: the function of mixlab.probes it runs, and the run's arguments
# that function takes besides G0 and the probe's own parameters.
PROBE_CALLS = {
    "inverse_ratio": ("inverse_ratio_probe", ("kernel", "seed", "workers")),
    "impact_Dr": ("impact_probe_Dr", ("kernel", "seed", "workers")),
    "curvature_locscale": ("curvature_probe_locscale", ()),
    "sqrtN_sharpness": ("sqrtN_sharpness_probe", ("kernel",)),
}


def _run_probe(config):
    params = dict(config.parameters)
    function, context = PROBE_CALLS[params.pop("name")]
    run_args = {"kernel": config.kernel, "seed": config.seed, "workers": config.workers}
    report = getattr(probes, function)(
        G0=config.measures[0], **{key: run_args[key] for key in context}, **params
    )
    records = report.row_records()
    header = ("probe", "series", "index", "numerator", "numerator_stderr",
              "denominator", "ratio", "method")
    rows = [tuple(record[key] for key in header) for record in records]
    return header, rows, report.verdict_envelope()


def _run_minimax(config):
    params = config.parameters
    gamma, beta0, a = params["gamma"], params["beta0"], params["a"]
    rows = []
    for m in params["m"]:
        for N in params["N"]:
            bound = probes.lecam_two_point_bound(m, N, gamma, beta0, a)
            rows.append((m, N, gamma, beta0, a, bound))
    envelope = {
        "subcommand": "minimax",
        "seed": config.seed,
        "gamma": float(gamma),
        "beta0": float(beta0),
        "a": float(a),
        "bounds": [
            {"m": float(m), "N": float(N), "bound": float(b)}
            for m, N, _, _, _, b in rows
        ],
    }
    return ("m", "N", "gamma", "beta0", "a", "bound"), rows, envelope


def _run_posterior_sim(config):
    params = config.parameters
    report = contraction_experiment(
        config.kernel, config.measures[0], tuple(params["m_grid"]),
        tuple(params["length_law"]), params["replicates"], params["mcmc"],
        config.seed, prior=params.get("prior_box"), workers=config.workers,
    )
    records = report.row_records()
    header = tuple(records[0].keys())
    rows = [tuple(record[key] for key in header) for record in records]
    return header, rows, report.slope_envelope()


def _write_atomic(path, data):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(config):
    """Execute a validated config; returns the written report paths.

    Reports are computed fully in memory first, then written atomically, so
    a propagated module error leaves no partial outputs behind.
    """
    stem = config.subcommand.replace("-", "_")
    header, rows, envelope = globals()[f"_run_{stem}"](config)
    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.json")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    csv_text = buffer.getvalue()
    json_text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"

    _write_atomic(csv_path, csv_text)
    try:
        _write_atomic(json_path, json_text)
    except BaseException:
        if os.path.exists(csv_path):
            os.unlink(csv_path)
        raise
    return {"status": 0, "outputs": [csv_path, json_path]}


def run_with_overrides(config, seed=None, workers=None, out=None):
    """Apply CLI/environment overrides, checked by the config's own rows, and
    run."""
    given = {"seed": seed, "workers": workers, "out": out}
    updates = {
        key: _check(SCHEMA.fields[key][0], value, key)
        for key, value in given.items()
        if value is not None
    }
    return run(replace(config, **updates))
