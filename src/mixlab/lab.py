"""Experiment runner: JSON configs in, CSV tables and JSON envelopes out.

Every subcommand is a pure function of (config, seed, workers): reports are
written atomically, stochastic work derives per-task streams from the master
seed by stable labels, and the worker count never changes any number.
"""

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

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
    _resolve_length_law,
    contraction_experiment,
)
from .probes import (
    curvature_probe_locscale,
    impact_probe_Dr,
    inverse_ratio_probe,
    lecam_two_point_bound,
    sqrtN_sharpness_probe,
)
from .products import MC_DEFAULT_BUDGET, estimate_divergence

SUBCOMMANDS = (
    "distance",
    "divergence",
    "identify",
    "witness",
    "probe",
    "minimax",
    "posterior-sim",
)
KERNEL_REQUIRED = {"divergence", "identify", "probe", "posterior-sim"}
PROBE_NAMES = ("inverse_ratio", "impact_Dr", "curvature_locscale", "sqrtN_sharpness")
WITNESS_A = [1.0, 2.0]


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


def _require(doc, key, path):
    if key not in doc:
        raise SchemaError(path, "required field is missing")
    return doc[key]


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    return float(value)


def _parse_measures(doc, kernel):
    raw = doc.get("measures", [])
    if not isinstance(raw, list):
        raise SchemaError("measures", "expected a list of measure documents")
    measures = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"measures[{i}]", "expected an object")
        try:
            G = MixingMeasure.from_json(entry)
        except MixLabError as err:
            raise SchemaError(f"measures[{i}]", str(err)) from err
        except (KeyError, TypeError, ValueError) as err:
            raise SchemaError(f"measures[{i}]", f"malformed measure: {err}") from err
        if kernel is not None:
            for j, atom in enumerate(G.atoms):
                try:
                    kernel.check_theta(atom)
                except MixLabError as err:
                    raise SchemaError(f"measures[{i}].atoms[{j}]", str(err)) from err
        measures.append(G)
    return tuple(measures)


def _chain_specs(params, kernel):
    """posterior-sim's MCMCConfig and PriorSpec (None without a prior_box);
    a SchemaError names the bad field."""
    mcmc = params.get("mcmc", {})
    if not isinstance(mcmc, dict):
        raise SchemaError("parameters.mcmc", "expected an object")
    for key, value in mcmc.items():
        path = f"parameters.mcmc.{key}"
        if key == "steps":
            _as_int(value, path)
        elif key in ("burn_fraction", "initial_scale"):
            _as_number(value, path)
        else:
            raise SchemaError(
                path, "unknown field; expected steps, burn_fraction or initial_scale"
            )
    try:
        chain_config = MCMCConfig(**mcmc)
    except InvalidParameter as err:
        raise SchemaError("parameters.mcmc", str(err)) from err
    if "prior_box" not in params:
        return chain_config, None
    box = params["prior_box"]
    path = "parameters.prior_box"
    if not isinstance(box, list):
        raise SchemaError(path, "expected a list of [lo, hi] pairs")
    for i, pair in enumerate(box):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}[{i}]", "expected a [lo, hi] pair")
        for j, value in enumerate(pair):
            _as_number(value, f"{path}[{i}][{j}]")
    try:
        return chain_config, PriorSpec(kernel, np.asarray(box, dtype=float))
    except InvalidParameter as err:
        raise SchemaError(path, str(err)) from err


def _values(params, key, default=None):
    """A parameter given as one value or a list, as a nonempty list."""
    values = params.get(key, default)
    values = values if isinstance(values, list) else [values]
    if not values:
        raise SchemaError(f"parameters.{key}", "expected at least one value")
    return values


def _number_list(params, key):
    """Check an optional parameter that must be a list of numbers."""
    if key in params:
        if not isinstance(params[key], list):
            raise SchemaError(f"parameters.{key}", "expected a list of numbers")
        for i, value in enumerate(params[key]):
            _as_number(value, f"parameters.{key}[{i}]")


def _validate_parameters(subcommand, params, measures, kernel):
    if "budget" in params:
        _as_int(params["budget"], "parameters.budget", minimum=1)
    if subcommand == "distance":
        if len(measures) < 2:
            raise SchemaError("measures", "distance needs two measures")
        if params.get("metrics") == []:
            raise SchemaError("parameters.metrics", "expected at least one metric")
        for i, metric in enumerate(params.get("metrics", [])):
            path = f"parameters.metrics[{i}]"
            if not isinstance(metric, dict):
                raise SchemaError(path, "expected an object")
            name = metric.get("name")
            if name not in ("DN", "Dr", "wasserstein", "components"):
                raise SchemaError(f"{path}.name", f"unknown metric {name!r}")
            for key in ("N", "r1", "r2", "p"):
                if key in metric:
                    _as_number(metric[key], f"{path}.{key}")
    elif subcommand == "divergence":
        if len(measures) != 2:
            raise SchemaError("measures", "divergence needs exactly two measures")
        name = params.get("name", "tv")
        if name not in ("tv", "hellinger"):
            raise SchemaError("parameters.name", f"unknown divergence {name!r}")
        _as_int(params.get("N", 1), "parameters.N", minimum=1)
    elif subcommand == "identify":
        if len(measures) != 1:
            raise SchemaError("measures", "identify needs exactly one measure")
        for i, n in enumerate(_values(params, "n_grid", [1])):
            _as_int(n, f"parameters.n_grid[{i}]", minimum=1)
        _number_list(params, "direction")
    elif subcommand == "witness":
        if len(measures) != 1:
            raise SchemaError("measures", "witness needs exactly one measure")
        for i, a in enumerate(_values(params, "a", WITNESS_A)):
            if _as_number(a, f"parameters.a[{i}]") <= 0:
                raise SchemaError(f"parameters.a[{i}]", "must be positive")
    elif subcommand == "probe":
        name = _require(params, "name", "parameters.name")
        if name not in PROBE_NAMES:
            raise SchemaError("parameters.name", f"unknown probe {name!r}")
        if len(measures) != 1:
            raise SchemaError("measures", "probe needs exactly one base measure")
        if name in ("inverse_ratio", "impact_Dr"):
            _require(params, "direction", "parameters.direction")
        for key in ("direction", "ell_grid", "N_grid", "eps_grid"):
            _number_list(params, key)
        if name == "inverse_ratio":
            _as_int(_require(params, "N", "parameters.N"), "parameters.N", minimum=1)
        if name == "impact_Dr":
            if _as_number(_require(params, "r", "parameters.r"), "parameters.r") < 1:
                raise SchemaError("parameters.r", "order must be >= 1")
        if name == "sqrtN_sharpness":
            _as_number(
                _require(params, "psi_exponent", "parameters.psi_exponent"),
                "parameters.psi_exponent",
            )
    elif subcommand == "minimax":
        for key in ("m", "N", "gamma", "beta0", "a"):
            _require(params, key, f"parameters.{key}")
        for key in ("m", "N"):
            for i, v in enumerate(_values(params, key)):
                _as_number(v, f"parameters.{key}[{i}]")
        for key in ("gamma", "beta0", "a"):
            _as_number(params[key], f"parameters.{key}")
    elif subcommand == "posterior-sim":
        if len(measures) != 1:
            raise SchemaError("measures", "posterior-sim needs the true measure")
        m_grid = _require(params, "m_grid", "parameters.m_grid")
        if not isinstance(m_grid, list) or len(m_grid) < 2:
            raise SchemaError("parameters.m_grid", "need at least two dataset sizes")
        for i, m in enumerate(m_grid):
            _as_int(m, f"parameters.m_grid[{i}]", minimum=3)
        law = _require(params, "length_law", "parameters.length_law")
        if not isinstance(law, list) or not law:
            raise SchemaError("parameters.length_law", "expected a nonempty list")
        for i, n in enumerate(law[1:], start=1):
            _as_int(n, f"parameters.length_law[{i}]", minimum=1)
        try:
            _resolve_length_law(law)
        except InvalidParameter as err:
            raise SchemaError("parameters.length_law", str(err)) from err
        _as_int(params.get("replicates", 1), "parameters.replicates", minimum=1)
        _chain_specs(params, kernel)


def parse_config(text):
    """Validate a JSON experiment document; SchemaError names the bad field."""
    if isinstance(text, (dict, list)):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise SchemaError("$", f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError("$", "top-level document must be an object")
    subcommand = _require(doc, "subcommand", "subcommand")
    if subcommand not in SUBCOMMANDS:
        raise SchemaError("subcommand", f"unknown subcommand {subcommand!r}")
    seed = _as_int(_require(doc, "seed", "seed"), "seed")
    workers = _as_int(doc.get("workers", 1), "workers", minimum=1)
    out = doc.get("out", ".")
    if not isinstance(out, str):
        raise SchemaError("out", "expected a directory path string")

    kernel = None
    if "kernel" in doc:
        if not isinstance(doc["kernel"], dict):
            raise SchemaError("kernel", "expected an object")
        try:
            kernel = kernel_from_spec(doc["kernel"])
        except MixLabError as err:
            raise SchemaError("kernel", str(err)) from err
        except (KeyError, TypeError) as err:
            raise SchemaError("kernel", f"malformed kernel spec: {err}") from err
    elif subcommand in KERNEL_REQUIRED:
        raise SchemaError("kernel", f"{subcommand} requires a kernel spec")

    measures = _parse_measures(doc, kernel)
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise SchemaError("parameters", "expected an object")
    _validate_parameters(subcommand, parameters, measures, kernel)
    return ExperimentConfig(
        subcommand=subcommand,
        seed=seed,
        kernel=kernel,
        measures=measures,
        parameters=parameters,
        workers=workers,
        out=out,
    )


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
    metrics = config.parameters.get("metrics", [{"name": "DN", "N": 1}])
    rows = []
    for metric in metrics:
        name = metric["name"]
        if name == "DN":
            N = metric.get("N", 1)
            rows.append(("DN", f"N={_fmt(N)}", distance_DN(G, G2, N)))
        elif name == "Dr":
            r1 = metric.get("r1", 1)
            r2 = metric.get("r2", 1)
            value = distance_Dr1r2(G, G2, r1, r2)
            rows.append(("Dr", f"r1={_fmt(r1)},r2={_fmt(r2)}", value))
        elif name == "wasserstein":
            p = metric.get("p", 1)
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
    params = config.parameters
    name = params.get("name", "tv")
    N = params.get("N", 1)
    estimate = estimate_divergence(
        config.measures[0],
        config.measures[1],
        config.kernel,
        N,
        name,
        budget=params.get("budget", MC_DEFAULT_BUDGET),
        seed=config.seed,
        workers=config.workers,
    )
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
        n_values = _values(params, "n_grid", list(range(1, 2 * k + 2)))
        ranks = {}
        for n in n_values:
            report = bernoulli_first_order_system(G, int(n))
            rows.append(("rank", int(n), report.rank))
            ranks[int(n)] = report.rank
        full = 2 * k
        identified = [n for n, r in ranks.items() if r == full]
        length = min(identified) if identified else None
        envelope["first_order_identifiable_length"] = length
        envelope["ranks"] = [
            {"n": int(n), "rank": int(r)} for n, r in sorted(ranks.items())
        ]
    else:
        gram = first_order_gram(kernel, G.atoms, params.get("grid", "auto"))
        rows.append(("gram_min_eigenvalue", 0, gram))
        envelope["gram_min_eigenvalue"] = float(gram)
        if "direction" in params:
            residual = degenerate_direction_check(
                kernel, G, params["direction"], params.get("grid", "auto")
            )
            rows.append(("direction_residual", 0, residual))
            envelope["direction_residual"] = float(residual)
    return ("quantity", "index", "value"), rows, envelope


def _run_witness(config):
    G = config.measures[0]
    values = _values(config.parameters, "a", WITNESS_A)
    kernel = BernoulliKernel()
    rows = []
    found = []
    for a in values:
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


def _run_probe(config):
    params = config.parameters
    name = params["name"]
    G0 = config.measures[0]
    common = {}
    if "ell_grid" in params:
        common["ell_grid"] = tuple(params["ell_grid"])
    if name == "inverse_ratio":
        report = inverse_ratio_probe(
            config.kernel,
            G0,
            params["direction"],
            params["N"],
            budget=params.get("budget", MC_DEFAULT_BUDGET),
            seed=config.seed,
            workers=config.workers,
            **common,
        )
    elif name == "impact_Dr":
        report = impact_probe_Dr(
            config.kernel,
            G0,
            params["direction"],
            params["r"],
            budget=params.get("budget", MC_DEFAULT_BUDGET),
            seed=config.seed,
            workers=config.workers,
            **common,
        )
    elif name == "curvature_locscale":
        report = curvature_probe_locscale(G0, **common)
    else:
        extra = {}
        if "N_grid" in params:
            extra["N_grid"] = tuple(params["N_grid"])
        if "eps_grid" in params:
            extra["eps_grid"] = tuple(params["eps_grid"])
        report = sqrtN_sharpness_probe(
            config.kernel,
            G0,
            params["psi_exponent"],
            atom_index=params.get("atom_index", 0),
            coordinate=params.get("coordinate", 0),
            **extra,
        )
    records = report.row_records()
    header = (
        "probe",
        "series",
        "index",
        "numerator",
        "numerator_stderr",
        "denominator",
        "ratio",
        "method",
    )
    rows = [tuple(record[key] for key in header) for record in records]
    return header, rows, report.verdict_envelope()


def _run_minimax(config):
    params = config.parameters
    m_values, N_values = _values(params, "m"), _values(params, "N")
    gamma, beta0, a = params["gamma"], params["beta0"], params["a"]
    rows = []
    for m in m_values:
        for N in N_values:
            bound = lecam_two_point_bound(m, N, gamma, beta0, a)
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
    chain_config, prior = _chain_specs(params, config.kernel)
    report = contraction_experiment(
        config.kernel,
        config.measures[0],
        tuple(params["m_grid"]),
        tuple(params["length_law"]),
        params.get("replicates", 1),
        chain_config,
        config.seed,
        prior=prior,
        workers=config.workers,
    )
    records = report.row_records()
    header = tuple(records[0].keys())
    rows = [tuple(record[key] for key in header) for record in records]
    return header, rows, report.slope_envelope()


_RUNNERS = {
    "distance": _run_distance,
    "divergence": _run_divergence,
    "identify": _run_identify,
    "witness": _run_witness,
    "probe": _run_probe,
    "minimax": _run_minimax,
    "posterior-sim": _run_posterior_sim,
}


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
    header, rows, envelope = _RUNNERS[config.subcommand](config)
    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = config.subcommand.replace("-", "_")
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
    """Apply CLI/environment overrides and run."""
    updates = {}
    if seed is not None:
        updates["seed"] = _as_int(seed, "seed")
    if workers is not None:
        updates["workers"] = _as_int(workers, "workers", minimum=1)
    if out is not None:
        updates["out"] = out
    if updates:
        config = replace(config, **updates)
    return run(config)
