"""Tests for config parsing, subcommand dispatch, and report emission."""

import copy
import csv
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import mixlab
from mixlab.cli import main
from mixlab.errors import SchemaError
from mixlab.lab import ExperimentConfig, parse_config, run, run_with_overrides

WEIGHT_SHIFT = {
    "subcommand": "distance",
    "seed": 7,
    "measures": [
        {"atoms": [[0.2], [0.8]], "weights": [0.5, 0.5]},
        {"atoms": [[0.2], [0.8]], "weights": [0.3, 0.7]},
    ],
    "parameters": {"metrics": [{"name": "DN", "N": 9}]},
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestParseConfig:
    def test_minimal_distance_round_trip(self):
        config = parse_config(json.dumps(WEIGHT_SHIFT))
        assert isinstance(config, ExperimentConfig)
        assert config.subcommand == "distance"
        assert config.seed == 7
        assert config.workers == 1
        assert len(config.measures) == 2
        assert config.measures[0].k == 2

    def test_missing_seed(self):
        doc = dict(WEIGHT_SHIFT)
        del doc["seed"]
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "seed" in str(err.value)

    def test_gamma_atom_outside_box(self):
        doc = {
            "subcommand": "divergence",
            "seed": 1,
            "kernel": {"family": "gamma"},
            "measures": [
                {"atoms": [[0.0, 2.0]], "weights": [1.0]},
                {"atoms": [[1.0, 2.0]], "weights": [1.0]},
            ],
        }
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        message = str(err.value)
        assert "measures[0].atoms[0]" in message
        assert "box" in message

    def test_invalid_json_and_shape(self):
        with pytest.raises(SchemaError):
            parse_config("{not json")
        with pytest.raises(SchemaError):
            parse_config(json.dumps([1, 2]))

    def test_unknown_subcommand(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps({"subcommand": "frobnicate", "seed": 1}))
        assert "subcommand" in str(err.value)

    def test_kernel_required_where_needed(self):
        doc = {
            "subcommand": "divergence",
            "seed": 1,
            "measures": WEIGHT_SHIFT["measures"],
        }
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "kernel" in str(err.value)

    def test_unknown_kernel_family(self):
        doc = {
            "subcommand": "identify",
            "seed": 1,
            "kernel": {"family": "cauchy"},
            "measures": [{"atoms": [[0.5]], "weights": [1.0]}],
        }
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "kernel" in str(err.value)

    def test_distance_needs_two_measures(self):
        doc = dict(WEIGHT_SHIFT)
        doc["measures"] = WEIGHT_SHIFT["measures"][:1]
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "measures" in str(err.value)

    def test_bad_seed_and_workers_types(self):
        doc = dict(WEIGHT_SHIFT)
        doc["seed"] = "seven"
        with pytest.raises(SchemaError):
            parse_config(json.dumps(doc))
        doc = dict(WEIGHT_SHIFT)
        doc["workers"] = 0
        with pytest.raises(SchemaError):
            parse_config(json.dumps(doc))

    def test_probe_parameter_checks(self):
        base = {
            "subcommand": "probe",
            "seed": 1,
            "kernel": {"family": "gamma"},
            "measures": [{"atoms": [[2.0, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]}],
        }
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps({**base, "parameters": {}}))
        assert "parameters.name" in str(err.value)
        with pytest.raises(SchemaError) as err:
            parse_config(
                json.dumps({**base, "parameters": {"name": "inverse_ratio"}})
            )
        assert "parameters.direction" in str(err.value)
        with pytest.raises(SchemaError) as err:
            parse_config(
                json.dumps(
                    {
                        **base,
                        "parameters": {
                            "name": "impact_Dr",
                            "direction": [0, 0, 0, 0, 1, -1],
                            "r": 0.5,
                        },
                    }
                )
            )
        assert "parameters.r" in str(err.value)

    def test_posterior_sim_parameter_checks(self):
        base = {
            "subcommand": "posterior-sim",
            "seed": 1,
            "kernel": {"family": "bernoulli"},
            "measures": [{"atoms": [[0.25], [0.75]], "weights": [0.4, 0.6]}],
        }
        with pytest.raises(SchemaError) as err:
            parse_config(
                json.dumps(
                    {
                        **base,
                        "parameters": {
                            "m_grid": [100],
                            "length_law": ["constant", 3],
                        },
                    }
                )
            )
        assert "m_grid" in str(err.value)

    def test_minimax_requires_all_fields(self):
        doc = {
            "subcommand": "minimax",
            "seed": 1,
            "parameters": {"m": 100, "N": 4, "gamma": 1.0, "beta0": 1.0},
        }
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "parameters.a" in str(err.value)


class TestRunSubcommands:
    def test_distance_weight_shift_emits_04(self, tmp_path):
        config = parse_config(json.dumps({**WEIGHT_SHIFT, "out": str(tmp_path)}))
        result = run(config)
        assert result["status"] == 0
        rows = read_csv(tmp_path / "distance.csv")
        assert len(rows) == 1
        assert rows[0]["metric"] == "DN"
        assert abs(float(rows[0]["value"]) - 0.4) < 1e-12
        envelope = read_json(tmp_path / "distance.json")
        assert abs(envelope["values"][0]["value"] - 0.4) < 1e-12

    def test_witness_reproduces_k2_check(self, tmp_path):
        doc = {
            "subcommand": "witness",
            "seed": 1,
            "out": str(tmp_path),
            "measures": [{"atoms": [[0.3], [0.7]], "weights": [0.5, 0.5]}],
            "parameters": {"a": [1.0, 2.0]},
        }
        run(parse_config(json.dumps(doc)))
        rows = read_csv(tmp_path / "witness.csv")
        by_quantity = {}
        for row in rows:
            by_quantity.setdefault(row["quantity"], []).append(float(row["value"]))
        assert all(v < 1e-10 for v in by_quantity["moment_mismatch"])
        assert all(v < 1e-10 for v in by_quantity["tv_at_matched_length"])
        assert all(v > 1e-4 for v in by_quantity["tv_at_next_length"])
        envelope = read_json(tmp_path / "witness.json")
        assert len(envelope["witnesses"]) == 2
        assert envelope["witnesses"][0]["n_matched"] == 2

    def test_identify_bernoulli_ranks(self, tmp_path):
        doc = {
            "subcommand": "identify",
            "seed": 1,
            "out": str(tmp_path),
            "kernel": {"family": "bernoulli"},
            "measures": [{"atoms": [[0.3], [0.7]], "weights": [0.5, 0.5]}],
        }
        run(parse_config(json.dumps(doc)))
        rows = read_csv(tmp_path / "identify.csv")
        for row in rows:
            n = int(row["index"])
            assert int(row["value"]) == min(n + 1, 4)
        envelope = read_json(tmp_path / "identify.json")
        assert envelope["first_order_identifiable_length"] == 3

    def test_identify_gamma_direction_residual(self, tmp_path):
        doc = {
            "subcommand": "identify",
            "seed": 1,
            "out": str(tmp_path),
            "kernel": {"family": "gamma"},
            "measures": [
                {"atoms": [[2.0, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]}
            ],
            "parameters": {"direction": [0.0, 1.5, 0.0, 0.0, -1.0, 1.0]},
        }
        run(parse_config(json.dumps(doc)))
        envelope = read_json(tmp_path / "identify.json")
        assert envelope["direction_residual"] < 1e-10
        assert envelope["gram_min_eigenvalue"] < 1e-8

    def test_minimax_spot_value(self, tmp_path):
        doc = {
            "subcommand": "minimax",
            "seed": 1,
            "out": str(tmp_path),
            "parameters": {
                "m": [100, 200],
                "N": 4,
                "gamma": 1.0,
                "beta0": 1.0,
                "a": 0.5,
            },
        }
        run(parse_config(json.dumps(doc)))
        rows = read_csv(tmp_path / "minimax.csv")
        assert len(rows) == 2
        assert float(rows[0]["bound"]) == 0.003125

    def test_probe_curvature_report(self, tmp_path):
        doc = {
            "subcommand": "probe",
            "seed": 1,
            "out": str(tmp_path),
            "kernel": {"family": "locscale_exponential"},
            "measures": [
                {
                    "atoms": [[0.0, 1.0], [0.0, 2.0]],
                    "weights": [0.3333333333333333, 0.6666666666666667],
                }
            ],
            "parameters": {"name": "curvature_locscale"},
        }
        run(parse_config(json.dumps(doc)))
        rows = read_csv(tmp_path / "probe.csv")
        assert {row["series"] for row in rows} == {"pair", "single"}
        envelope = read_json(tmp_path / "probe.json")
        assert envelope["verdicts"]["pair"]["vanishing"] is True
        assert envelope["verdicts"]["single"]["bounded_away"] is True

    def test_posterior_sim_structure(self, tmp_path):
        doc = {
            "subcommand": "posterior-sim",
            "seed": 11,
            "out": str(tmp_path),
            "kernel": {"family": "bernoulli"},
            "measures": [{"atoms": [[0.25], [0.75]], "weights": [0.4, 0.6]}],
            "parameters": {
                "m_grid": [20, 40],
                "length_law": ["constant", 3],
                "replicates": 2,
                "mcmc": {"steps": 400},
            },
        }
        run(parse_config(json.dumps(doc)))
        rows = read_csv(tmp_path / "posterior_sim.csv")
        assert len(rows) == 4
        assert {row["m"] for row in rows} == {"20", "40"}
        envelope = read_json(tmp_path / "posterior_sim.json")
        assert set(envelope["slopes"]) == {"d_p_vs_m", "d_theta_vs_total_length"}

    def test_propagated_error_leaves_no_outputs(self, tmp_path):
        doc = {
            "subcommand": "probe",
            "seed": 1,
            "out": str(tmp_path),
            "kernel": {"family": "gamma"},
            "measures": [
                {"atoms": [[2.0, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]}
            ],
            "parameters": {
                "name": "inverse_ratio",
                "direction": [1.0, 0.0],
                "N": 1,
            },
        }
        from mixlab.errors import MixLabError

        with pytest.raises(MixLabError):
            run(parse_config(json.dumps(doc)))
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    MC_DOC = {
        "subcommand": "divergence",
        "seed": 9,
        "kernel": {"family": "gamma"},
        "measures": [
            {"atoms": [[2.0, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]},
            {"atoms": [[2.2, 3.0], [3.0, 3.1]], "weights": [0.45, 0.55]},
        ],
        "parameters": {"name": "hellinger", "N": 3, "budget": 20000},
    }

    def test_rerun_and_worker_count_byte_identical(self, tmp_path):
        outputs = {}
        for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / tag
            config = parse_config(json.dumps({**self.MC_DOC, "out": str(out)}))
            run_with_overrides(config, workers=workers)
            outputs[tag] = (
                (out / "divergence.csv").read_bytes(),
                (out / "divergence.json").read_bytes(),
            )
        assert outputs["a"] == outputs["b"] == outputs["c"]

    def test_posterior_sim_worker_invariance(self, tmp_path):
        doc = {
            "subcommand": "posterior-sim",
            "seed": 4,
            "kernel": {"family": "bernoulli"},
            "measures": [{"atoms": [[0.25], [0.75]], "weights": [0.4, 0.6]}],
            "parameters": {
                "m_grid": [15, 30],
                "length_law": ["constant", 3],
                "replicates": 2,
                "mcmc": {"steps": 300},
            },
        }
        blobs = []
        for tag, workers in (("w1", 1), ("w4", 4)):
            out = tmp_path / tag
            config = parse_config(json.dumps({**doc, "out": str(out)}))
            run_with_overrides(config, workers=workers)
            blobs.append((out / "posterior_sim.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestCLI:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_distance_command(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path, WEIGHT_SHIFT)
        out = str(tmp_path / "rep")
        result = runner.invoke(
            main, ["distance", "--config", config, "--out", out]
        )
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(out, "distance.csv"))

    def test_subcommand_mismatch(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path, WEIGHT_SHIFT)
        result = runner.invoke(main, ["minimax", "--config", config])
        assert result.exit_code == 1
        assert "subcommand" in result.output

    def test_schema_error_exit_code(self, tmp_path):
        doc = dict(WEIGHT_SHIFT)
        del doc["seed"]
        runner = CliRunner()
        config = self.write_config(tmp_path, doc)
        result = runner.invoke(main, ["distance", "--config", config])
        assert result.exit_code == 1
        assert "seed" in result.output

    def test_seed_override_changes_mc_output(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path, TestDeterminism.MC_DOC)
        values = []
        for tag, seed in (("s9", None), ("s10", "10")):
            out = str(tmp_path / tag)
            args = ["divergence", "--config", config, "--out", out]
            if seed is not None:
                args += ["--seed", seed]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            values.append(read_csv(os.path.join(out, "divergence.csv"))[0]["value"])
        assert values[0] != values[1]

    def test_lab_workers_env(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path, TestDeterminism.MC_DOC)
        out = str(tmp_path / "env")
        result = runner.invoke(
            main,
            ["divergence", "--config", config, "--out", out],
            env={"LAB_WORKERS": "4"},
        )
        assert result.exit_code == 0, result.output
        baseline = str(tmp_path / "base")
        result = runner.invoke(
            main, ["divergence", "--config", config, "--out", baseline]
        )
        assert result.exit_code == 0
        with open(os.path.join(out, "divergence.csv"), "rb") as a:
            with open(os.path.join(baseline, "divergence.csv"), "rb") as b:
                assert a.read() == b.read()

    def test_bad_lab_workers_env(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path, TestDeterminism.MC_DOC)
        result = runner.invoke(
            main,
            ["divergence", "--config", config],
            env={"LAB_WORKERS": "many"},
        )
        assert result.exit_code == 1
        assert "LAB_WORKERS" in result.output

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_lab_workers_below_one_names_the_variable(self, tmp_path, value):
        runner = CliRunner()
        config = self.write_config(tmp_path, TestDeterminism.MC_DOC)
        result = runner.invoke(
            main,
            ["divergence", "--config", config],
            env={"LAB_WORKERS": value},
        )
        assert result.exit_code == 1
        assert "error: LAB_WORKERS: must be >= 1" in result.output

    def test_missing_config_file(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["distance", "--config", str(tmp_path / "nope.json")]
        )
        assert result.exit_code != 0


POSTERIOR_SIM = {
    "subcommand": "posterior-sim",
    "seed": 1,
    "kernel": {"family": "bernoulli"},
    "measures": [{"atoms": [[0.25], [0.75]], "weights": [0.4, 0.6]}],
    "parameters": {
        "m_grid": [15, 30],
        "length_law": ["constant", 3],
        "replicates": 2,
        "mcmc": {"steps": 200},
    },
}


def _posterior_sim_with(**changes):
    doc = copy.deepcopy(POSTERIOR_SIM)
    for key, value in changes.items():
        if key.startswith("mcmc_"):
            doc["parameters"]["mcmc"][key[len("mcmc_"):]] = value
        else:
            doc["parameters"][key] = value
    return doc


def _probe_with(**changes):
    return {
        "subcommand": "probe",
        "seed": 5,
        "kernel": {"family": "gamma"},
        "measures": [{"atoms": [[2.0, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]}],
        "parameters": {
            "name": "inverse_ratio",
            "direction": [0.0, 1.5, 0.0, 0.0, -1.0, 1.0],
            "N": 3,
            **changes,
        },
    }


def _identify_with(**parameters):
    return dict(_probe_with(), subcommand="identify", parameters=parameters)


def _gauss_with(params_fixed, subcommand, **parameters):
    """A Gaussian location config of one subcommand."""
    measures = [
        {"atoms": [[-1.0], [1.0]], "weights": [0.4, 0.6]},
        {"atoms": [[-0.9], [1.2]], "weights": [0.45, 0.55]},
    ]
    return {
        "subcommand": subcommand,
        "seed": 1,
        "kernel": {"family": "gaussian_location", "params_fixed": params_fixed},
        "measures": measures if subcommand == "divergence" else measures[:1],
        "parameters": parameters,
    }


def _divergence_with_kernel(family, params_fixed):
    doc = dict(TestDeterminism.MC_DOC)
    doc["kernel"] = {"family": family, "params_fixed": params_fixed}
    if family == "gaussian_location":
        doc["measures"] = WEIGHT_SHIFT["measures"]
    return doc


CONFIG_FAULTS = {
    "mcmc_not_object": _posterior_sim_with(mcmc=5),
    "burn_fraction_string": _posterior_sim_with(mcmc_burn_fraction="x"),
    "prior_box_string": _posterior_sim_with(prior_box="x"),
    "misspelt_mcmc_key": _posterior_sim_with(mcmc_stepz=10),
    "minimax_empty_m": {
        "subcommand": "minimax",
        "seed": 1,
        "parameters": {"m": [], "N": 4, "gamma": 1.0, "beta0": 1.0, "a": 1.0},
    },
    "length_law_string_length": _posterior_sim_with(length_law=["constant", "x"]),
    "length_law_list_bound": _posterior_sim_with(length_law=["uniform", 3, [5]]),
    "posterior_sim_one_distinct_m": _posterior_sim_with(m_grid=[60, 60]),
    "witness_empty_a": {
        "subcommand": "witness",
        "seed": 1,
        "measures": [{"atoms": [[0.3], [0.7]], "weights": [0.5, 0.5]}],
        "parameters": {"a": []},
    },
    "distance_empty_metrics": dict(WEIGHT_SHIFT, parameters={"metrics": []}),
    "divergence_budget_string": dict(
        TestDeterminism.MC_DOC,
        parameters={"name": "hellinger", "N": 3, "budget": "x"},
    ),
    "probe_budget_negative": _probe_with(budget=-5),
    "probe_budget_fraction": _probe_with(budget=100000.5),
    "identify_n_grid_string": _identify_with(n_grid="x"),
    "identify_direction_string": _identify_with(direction="x"),
    "probe_direction_strings": _probe_with(direction=["a"]),
    "probe_ell_grid_string": _probe_with(ell_grid="x"),
    "distance_DN_N_string": dict(
        WEIGHT_SHIFT, parameters={"metrics": [{"name": "DN", "N": "x"}]}
    ),
    "distance_Dr_r1_string": dict(
        WEIGHT_SHIFT, parameters={"metrics": [{"name": "Dr", "r1": "x"}]}
    ),
    "misspelt_parameter": dict(
        TestDeterminism.MC_DOC, parameters={"nmae": "hellinger", "N": 3}
    ),
    "misspelt_top_level_key": dict(WEIGHT_SHIFT, kernal={"family": "bernoulli"}),
    "misspelt_params_fixed_key": _divergence_with_kernel(
        "gaussian_location", {"sigmaa": 2.0}
    ),
    "params_fixed_string": _divergence_with_kernel("gaussian_location", "x"),
    "gamma_normalized_string": _divergence_with_kernel("gamma", {"normalized": "no"}),
    "mixture_k_fraction": {
        "subcommand": "identify",
        "seed": 1,
        "kernel": {"family": "gaussian_location_mixture", "params_fixed": {"k": 2.5}},
        "measures": [{"atoms": [[0.5, -1.0, 1.0]], "weights": [1.0]}],
    },
    "probe_atom_index_string": dict(
        _probe_with(),
        parameters={"name": "sqrtN_sharpness", "psi_exponent": 1.0, "atom_index": "x"},
    ),
    "identify_grid_empty": _identify_with(grid={}),
    "identify_grid_points_string": _identify_with(grid={"points": "x"}),
    "kernel_sigma_nan": dict(
        _divergence_with_kernel("gaussian_location", {"sigma": float("nan")}),
        parameters={"name": "tv", "N": 2},
    ),
    "probe_N_grid_infinite": dict(
        _probe_with(),
        parameters={
            "name": "sqrtN_sharpness", "psi_exponent": 1.0, "N_grid": [1, float("inf")]
        },
    ),
    "seed_negative": dict(TestDeterminism.MC_DOC, seed=-1),
    "seed_flag_negative": (TestDeterminism.MC_DOC, ["--seed", "-1"]),
    # Arithmetic faults: each used to end in a traceback or never return.
    "probe_distance_underflow": _gauss_with(
        {}, "probe", name="inverse_ratio", direction=[1.0, -0.5, 0.3, -0.3], N=1,
        ell_grid=[1e300, 1e308],
    ),
    "probe_transport_cost_underflow": dict(
        _probe_with(),
        kernel={"family": "bernoulli"},
        measures=[{"atoms": [[0.3], [0.8]], "weights": [0.5, 0.5]}],
        parameters={"name": "impact_Dr", "direction": [0.0, 0.0, 1.0, -1.0], "r": 1e300},
    ),
    "probe_psi_exponent_overflow": _gauss_with(
        {}, "probe", name="sqrtN_sharpness", psi_exponent=1e300
    ),
    "divergence_sigma_square_overflows": _gauss_with({"sigma": 1e155}, "divergence"),
    "identify_sigma_square_overflows": _gauss_with({"sigma": 1e155}, "identify"),
    "posterior_sim_sigma_square_underflows": _gauss_with(
        {"sigma": 1e-300}, "posterior-sim", **POSTERIOR_SIM["parameters"],
        prior_box=[[-3.0, 3.0]],
    ),
    "divergence_N_beyond_float": _gauss_with({}, "divergence", N=10**400),
    "minimax_beta0_overflow": {
        "subcommand": "minimax",
        "seed": 1,
        "parameters": {"m": [1], "N": [1], "gamma": 0.1, "beta0": 1e-300, "a": 0.5},
    },
    "minimax_m_N_underflow": {
        "subcommand": "minimax",
        "seed": 1,
        "parameters": {"m": [1e-300], "N": [1e-300], "gamma": 1, "beta0": 1, "a": 0.5},
    },
    "divergence_gamma_shape_huge": dict(
        TestDeterminism.MC_DOC,
        measures=[
            {"atoms": [[1e300, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]},
            {"atoms": [[2.2, 3.0], [3.0, 3.1]], "weights": [0.45, 0.55]},
        ],
        parameters={"name": "hellinger", "N": 1},
    ),
    "identify_gamma_shape_huge": dict(
        _identify_with(),
        measures=[{"atoms": [[1e300, 3.0], [3.0, 3.0]], "weights": [0.5, 0.5]}],
    ),
    "divergence_count_law_too_large": dict(
        WEIGHT_SHIFT,
        subcommand="divergence",
        kernel={"family": "bernoulli"},
        parameters={"name": "tv", "N": 10**12},
    ),
}


class TestConfigFaults:
    @pytest.mark.parametrize("name", sorted(CONFIG_FAULTS))
    def test_fault_exits_with_error_line(self, tmp_path, name):
        entry = CONFIG_FAULTS[name]
        doc, flags = entry if isinstance(entry, tuple) else (entry, [])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mixlab.__file__))
        proc = subprocess.run(
            [
                sys.executable, "-m", "mixlab.cli", doc["subcommand"],
                "--config", str(config), "--out", str(tmp_path / "out"), *flags,
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
