"""Self-tests of the benchmark: oracles, workload generation, smoke runs.

    python3 -m pytest perfbench

They are not part of the package's tier-1 suite (``testpaths`` is
``tests``).
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
import run
import tracer
import workloads

sys.path.insert(0, run.SRC)

SEED = 3


def _load(round_dir, op):
    base = os.path.join(round_dir, op.name, op.subcommand.replace("-", "_"))
    with open(base + ".json") as handle:
        envelope = json.load(handle)
    return envelope, run._read_csv(base + ".csv")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke round of every workload, run in this process."""
    out = {}
    for workload in workloads.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(workload))
        ops = workloads.write_inputs(workloads.build(workload, SEED, "smoke"),
                                     os.path.join(workdir, "inputs"))
        result, round_dir = run.Runner(ops, workdir, 1).run_round(0)
        assert result.failures == []
        out[workload] = (ops, round_dir, result)
    return out


def _ops(smoke, workload, subcommand):
    ops, round_dir, _ = smoke[workload]
    return [(op, *_load(round_dir, op)) for op in ops
            if isinstance(op, workloads.LabOp) and op.subcommand == subcommand]


def test_unperturbed_reports_pass(smoke):
    for workload, (ops, round_dir, result) in smoke.items():
        assert run.check_reports(ops, round_dir, result) == [], workload


def test_distance_oracle_rejects_perturbation(smoke):
    for op, env, _ in _ops(smoke, "sweep", "distance"):
        for i in range(len(env["values"])):
            bad = copy.deepcopy(env)
            bad["values"][i]["value"] += 1e-6
            metric = bad["values"][i]["metric"]
            if metric == "wasserstein" and op.config["parameters"]["metrics"][2]["p"] != 1.0 or (
                    metric == "wasserstein" and len(op.config["measures"][0]["atoms"][0]) > 1):
                bad["values"][i]["value"] = -1.0
            assert oracles.check_distance(op.config, bad), (op.name, i)


def test_divergence_oracle_rejects_perturbation(smoke):
    checked = 0
    for op, env, _ in _ops(smoke, "divergence", "divergence"):
        family, N = op.config["kernel"]["family"], op.config["parameters"]["N"]
        if family == "gamma" and N > 1:
            continue
        bad = dict(env)
        if env["method"] == "monte-carlo":
            bad["value"] = env["value"] + 5 * oracles.MC_SIGMAS * env["stderr"]
        elif family == "gaussian_location":
            bad["value"] = env["value"] + 2 * oracles.GAUSS_QUAD_TOL
        elif family == "gamma":
            bad["value"] = env["value"] + 2 * oracles.GAMMA_QUAD_TOL
        else:
            bad["value"] = env["value"] + 2 * oracles.EXACT_TOL
        assert oracles.check_divergence(op.config, bad), op.name
        checked += 1
    assert checked >= 5


def test_gamma_ladder_rejects_violations(smoke):
    cells = {}
    for op, env, _ in _ops(smoke, "divergence", "divergence"):
        if op.config["kernel"]["family"] == "gamma":
            key = (op.config["parameters"]["N"], op.config["parameters"]["name"])
            cells[key] = (env["value"], env["stderr"], op.config)
    assert oracles.check_gamma_ladder(cells) == []
    for key, change in (((8, "tv"), lambda v, s: v - 10 * oracles.MC_SIGMAS * s - 0.05),
                        ((3, "hellinger"), lambda v, s: v + 0.5),
                        ((3, "tv"), lambda v, s: 0.9)):
        bad = dict(cells)
        value, se, config = cells[key]
        bad[key] = (change(value, se), se, config)
        assert oracles.check_gamma_ladder(bad), key


def test_probe_oracle_rejects_perturbation(smoke):
    probes = _ops(smoke, "sweep", "probe") + _ops(smoke, "divergence", "probe")
    names = set()
    for op, env, rows in probes:
        assert oracles.check_probe(op.config, rows, env) == [], op.name
        bad = copy.deepcopy(rows)
        bad[0]["denominator"] *= 1 + 1e-7
        assert oracles.check_probe(op.config, bad, env), op.name
        bad = copy.deepcopy(rows)
        row = bad[-1]
        row["numerator"] += 5 * oracles.MC_SIGMAS * row["numerator_stderr"] + 1e-5
        assert oracles.check_probe(op.config, bad, env), op.name
        names.add(op.config["parameters"]["name"])
    assert names == {"inverse_ratio", "impact_Dr", "curvature_locscale", "sqrtN_sharpness"}


def test_identify_and_witness_oracles_reject_perturbation(smoke):
    for op, env, _ in _ops(smoke, "sweep", "identify"):
        bad = copy.deepcopy(env)
        if "ranks" in bad:
            bad["ranks"][0]["rank"] += 1
        else:
            bad["gram_min_eigenvalue"] = env["gram_min_eigenvalue"] * 1.1 + 2 * oracles.GRAM_ZERO
        assert oracles.check_identify(op.config, bad), op.name
        if "direction_residual" in env:
            bad = copy.deepcopy(env)
            bad["direction_residual"] = env["direction_residual"] * 1.1 + 2 * oracles.RESIDUAL_ZERO
            assert oracles.check_identify(op.config, bad), op.name
    for op, env, _ in _ops(smoke, "sweep", "witness"):
        bad = copy.deepcopy(env)
        bad["witnesses"][0]["tv_at_next_length"] += 2 * oracles.WITNESS_TOL
        assert oracles.check_witness(op.config, bad), op.name
        bad = copy.deepcopy(env)
        bad["witnesses"][0]["witness"]["atoms"][0][0] *= 1 + 1e-3
        assert oracles.check_witness(op.config, bad), op.name


def test_minimax_oracle_rejects_perturbation(smoke):
    for op, env, _ in _ops(smoke, "sweep", "minimax"):
        bad = copy.deepcopy(env)
        bad["bounds"][-1]["bound"] *= 1 + 1e-10
        assert oracles.check_minimax(op.config, bad)


def test_contraction_oracles_reject_perturbation(smoke):
    for op, env, rows in _ops(smoke, "contraction", "posterior-sim"):
        for field, value in (("d_p_q50", rows[0]["d_p_q95"] + 1.0), ("acceptance", 1.0),
                             ("total_length", rows[0]["total_length"] + 9 * rows[0]["m"])):
            bad = copy.deepcopy(rows)
            bad[0][field] = value
            assert oracles.check_contraction(op.config, bad, env), (op.name, field)
    ops, _, result = smoke["contraction"]
    chain_op = next(op for op in ops if isinstance(op, workloads.ChainOp))
    summary = result.chains[chain_op.name]
    box = workloads.CHAIN_PRIOR_BOX
    assert oracles.check_chain(summary, chain_op.sequences, box) == []
    for i in range(3):
        draws = list(summary["draws"])
        _, se = oracles.batch_means(draws[i])
        draws[i] = draws[i] + 2 * oracles.CHAIN_SIGMAS * se
        assert oracles.check_chain({**summary, "draws": draws}, chain_op.sequences, box), i


def test_grid_posterior_respects_reflection_symmetry():
    # Data with one success in two draws per sequence are unchanged by
    # theta -> 1 - theta, which swaps the ordered atoms and hands the smaller
    # atom the other weight: E[low] + E[high] = 1 and E[w_low] = 1/2.
    lo, hi, w = oracles.bernoulli_posterior_means([[0.0, 1.0], [1.0, 0.0]], (0.01, 0.99))
    assert 0.01 < lo < hi < 0.99
    assert abs(lo + hi - 1.0) < 1e-9
    assert abs(w - 0.5) < 1e-9


def test_closed_form_densities_match_scipy_stats():
    from scipy import stats

    for x in (0.05, 0.7, 2.0, 9.0):
        assert math.isclose(oracles.gamma_pdf(2.3, 3.1)(x), stats.gamma.pdf(x, 2.3, scale=1 / 3.1),
                            rel_tol=1e-12)
        assert math.isclose(oracles.expon_pdf(-0.4, 1.7)(x), stats.expon.pdf(x, -0.4, 1.7),
                            rel_tol=1e-12)
    assert oracles.gamma_pdf(2.3, 3.1)(-1.0) == 0.0 and oracles.expon_pdf(0.5, 1.0)(0.2) == 0.0


def test_workload_generation_is_deterministic():
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            def dump(seed):
                return json.dumps([{k: v for k, v in vars(op).items() if k != "config_path"}
                                   for op in workloads.build(workload, seed, size)], sort_keys=True)
            assert dump(11) == dump(11)
            assert dump(11) != dump(12)


def test_seed_moves_values_not_work():
    """Operation names and the parameters that set their cost repeat."""
    def shape(seed):
        out = []
        for op in workloads.build("divergence", seed) + workloads.build("contraction", seed):
            if isinstance(op, workloads.LabOp):
                params = {k: v for k, v in op.config.get("parameters", {}).items()
                          if k not in ("direction",)}
                out.append((op.name, json.dumps(params, sort_keys=True)))
            else:
                out.append((op.name, op.steps, len(op.sequences)))
        return out

    assert shape(1) == shape(2)
    a = {op.name: op.config for op in workloads.build("divergence", 1)}
    b = {op.name: op.config for op in workloads.build("divergence", 2)}
    assert a["gauss3_tv_N2"]["measures"] == b["gauss3_tv_N2"]["measures"]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:      1000 |       1000 |       numpy._core",
        "import time:       500 |       1500 |     numpy",
        "import time:       200 |        200 |       numpy.linalg",
        "import time:      3000 |       3200 |     scipy",
        "import time:        50 |         50 |     json",
        "import time:       300 |       5050 |   mixlab.kernels",
        "import time:        10 |       5060 | mixlab",
        "import time:       400 |        400 |   click",
        "import time:        20 |        420 | mixlab.cli",
    ])
    split = run.parse_importtime(text)
    assert math.isclose(split["setup.numpy_s"], 1500e-6)
    assert math.isclose(split["setup.scipy_s"], 3200e-6)
    assert math.isclose(split["setup.click_s"], 400e-6)
    assert math.isclose(split["setup.mixlab_self_s"], 480e-6)


def test_tracer_restores_every_binding():
    import mixlab.cli  # noqa: F401
    from mixlab import kernels, lab, measures, posterior

    before = (lab.contraction_experiment, posterior.mcmc_run,
              measures.MixingMeasure.__dict__["__post_init__"],
              kernels.GammaKernel.__dict__["log_density"])
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert posterior.mcmc_run is not before[1]
        measures.MixingMeasure(np.array([[0.1], [0.2]]), [0.5, 0.5])
        kernels.GammaKernel().log_density(np.ones(7), [2.0, 1.0])
        assert recorder.stats["measures.MixingMeasure.calls"] == 1
        assert recorder.stats["kernels.log_density.points"] == 7
    finally:
        recorder.uninstall()
    after = (lab.contraction_experiment, posterior.mcmc_run,
             measures.MixingMeasure.__dict__["__post_init__"],
             kernels.GammaKernel.__dict__["log_density"])
    assert all(a is b for a, b in zip(before, after))


def test_tracer_self_time_subtracts_children_on_worker_threads():
    from concurrent.futures import ThreadPoolExecutor

    recorder = tracer.Recorder()
    child = recorder.wrap("toy.child", lambda: time.sleep(0.05))

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: child(), range(2)))

    recorder.span("toy.parent", parent)
    stats = recorder.stats
    assert stats["toy.child.calls"] == 2
    assert stats["toy.child.s"] >= 0.1
    assert stats["toy.parent.s"] >= 0.05
    assert stats["toy.parent.self_s"] < 0.04


def _bench(*args, cwd=None):
    cmd = [sys.executable, os.path.join(cwd or run.ROOT, "perfbench", "run.py"), *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd or run.ROOT, capture_output=True, text=True, timeout=170)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_finishes_in_seconds(workload):
    proc, elapsed = _bench("--workload", workload, "--seed", "4", "--seconds", "0.1",
                           "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert elapsed < 60.0


def test_traced_smoke_run_reports_every_layer():
    proc, _ = _bench("--workload", "contraction", "--seed", "4", "--seconds", "0.1",
                     "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["posterior.mcmc_run.calls"]["value"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc, elapsed = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                           cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert elapsed < 60.0
