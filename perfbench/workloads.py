"""Workload generation: every input a run feeds to mixlab, made from a seed.

A workload is a list of operations repeated as one round. An operation is
either one `lab` report (a config file written before timing starts) or the
direct `mcmc_run` call of the contraction workload (a JSONL dataset drawn
here). The same (workload, seed, size) always yields the same files, and
every operation costs the same whatever the seed: the seed moves values, not
the shape of the work.
"""

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("contraction", "divergence", "sweep")
SIZES = ("full", "smoke")

# The direct chain of the contraction workload; the oracles integrate its
# posterior on a grid and compare means in batch-means standard errors.
# The sampler moves atoms by steps proportional to the prior box width and
# log-ratio weights by a fixed multiple of the same scale, so a wide box
# leaves the weight coordinate mixing far slower than the atoms. With length
# 8, the box [0.2, 0.8] and half the chain as burn-in, chain-mean errors over
# 37 datasets had an RMS of 0.9-1.0 batch-means standard errors (50
# batches); with length 3 or the box [0.01, 0.99] it was 1.2-1.5, which
# fails a 4-stderr check on about one run in a hundred.
CHAIN_TRUTH_ATOMS = (0.25, 0.75)
CHAIN_TRUTH_WEIGHTS = (0.4, 0.6)
CHAIN_PRIOR_BOX = (0.2, 0.8)
CHAIN_LENGTH = 8
CHAIN_INITIAL_SCALE = 0.02
CHAIN_BURN_FRACTION = 0.5

# Per-round sizes. "full" is what a run measures; "smoke" keeps every
# operation kind but shrinks it so the self-tests finish in seconds.
PARAMS = {
    "full": {
        "bern_m_grid": [60, 120],
        "bern_replicates": 2,
        "bern_steps": 500,
        "gauss_m_grid": [24, 48],
        "gauss_replicates": 2,
        "gauss_steps": 400,
        "chain_m": 1000,
        "chain_steps": 12000,
        "probe_budget": 200000,
        "mc_budget": 1000000,
        "distance_reps": 16,
        "identify_reps": 6,
        "witness_reps": 6,
        "probe_reps": 4,
        "minimax_reps": 16,
    },
    "smoke": {
        "bern_m_grid": [20, 40],
        "bern_replicates": 2,
        "bern_steps": 200,
        "gauss_m_grid": [10, 20],
        "gauss_replicates": 2,
        "gauss_steps": 200,
        "chain_m": 1000,
        "chain_steps": 3000,
        "probe_budget": 20000,
        "mc_budget": 20000,
        "distance_reps": 1,
        "identify_reps": 1,
        "witness_reps": 1,
        "probe_reps": 1,
        "minimax_reps": 1,
    },
}


@dataclass
class LabOp:
    """One `lab <subcommand> --config <path>` report."""

    name: str
    subcommand: str
    config: dict
    config_path: str = ""


@dataclass
class ChainOp:
    """The direct `mcmc_run` call on a dataset the benchmark drew itself."""

    name: str
    dataset_path: str
    steps: int
    seed: int
    sequences: list = field(default_factory=list)


def _rng(workload, seed):
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed), tag, 20040554])


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _measure(atoms, weights):
    return {
        "atoms": [[float(v) for v in atom] for atom in atoms],
        "weights": [float(w) for w in weights],
    }


def _weights(rng, k, floor=0.08):
    """Dirichlet weights kept away from zero, summing to 1 exactly enough
    for mixlab's 1e-12 check."""
    raw = floor + (1.0 - k * floor) * rng.dirichlet(np.ones(k))
    raw[-1] = 1.0 - raw[:-1].sum()
    return raw


def _separated(rng, k, q, lo, hi, gap):
    while True:
        atoms = rng.uniform(lo, hi, size=(k, q))
        if k == 1:
            return atoms
        diff = atoms[:, None, :] - atoms[None, :, :]
        dists = np.sqrt((diff**2).sum(axis=2))[np.triu_indices(k, 1)]
        if dists.min() > gap:
            return atoms


def _jitter(rng, values, scale):
    return [float(v + scale * rng.uniform(-1.0, 1.0)) for v in values]


def _contraction(rng, p):
    ops = []
    ops.append(
        LabOp(
            "posterior_bernoulli",
            "posterior-sim",
            {
                "subcommand": "posterior-sim",
                "seed": _seed(rng),
                "kernel": {"family": "bernoulli"},
                "measures": [_measure([[0.25], [0.75]], [0.4, 0.6])],
                "parameters": {
                    "m_grid": p["bern_m_grid"],
                    "length_law": ["constant", 3],
                    "replicates": p["bern_replicates"],
                    "mcmc": {"steps": p["bern_steps"]},
                },
            },
        )
    )
    ops.append(
        LabOp(
            "posterior_gaussian",
            "posterior-sim",
            {
                "subcommand": "posterior-sim",
                "seed": _seed(rng),
                "kernel": {"family": "gaussian_location", "params_fixed": {"sigma": 1.0}},
                "measures": [_measure([[-1.0], [1.0]], [0.4, 0.6])],
                "parameters": {
                    "m_grid": p["gauss_m_grid"],
                    "length_law": ["uniform", 2, 8],
                    "replicates": p["gauss_replicates"],
                    "prior_box": [[-4.0, 4.0]],
                    "mcmc": {"steps": p["gauss_steps"], "initial_scale": 0.05},
                },
            },
        )
    )
    comps = rng.choice(2, size=p["chain_m"], p=list(CHAIN_TRUTH_WEIGHTS))
    thetas = np.asarray(CHAIN_TRUTH_ATOMS)[comps]
    draws = (rng.random((p["chain_m"], CHAIN_LENGTH)) < thetas[:, None]).astype(float)
    ops.append(
        ChainOp(
            "mcmc_run_bernoulli",
            "",
            p["chain_steps"],
            _seed(rng),
            sequences=[row.tolist() for row in draws],
        )
    )
    return ops


GAMMA_PAIR = (((2.0, 3.0), (3.0, 3.0)), ((2.2, 3.0), (3.0, 3.1)))


def _divergence(rng, p):
    ops = []
    g0 = _measure([[-1.0], [1.0]], _jitter(rng, [0.4], 0.02) + [0.0])
    g0["weights"][1] = 1.0 - g0["weights"][0]
    direction = [1.0, -0.5, 0.3, -0.3]
    ops.append(
        LabOp(
            "probe_gauss_N64",
            "probe",
            {
                "subcommand": "probe",
                "seed": _seed(rng),
                "kernel": {"family": "gaussian_location"},
                "measures": [g0],
                "parameters": {
                    "name": "inverse_ratio",
                    "direction": direction,
                    "N": 64,
                    "budget": p["probe_budget"],
                },
            },
        )
    )
    (a1, a2), (b1, b2) = GAMMA_PAIR
    gamma_p = [_jitter(rng, a1, 0.05), _jitter(rng, a2, 0.05)]
    gamma_q = [_jitter(rng, b1, 0.05), _jitter(rng, b2, 0.05)]
    wp = _jitter(rng, [0.5], 0.03)[0]
    wq = _jitter(rng, [0.45], 0.03)[0]
    gamma_measures = [
        _measure(gamma_p, [wp, 1.0 - wp]),
        _measure(gamma_q, [wq, 1.0 - wq]),
    ]
    # TV at N=1 is left out: its adaptive quadrature missed its 1e-8 error
    # target on 5 of about 360 seeded gamma pairs tried, once by 1.3e-7, so
    # the cell fails the 1e-7 oracle on some seeds only. Hellinger at N=1
    # stayed within 3e-11.
    for N, which in ((1, "hellinger"), (3, "tv"), (3, "hellinger"), (8, "tv"), (8, "hellinger")):
        params = {"name": which, "N": N}
        if N > 2:
            params["budget"] = p["mc_budget"]
        ops.append(
            LabOp(
                f"gamma_{which}_N{N}",
                "divergence",
                {
                    "subcommand": "divergence",
                    "seed": _seed(rng),
                    "kernel": {"family": "gamma"},
                    "measures": gamma_measures,
                    "parameters": params,
                },
            )
        )
    # Fixed, not jittered: the tensor grid's panel count jumps between 128,
    # 256 and 512 under atom shifts of 0.02, and each doubling quadruples
    # memory. These measures converge at 256 panels (4096^2 node pairs)
    # with wide margins on both sides.
    gauss3 = [
        _measure([[-1.5], [0.0], [1.5]], [0.3, 0.3, 0.4]),
        _measure([[-1.2], [0.3], [1.9]], [0.4, 0.25, 0.35]),
    ]
    ops.append(
        LabOp(
            "gauss3_tv_N2",
            "divergence",
            {
                "subcommand": "divergence",
                "seed": _seed(rng),
                "kernel": {"family": "gaussian_location"},
                "measures": gauss3,
                "parameters": {"name": "tv", "N": 2},
            },
        )
    )
    bern = [
        _measure([[v] for v in _jitter(rng, [0.2, 0.5, 0.8], 0.03)], [0.3, 0.3, 0.4]),
        _measure([[v] for v in _jitter(rng, [0.22, 0.5, 0.78], 0.03)], [0.3, 0.35, 0.35]),
    ]
    for N, which in ((256, "tv"), (256, "hellinger"), (8, "tv"), (8, "hellinger")):
        ops.append(
            LabOp(
                f"bern3_{which}_N{N}",
                "divergence",
                {
                    "subcommand": "divergence",
                    "seed": _seed(rng),
                    "kernel": {"family": "bernoulli"},
                    "measures": bern,
                    "parameters": {"name": which, "N": N},
                },
            )
        )
    return ops


def _distance_ops(rng, p):
    ops = []
    for rep, k, q in itertools.product(range(p["distance_reps"]), range(2, 8), range(1, 4)):
        atoms1 = _separated(rng, k, q, 0.0, 1.0, 0.02)
        atoms2 = _separated(rng, k, q, 0.0, 1.0, 0.02)
        metrics = [
            {"name": "DN", "N": float(rng.choice([1.0, 4.0, 9.5, 64.0]))},
            {"name": "Dr", "r1": float(rng.choice([1.0, 1.5, 2.0])), "r2": float(rng.choice([1.0, 2.0]))},
            {"name": "wasserstein", "p": 1.0 if q == 1 else float(rng.choice([1.0, 2.0]))},
            {"name": "components"},
        ]
        ops.append(
            LabOp(
                f"distance_k{k}_q{q}_r{rep}",
                "distance",
                {
                    "subcommand": "distance",
                    "seed": _seed(rng),
                    "measures": [
                        _measure(atoms1, _weights(rng, k)),
                        _measure(atoms2, _weights(rng, k)),
                    ],
                    "parameters": {"metrics": metrics},
                },
            )
        )
    return ops


def _identify_ops(rng, p):
    ops = []
    for rep in range(p["identify_reps"]):
        for k in (2, 3, 4):
            atoms = _separated(rng, k, 1, 0.05, 0.95, 0.08)
            ops.append(
                LabOp(
                    f"identify_bern_k{k}_r{rep}",
                    "identify",
                    {
                        "subcommand": "identify",
                        "seed": _seed(rng),
                        "kernel": {"family": "bernoulli"},
                        "measures": [_measure(atoms, _weights(rng, k))],
                    },
                )
            )
        # Gamma atoms one shape apart at a shared rate: the direction below
        # annihilates the first-order expansion exactly.
        alpha = float(rng.uniform(1.5, 3.5))
        beta = float(rng.uniform(1.5, 4.0))
        c = float(rng.uniform(0.5, 2.0))
        ops.append(
            LabOp(
                f"identify_gamma_degenerate_r{rep}",
                "identify",
                {
                    "subcommand": "identify",
                    "seed": _seed(rng),
                    "kernel": {"family": "gamma"},
                    "measures": [_measure([[alpha, beta], [alpha + 1.0, beta]], [0.5, 0.5])],
                    "parameters": {
                        "direction": [0.0, c, 0.0, 0.0, -c * alpha / beta, c * alpha / beta]
                    },
                },
            )
        )
        gamma_atoms = [[float(rng.uniform(1.5, 2.5)), float(rng.uniform(1.0, 2.0))],
                       [float(rng.uniform(3.0, 4.5)), float(rng.uniform(2.5, 3.5))]]
        ops.append(
            LabOp(
                f"identify_gamma_generic_r{rep}",
                "identify",
                {
                    "subcommand": "identify",
                    "seed": _seed(rng),
                    "kernel": {"family": "gamma"},
                    "measures": [_measure(gamma_atoms, _weights(rng, 2))],
                    "parameters": {"direction": [1.0, 0.0, 0.0, 1.0, 0.5, -0.5]},
                },
            )
        )
        for k in (2, 3):
            atoms = np.sort(_separated(rng, k, 1, -2.0, 2.0, 0.6), axis=0)
            ops.append(
                LabOp(
                    f"identify_gauss_k{k}_r{rep}",
                    "identify",
                    {
                        "subcommand": "identify",
                        "seed": _seed(rng),
                        "kernel": {"family": "gaussian_location"},
                        "measures": [_measure(atoms, _weights(rng, k))],
                        "parameters": {"direction": [1.0] + [0.0] * (k - 1) + [0.5, -0.5] + [0.0] * (k - 2)},
                    },
                )
            )
        xi = float(rng.uniform(-0.5, 0.5))
        ops.append(
            LabOp(
                f"identify_locscale_r{rep}",
                "identify",
                {
                    "subcommand": "identify",
                    "seed": _seed(rng),
                    "kernel": {"family": "locscale_exponential"},
                    "measures": [
                        _measure(
                            [[xi, float(rng.uniform(0.8, 1.2))],
                             [xi + float(rng.uniform(0.5, 1.0)), float(rng.uniform(1.5, 2.5))]],
                            _weights(rng, 2),
                        )
                    ],
                    "parameters": {"direction": [1.0, 0.0, 0.0, 1.0, 0.5, -0.5]},
                },
            )
        )
    return ops


def _witness_ops(rng, p):
    ops = []
    for rep in range(p["witness_reps"]):
        for k in (2, 3, 4):
            atoms = _separated(rng, k, 1, 0.1, 0.9, 0.12)
            ops.append(
                LabOp(
                    f"witness_k{k}_r{rep}",
                    "witness",
                    {
                        "subcommand": "witness",
                        "seed": _seed(rng),
                        "measures": [_measure(atoms, _weights(rng, k, floor=0.15))],
                        "parameters": {"a": [float(v) for v in rng.uniform(0.5, 3.0, size=2)]},
                    },
                )
            )
    return ops


def _probe_ops(rng, p):
    ops = []
    for rep in range(p["probe_reps"]):
        xi = float(rng.uniform(-1.0, 1.0))
        s1 = float(rng.uniform(0.8, 1.2))
        s2 = float(rng.uniform(1.8, 2.4))
        w1 = s1 / (s1 + s2)
        ops.append(
            LabOp(
                f"probe_curvature_r{rep}",
                "probe",
                {
                    "subcommand": "probe",
                    "seed": _seed(rng),
                    "kernel": {"family": "locscale_exponential"},
                    "measures": [_measure([[xi, s1], [xi, s2]], [w1, 1.0 - w1])],
                    "parameters": {"name": "curvature_locscale"},
                },
            )
        )
        # Atoms one shape apart at a shared rate, moved along the direction
        # that cancels to first order: the pathological path of the paper.
        alpha = float(rng.uniform(1.8, 2.5))
        beta = float(rng.uniform(2.5, 3.5))
        gamma_g0 = _measure([[alpha, beta], [alpha + 1.0, beta]], [0.5, 0.5])
        gamma_dir = [0.0, 1.5, 0.0, 0.0, -1.5 * alpha / beta, 1.5 * alpha / beta]
        for r in (1.0, 2.0):
            ops.append(
                LabOp(
                    f"probe_impact_r{r:g}_r{rep}",
                    "probe",
                    {
                        "subcommand": "probe",
                        "seed": _seed(rng),
                        "kernel": {"family": "gamma"},
                        "measures": [gamma_g0],
                        "parameters": {"name": "impact_Dr", "direction": gamma_dir, "r": r},
                    },
                )
            )
        ops.append(
            LabOp(
                f"probe_inverse_gamma_N1_r{rep}",
                "probe",
                {
                    "subcommand": "probe",
                    "seed": _seed(rng),
                    "kernel": {"family": "gamma"},
                    "measures": [gamma_g0],
                    "parameters": {"name": "inverse_ratio", "direction": gamma_dir, "N": 1},
                },
            )
        )
        w = float(rng.uniform(0.35, 0.45))
        gauss_g0 = _measure([[float(rng.uniform(-1.2, -0.8))], [float(rng.uniform(0.8, 1.2))]], [w, 1.0 - w])
        ops.append(
            LabOp(
                f"probe_inverse_gauss_N1_r{rep}",
                "probe",
                {
                    "subcommand": "probe",
                    "seed": _seed(rng),
                    "kernel": {"family": "gaussian_location"},
                    "measures": [gauss_g0],
                    "parameters": {"name": "inverse_ratio", "direction": [1.0, -0.5, 0.3, -0.3], "N": 1},
                },
            )
        )
        for psi in (1.0, 2.0):
            ops.append(
                LabOp(
                    f"probe_sqrtN_psi{psi:g}_r{rep}",
                    "probe",
                    {
                        "subcommand": "probe",
                        "seed": _seed(rng),
                        "kernel": {"family": "gaussian_location"},
                        "measures": [gauss_g0],
                        "parameters": {"name": "sqrtN_sharpness", "psi_exponent": psi},
                    },
                )
            )
    return ops


def _minimax_ops(rng, p):
    ops = []
    for rep in range(p["minimax_reps"]):
        ops.append(
            LabOp(
                f"minimax_r{rep}",
                "minimax",
                {
                    "subcommand": "minimax",
                    "seed": _seed(rng),
                    "parameters": {
                        "m": [int(v) for v in rng.integers(10, 5000, size=8)],
                        "N": [int(v) for v in rng.integers(1, 200, size=6)],
                        "gamma": float(rng.uniform(0.2, 4.0)),
                        "beta0": float(rng.choice([1.0, 2.0, 4.0])),
                        "a": float(rng.uniform(0.1, 0.9)),
                    },
                },
            )
        )
    return ops


def _sweep(rng, p):
    return (
        _distance_ops(rng, p)
        + _identify_ops(rng, p)
        + _witness_ops(rng, p)
        + _probe_ops(rng, p)
        + _minimax_ops(rng, p)
    )


def build(workload, seed, size="full"):
    """The operations of one round, as in-memory documents."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = _rng(workload, seed)
    p = PARAMS[size]
    if workload == "contraction":
        return _contraction(rng, p)
    if workload == "divergence":
        return _divergence(rng, p)
    return _sweep(rng, p)


def write_inputs(ops, directory):
    """Write each operation's config or dataset file; fills in the paths."""
    os.makedirs(directory, exist_ok=True)
    for op in ops:
        if isinstance(op, LabOp):
            op.config_path = os.path.join(directory, f"{op.name}.json")
            with open(op.config_path, "w") as handle:
                json.dump(op.config, handle, indent=1, sort_keys=True)
        else:
            op.dataset_path = os.path.join(directory, f"{op.name}.jsonl")
            with open(op.dataset_path, "w") as handle:
                for seq in op.sequences:
                    handle.write(json.dumps({"seq": seq}) + "\n")
    return ops
