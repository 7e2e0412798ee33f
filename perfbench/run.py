#!/usr/bin/env python3
"""mixlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout against its ``src/`` tree. One
process repeats the workload's round (see workloads.py) as a closed loop,
one report at a time, until ``--seconds`` have passed, then checks every
report of the first round against the oracles in oracles.py and checks that
every later round wrote byte-identical reports. The last line of standard
output is the result as JSON; with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of tracer.py.
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in the
# import-timing children, so compute threads never exceed the worker count.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import ChainOp, LabOp  # noqa: E402

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
IMPORT_STATEMENT = "import mixlab.cli"
SETUP_PACKAGES = ("numpy", "scipy", "click")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_child(extra_flags=()):
    cmd = [sys.executable, *extra_flags, "-c", IMPORT_STATEMENT]
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)


def measure_setup(repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter running ``import mixlab.cli``.

    One unmeasured import first leaves compiled bytecode in place, as a
    user's second and later calls find it."""
    _import_child()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _import_child()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def parse_importtime(text):
    """Split ``-X importtime`` output of ``import mixlab.cli`` into seconds
    spent on numpy, scipy, click and mixlab's own modules.

    Each module's self time goes to the outermost of numpy, scipy or click
    whose import pulled it in, else to mixlab. Imports outside the mixlab
    tree (interpreter start-up) are ignored.
    """
    pending = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = {"name": name, "self": int(parts[0]) * 1e-6, "children": []}
        while pending and pending[-1][0] > depth:
            node["children"].insert(0, pending.pop()[1])
        pending.append((depth, node))
    buckets = {pkg: 0.0 for pkg in SETUP_PACKAGES}
    buckets["mixlab"] = 0.0

    def visit(node, owner):
        top = node["name"].split(".")[0]
        if owner == "mixlab" and top in SETUP_PACKAGES:
            owner = top
        buckets[owner] += node["self"]
        for child in node["children"]:
            visit(child, owner)

    for _, node in pending:
        if node["name"].split(".")[0] == "mixlab":
            visit(node, "mixlab")
    return dict(zip(tracer.SETUP_KEYS,
                    (buckets["numpy"], buckets["scipy"], buckets["click"], buckets["mixlab"])))


def measure_setup_split(repeats=IMPORTTIME_REPEATS):
    _import_child()
    samples = [parse_importtime(_import_child(("-X", "importtime")).stderr) for _ in range(repeats)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# `lab witness` interpolates with scipy's BarycentricInterpolator, which
# shuffles its nodes with an unseeded generator, so witness reports differ
# between identical calls in their last digits. They are compared as
# numbers to REPEAT_REL instead of byte for byte.
NOT_BYTE_REPRODUCIBLE = {"witness"}
REPEAT_REL = 1e-9
REPEAT_ABS = 1e-14


def _numbers(data):
    """Every number in a report, in order, for comparison to REPEAT_REL."""
    text = data.decode()
    tokens = text.replace(",", " ").replace("[", " ").replace("]", " ").replace(":", " ").split()
    out = []
    for token in tokens:
        try:
            out.append(float(token))
        except ValueError:
            out.append(token)
    return out


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return abs(a - b) <= REPEAT_REL * max(abs(a), abs(b)) + REPEAT_ABS


@dataclass
class Round:
    wall: float
    cpu: float
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    report_bytes: int = 0
    chains: dict = field(default_factory=dict)


class Runner:
    """Executes rounds of one workload's operations in this process."""

    def __init__(self, ops, workdir, workers):
        import mixlab.cli

        self.ops = ops
        self.workdir = workdir
        self.workers = workers
        self.main = mixlab.cli.main
        self.recorder = None

    def _lab(self, op, out_dir):
        args = [op.subcommand, "--config", op.config_path, "--out", out_dir,
                "--workers", str(self.workers)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if self.recorder is not None:
                    self.recorder.span("cli.main", self.main.main, args=args, prog_name="lab",
                                       standalone_mode=False)
                else:
                    self.main.main(args=args, prog_name="lab", standalone_mode=False)
        except SystemExit as exc:
            return f"{op.name}: exit {exc.code}: {stderr.getvalue().strip()}"
        except Exception as exc:  # a failed report is counted, not fatal
            return f"{op.name}: {type(exc).__name__}: {exc}"
        stem = op.subcommand.replace("-", "_")
        expected = [os.path.join(out_dir, f"{stem}.csv"), os.path.join(out_dir, f"{stem}.json")]
        if stdout.getvalue().split() != expected:
            return f"{op.name}: printed {stdout.getvalue()!r}, expected the two report paths"
        return None

    def _chain(self, op):
        import mixlab.posterior as posterior
        from mixlab.kernels import BernoulliKernel
        from mixlab.products import ExchangeableDataset

        dataset = ExchangeableDataset.from_jsonl(op.dataset_path)
        kernel = BernoulliKernel()
        prior = posterior.PriorSpec(kernel, np.array([workloads.CHAIN_PRIOR_BOX]))
        config = posterior.MCMCConfig(steps=op.steps,
                                      initial_scale=workloads.CHAIN_INITIAL_SCALE,
                                      burn_fraction=workloads.CHAIN_BURN_FRACTION)
        return posterior.mcmc_run(dataset, kernel, prior, 2, config, op.seed)

    def run_round(self, index):
        round_dir = os.path.join(self.workdir, f"round{index}")
        os.makedirs(round_dir)
        failures, chains = [], {}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in self.ops:
            if isinstance(op, LabOp):
                failure = self._lab(op, os.path.join(round_dir, op.name))
            else:
                try:
                    chains[op.name] = self._chain(op)
                    failure = None
                except Exception as exc:  # counted as a failed operation
                    failure = f"{op.name}: {type(exc).__name__}: {exc}"
            if failure:
                failures.append(failure)
        result = Round(time.perf_counter() - wall0, time.process_time() - cpu0, failures)
        for op in self.ops:
            if isinstance(op, LabOp):
                stem = op.subcommand.replace("-", "_")
                for ext in ("csv", "json"):
                    path = os.path.join(round_dir, op.name, f"{stem}.{ext}")
                    if os.path.exists(path):
                        with open(path, "rb") as handle:
                            data = handle.read()
                        result.report_bytes += len(data)
                        if op.subcommand in NOT_BYTE_REPRODUCIBLE:
                            result.digests[f"{op.name}.{ext}"] = _numbers(data)
                        else:
                            result.digests[f"{op.name}.{ext}"] = hashlib.sha256(data).hexdigest()
            elif op.name in chains:
                chain = chains[op.name]
                atoms = np.stack([G.atoms[:, 0] for G in chain.draws])
                weights = np.stack([G.weights for G in chain.draws])
                result.digests[op.name] = hashlib.sha256(
                    atoms.tobytes() + weights.tobytes() + repr(chain.acceptance_rate).encode()
                ).hexdigest()
                result.chains[op.name] = {
                    "draws": (atoms[:, 0], atoms[:, 1], weights[:, 0]),
                    "acceptance": chain.acceptance_rate,
                }
        return result, round_dir


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    out = []
    for row in rows:
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = float(value)
            except ValueError:
                parsed[key] = value
        out.append(parsed)
    return out


def check_reports(ops, round_dir, first):
    """Run every oracle on the reports of one round."""
    fails = []
    gamma_cells = {}
    for op in ops:
        if isinstance(op, ChainOp):
            if op.name in first.chains:
                fails += [f"{op.name}: {f}" for f in oracles.check_chain(
                    first.chains[op.name], op.sequences, workloads.CHAIN_PRIOR_BOX)]
            continue
        stem = op.subcommand.replace("-", "_")
        base = os.path.join(round_dir, op.name, stem)
        if not os.path.exists(base + ".json"):
            continue
        with open(base + ".json") as handle:
            envelope = json.load(handle)
        config = op.config
        try:
            if op.subcommand == "distance":
                found = oracles.check_distance(config, envelope)
            elif op.subcommand == "divergence":
                found = oracles.check_divergence(config, envelope)
                if config["kernel"]["family"] == "gamma":
                    key = (int(config["parameters"]["N"]), config["parameters"]["name"])
                    gamma_cells[key] = (envelope["value"], envelope["stderr"], config)
            elif op.subcommand == "identify":
                found = oracles.check_identify(config, envelope)
            elif op.subcommand == "witness":
                found = oracles.check_witness(config, envelope)
            elif op.subcommand == "probe":
                found = oracles.check_probe(config, _read_csv(base + ".csv"), envelope)
            elif op.subcommand == "minimax":
                found = oracles.check_minimax(config, envelope)
            else:
                found = oracles.check_contraction(config, _read_csv(base + ".csv"), envelope)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            found = [f"malformed report: {type(exc).__name__}: {exc}"]
        fails += [f"{op.name}: {f}" for f in found]
    if gamma_cells:
        fails += [f"gamma ladder: {f}" for f in oracles.check_gamma_ladder(gamma_cells)]
    return fails


def _dist_version(name):
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def environment(args, workers):
    """What a result needs to be compared with another: machine, versions,
    thread settings, source identity and seed."""
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(os.path.join(SRC, "mixlab"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workers,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": _dist_version("numpy"),
        "scipy": _dist_version("scipy"),
        "click": _dist_version("click"),
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES,
                        help="smoke shrinks every operation, for the self-tests")
    return parser.parse_args(argv)


def run_rounds(runner, seconds, recorder, setup_split):
    """Round 0 untraced, then rounds until ``seconds`` have passed since it
    began (at least one more when tracing, with ``recorder`` installed).

    Returns the rounds, the per-layer metrics of each traced round, and the
    directory holding round 0's reports; later rounds' reports are deleted
    once fingerprinted."""
    reference, reference_dir = runner.run_round(0)
    rounds, traced = [reference], []
    start = time.perf_counter() - reference.wall
    if recorder is not None:
        runner.recorder = recorder
        recorder.install()
    try:
        while time.perf_counter() - start < seconds or (recorder is not None and not traced):
            if recorder is not None:
                recorder.reset()
            result, round_dir = runner.run_round(len(rounds))
            rounds.append(result)
            if recorder is not None:
                traced.append(tracer.layer_metrics(recorder.stats, result.report_bytes, setup_split))
            shutil.rmtree(round_dir, ignore_errors=True)
    finally:
        if recorder is not None:
            recorder.uninstall()
            runner.recorder = None
    return rounds, traced, reference_dir


def repeat_problems(rounds, traced):
    """Every later round must have written round 0's reports again."""
    reference = rounds[0]
    problems = []
    for index, r in enumerate(rounds[1:], start=1):
        changed = sorted(k for k in set(r.digests) | set(reference.digests)
                         if not _same(r.digests.get(k, ""), reference.digests.get(k, "")))
        if changed:
            kind = "traced" if traced else "repeated"
            problems.append(f"round {index} ({kind}) reports differ from round 0: {changed[:5]}")
    return problems


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixlab", "__init__.py")):
        print(f"error: no mixlab source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mixlab

    if os.path.dirname(os.path.dirname(os.path.realpath(mixlab.__file__))) != os.path.realpath(SRC):
        print(f"error: imported mixlab from {mixlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    env = environment(args, workers)
    ops = workloads.build(args.workload, args.seed, args.size)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        workloads.write_inputs(ops, os.path.join(workdir, "inputs"))
        if args.trace:
            setup_split = measure_setup_split()
        else:
            setup_s, setup_samples = measure_setup()
        recorder = tracer.Recorder() if args.trace else None
        rounds, traced, reference_dir = run_rounds(Runner(ops, workdir, workers), args.seconds,
                                                   recorder, setup_split if args.trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = repeat_problems(rounds, args.trace) + check_reports(ops, reference_dir, rounds[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {key: {"value": statistics.median(m[key] for m in traced), "unit": unit}
                   for key, unit in tracer.LAYER_UNITS.items()}
        overhead = statistics.median(r.wall for r in rounds[1:]) - rounds[0].wall
    else:
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(r.wall for r in rounds),
                  "cpu_s": statistics.median(r.cpu for r in rounds),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
        overhead = None

    failures = [f for r in rounds for f in r.failures]
    result = {"correct": not problems, "attempted": len(ops) * len(rounds),
              "failed": len(failures), "metrics": metrics}
    record = {
        "environment": env,
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_cpu_s": [r.cpu for r in rounds],
        "setup_samples_s": None if args.trace else setup_samples,
        "traced_wall_minus_untraced_s": overhead,
        "failures": failures,
        "problems": problems,
        **result,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for line in failures + problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"environment": env, "rounds": len(rounds),
                      "traced_wall_minus_untraced_s": overhead}, sort_keys=True))
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
