"""Command-line entry point: `lab <subcommand> --config <path> [...]`."""

import os
import sys

import click

from .errors import MixLabError, SchemaError
from .lab import SUBCOMMANDS, parse_config, run_with_overrides


def _resolve_workers(cli_value):
    if cli_value is not None:
        return cli_value
    env = os.environ.get("LAB_WORKERS")
    if env is None:
        return None
    try:
        workers = int(env)
    except ValueError as err:
        raise SchemaError("LAB_WORKERS", f"not an integer: {env!r}") from err
    if workers < 1:
        raise SchemaError("LAB_WORKERS", "must be >= 1")
    return workers


def _execute(subcommand, config_path, seed, workers, out):
    try:
        with open(config_path, "r") as handle:
            config = parse_config(handle.read())
        if config.subcommand != subcommand:
            raise SchemaError(
                "subcommand",
                f"config names {config.subcommand!r} but the CLI ran {subcommand!r}",
            )
        result = run_with_overrides(
            config, seed=seed, workers=_resolve_workers(workers), out=out
        )
    except MixLabError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(1)
    for path in result["outputs"]:
        click.echo(path)


@click.group()
def main():
    """Numerical laboratory for mixtures of product distributions."""


def _register(name):
    @main.command(name=name)
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--seed", type=int, default=None,
                  help="Override the config's master seed.")
    @click.option("--workers", type=int, default=None,
                  help="Worker count; overrides LAB_WORKERS and the config.")
    @click.option("--out", type=click.Path(file_okay=False), default=None,
                  help="Report directory; overrides the config.")
    def _command(config_path, seed, workers, out, _name=name):
        _execute(_name, config_path, seed, workers, out)

    _command.__name__ = name.replace("-", "_")
    return _command


for _name in SUBCOMMANDS:
    _register(_name)


if __name__ == "__main__":
    main()
