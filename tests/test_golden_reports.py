"""Pinned report digests: the CSV and JSON files that Criterion 14's
configs write are byte-identical to the ones recorded in
golden_reports.json, across commits as well as across runs.

A change that moves a reported number on purpose regenerates the table
with ``PYTHONPATH=src python tests/test_golden_reports.py``, and CHANGES.md
logs the regeneration with the largest relative difference that this test
reported for each moved file.
"""

import csv
import hashlib
import io
import json
import math
import pathlib
import platform
import tempfile

import numpy as np

from mixlab.lab import parse_config, run_with_overrides
from test_acceptance import DETERMINISM_CONFIGS

TABLE = pathlib.Path(__file__).with_name("golden_reports.json")


def json_leaves(doc):
    """The int and float leaves of a parsed JSON document, keys sorted."""
    if isinstance(doc, dict):
        return [leaf for key in sorted(doc) for leaf in json_leaves(doc[key])]
    if isinstance(doc, list):
        return [leaf for item in doc for leaf in json_leaves(item)]
    return [float(doc)] if type(doc) in (int, float) else []


def numeric_leaves(name, data):
    """The numbers of a report in file order: each CSV cell that reads as a
    float, or each number of a JSON document."""
    text = data.decode()
    if not name.endswith(".csv"):
        return json_leaves(json.loads(text))
    numbers = []
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                numbers.append(float(cell))
            except ValueError:
                pass
    return numbers


def digest_table(out):
    """Run each Criterion 14 config once in-process, writing under out, and
    return the versions and, per subcommand, each report's SHA-256 and
    numbers."""
    reports = {}
    for subcommand, doc in sorted(DETERMINISM_CONFIGS.items()):
        result = run_with_overrides(
            parse_config(json.dumps(doc)), workers=1, out=str(out / subcommand)
        )
        reports[subcommand] = {}
        for path in map(pathlib.Path, result["outputs"]):
            data = path.read_bytes()
            reports[subcommand][path.name] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "numbers": numeric_leaves(path.name, data),
            }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reports": reports,
    }


def largest_relative_difference(recorded, current):
    if len(recorded) != len(current):
        return f"{len(recorded)} numbers recorded, {len(current)} written"
    worst = 0.0
    for a, b in zip(recorded, current):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale if math.isfinite(scale) else math.inf)
    return f"largest relative difference {worst:.3g} over its numbers"


def entries(table):
    """A digest table's entries keyed by (subcommand, file name)."""
    return {
        (subcommand, name): entry
        for subcommand, files in table["reports"].items()
        for name, entry in files.items()
    }


def test_reports_match_the_recorded_digests(tmp_path):
    recorded = json.loads(TABLE.read_text())
    current = digest_table(tmp_path)
    before, after = entries(recorded), entries(current)
    faults = []
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key), after.get(key)
        if old is None or new is None:
            faults.append(f"{key[1]}: not {'recorded' if old is None else 'written'}")
        elif old["sha256"] != new["sha256"]:
            difference = largest_relative_difference(old["numbers"], new["numbers"])
            faults.append(f"{key[1]} differs: {difference}")
    versions = [(table["python"], table["numpy"]) for table in (recorded, current)]
    if faults and versions[0] != versions[1]:
        (python, numpy), (now_python, now_numpy) = versions
        faults.append(
            f"recorded with Python {python} and numpy {numpy}; "
            f"running Python {now_python} and numpy {now_numpy}"
        )
    assert not faults, f"reports differ from {TABLE.name}:\n" + "\n".join(faults)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        table = digest_table(pathlib.Path(out))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
