"""The benchmark under bench/ depends on prmhull: on the names its tracer wraps,
on the bytes the table commands print and on the records ``verify all``
emits.  These tests read bench/ and fail when a change to the package would
break it."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from prmhull.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import outcheck  # noqa: E402
import spans  # noqa: E402
from run import GOLDENS, REFERENCE, REQUIRED_RECORDS  # noqa: E402
from workloads import WORKLOADS, table_commands  # noqa: E402


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _ in spans.TARGETS]
)
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        # the tracer replaces methods in the class's own namespace
        assert name in vars(getattr(owner, cls_name))
    else:
        target = getattr(owner, name)
        assert callable(target)
        if spans.span_name(module, attr) in spans.CACHED:
            assert hasattr(target, "cache_info")


@pytest.fixture(scope="module")
def tables_reference():
    return json.loads((BENCH / "reference" / "tables.json").read_text())


@pytest.mark.parametrize("argv", table_commands(), ids=" ".join)
def test_table_output_matches_benchmark_reference(argv, tables_reference, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    got = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "lines": out.count("\n")}
    assert got == tables_reference[" ".join(argv)]


def test_verify_all_matches_benchmark_reference(capsys):
    # the verify-all workload is one command; its stream is checked as the
    # benchmark checks it, so a kernel change that alters a record fails here
    (argv,) = WORKLOADS["verify-all"].commands(GOLDENS, 0)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    reference = (REFERENCE / "verify-all.jsonl").read_text().splitlines()
    outcome = outcheck.check_records(reference, out.splitlines(), REQUIRED_RECORDS)
    assert outcome.problems == []
    # and no record beyond the reference's (which ends in one summary)
    assert outcome.records == len(reference) - 1
