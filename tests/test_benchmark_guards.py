"""The benchmark under bench/ depends on prmhull: on the names its tracer wraps
and on the bytes the table commands print.  These tests read bench/ and fail
when a change to the package would break it."""

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

import spans  # noqa: E402
from workloads import table_commands  # noqa: E402


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


@pytest.mark.parametrize(
    "argv", [argv for argv in table_commands() if argv[0] == "table"], ids=" ".join
)
def test_table_output_matches_benchmark_reference(argv, capsys):
    reference = json.loads((BENCH / "reference" / "tables.json").read_text())
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    got = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "lines": out.count("\n")}
    assert got == reference[" ".join(argv)]
