"""Tests of the benchmark itself: span arithmetic, the output check, tracing."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload, table_commands  # noqa: E402


def _line(**rec) -> str:
    return json.dumps(rec, sort_keys=True)


# -- self time on a synthetic span tree ---------------------------------------------


def test_self_times_subtract_direct_children():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 4.5, 6.5, 0),
        ("root", 7.0, 9.0, 0),  # re-entry of root
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 2.0]
    stats = spans.aggregate(tree)
    assert stats["root"] == {"calls": 2, "s": 10.0, "self_s": 5.0}
    assert stats["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert stats["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_per_layer_metrics_from_stats():
    stats = {
        "codes.rref.small": {"calls": 3, "s": 0.3, "self_s": 0.3},
        "codes.rref.large": {"calls": 1, "s": 0.5, "self_s": 0.5},
        "codes.dual": {"calls": 4, "s": 1.0, "self_s": 0.2},
        "codes.min_weight": {"calls": 2, "s": 2.0, "self_s": 2.0},
    }
    counters = Counter({
        "codes.rref.cells": 40, "codes.rref.rows": 8, "codes.rref.rank": 6,
        "codes.min_weight.codewords": 1000,
    })
    m = spans.layer_metrics(stats, counters, 1, {"prm.prm_code": (3, 1)}, 77)
    assert m["codes.rref.calls"] == 4
    assert m["codes.rref.self_s"] == 0.8
    assert m["codes.rref.large.self_s"] == 0.5
    assert m["codes.rref.rank_ratio"] == 0.75
    assert m["codes.dual.distinct_ratio"] == 0.25
    assert m["codes.enum.codewords_per_s"] == 500.0
    assert m["prm.prm_code.hit_ratio"] == 0.75
    assert m["prm.rm_code.hit_ratio"] == 0.0
    assert m["cli.stdout_bytes"] == 77
    names = {name for name, _, _ in spans.per_layer_spec()}
    assert names - set(m) == {"trace.overhead_ratio"}


# -- the output-check rule -------------------------------------------------------------

PASS = dict(check="eaqecc-purity", q=3, d1=1, d2=2, wt_full=9, wt_excluding=9, status="pass")
INFO = dict(
    check="eaqecc-purity", q=4, d1=1, d2=3,
    detail="enumeration exceeds cap; skipped", status="info",
)
TABLE = dict(check="eaqecc-reference-table", q=[3, 4], rows_checked=6, diffs=0, status="pass")
SUMMARY = dict(check="summary", failures=0, records=3, scope="eaqecc", status="pass", warnings=0)
REFERENCE = [_line(**PASS), _line(**INFO), _line(**TABLE), _line(**SUMMARY)]
REQUIRED = ("eaqecc-reference-table",)


def _check(lines):
    return outcheck.check_records(REFERENCE, lines, REQUIRED)


def test_reference_passes_itself():
    oc = _check(REFERENCE)
    assert oc.problems == []
    assert (oc.records, oc.failed, oc.skipped) == (3, 0, 1)


def test_info_may_become_pass():
    resolved = {**INFO, "status": "pass", "wt_full": 16, "wt_excluding": 16}
    del resolved["detail"]
    oc = _check([_line(**PASS), _line(**resolved), _line(**TABLE), _line(**SUMMARY)])
    assert oc.problems == []
    assert (oc.failed, oc.skipped) == (0, 0)


def test_info_may_not_become_pass_of_other_parameters():
    other = {**INFO, "d2": 4, "status": "pass"}
    oc = _check([_line(**PASS), _line(**other), _line(**TABLE), _line(**SUMMARY)])
    assert oc.problems and oc.failed == 3


def test_pass_may_not_become_anything_else():
    for changed in (
        {**PASS, "status": "info"},
        {**PASS, "status": "fail"},
        {**PASS, "wt_excluding": 8},
    ):
        oc = _check([_line(**changed), _line(**INFO), _line(**TABLE), _line(**SUMMARY)])
        assert oc.problems and oc.failed == oc.records, changed


def test_summary_checked_on_status_and_failures_only():
    recounted = {**SUMMARY, "records": 4, "warnings": 1}
    assert _check(REFERENCE[:3] + [_line(**recounted)]).problems == []
    failing = {**SUMMARY, "status": "fail"}
    assert _check(REFERENCE[:3] + [_line(**failing)]).problems


def test_reference_table_record_required():
    oc = _check([_line(**PASS), _line(**INFO), _line(**SUMMARY)])
    assert any("eaqecc-reference-table" in p for p in oc.problems)
    empty = {**TABLE, "rows_checked": 0}
    assert outcheck.check_records(
        [_line(**PASS), _line(**empty), _line(**SUMMARY)],
        [_line(**PASS), _line(**empty), _line(**SUMMARY)],
        REQUIRED,
    ).problems


def _digest(*writes: str) -> dict:
    stream = child.DigestStream(keep=False)
    for text in writes:
        stream.write(text)
    return stream.result()["digest"]


def test_digest_check():
    ref = _digest('{"a": 1}\n{"b": 2}\n')
    assert ref == {"sha256": hashlib.sha256(b'{"a": 1}\n{"b": 2}\n').hexdigest(), "lines": 2}
    assert outcheck.check_digest(ref, _digest('{"a": 1}\n', '{"b": 2}', "\n")).problems == []
    oc = outcheck.check_digest(ref, _digest('{"a": 1}\n{"b": 3}\n'))
    assert oc.problems and oc.failed == 2


# -- tracing leaves the output unchanged ---------------------------------------------------


def test_traced_output_passes_the_untraced_check():
    small = Workload("small", "", (3, 4, 9), lambda goldens, seed: [])
    runner = run.Runner(small, seed=0)
    verify = ["verify", "eaqecc", "--q", "3,4", "--goldens", str(run.GOLDENS)]
    others = [
        ["hull", "euclid", "--q", "4", "--d1", "2", "--d2", "4", "--verify"],
        ["hull", "hermitian", "--q", "3", "--d", "4", "--verify"],
        ["table", "herm", "--q", "2,3"],
    ]
    plain = runner.spawn([verify] + others)
    traced = runner.spawn([verify] + others, trace=True)
    assert [r["rc"] for r in plain["results"]] == [0, 0, 0, 0]

    reference = plain["results"][0]["stdout"].splitlines()
    for child in (plain, traced):
        oc = outcheck.check_records(
            reference, child["results"][0]["stdout"].splitlines(), REQUIRED
        )
        assert oc.problems == [] and oc.failed == 0
        for ref, res in zip(plain["results"][1:], child["results"][1:]):
            oc = outcheck.check_digest(ref["digest"], res["digest"])
            assert oc.problems == [] and res["rc"] == 0 and res["stdout"] is None

    layers = traced["layers"]
    assert layers["cli.main.calls"] == 4
    assert layers["codes.rref.calls"] > 0 and layers["codes.dual.calls"] > 0
    assert layers["hermitian_hull.verify_hermitian_hull.s"] > 0
    assert layers["fields.field_make.calls"] == 3  # GF(3), GF(4), GF(9) during set-up
    assert "layers" not in plain
    assert runner.spans_path().is_file()
    runner.spans_path().unlink()


# -- workloads and BENCHMARK.json ---------------------------------------------------------


def test_tables_order_follows_seed():
    base = table_commands()
    assert len({outcheck.command_key(c) for c in base}) == len(base) == 500
    tables = WORKLOADS["tables"]
    one = tables.commands(run.GOLDENS, 1)
    assert one == tables.commands(run.GOLDENS, 1)
    assert one != tables.commands(run.GOLDENS, 2)
    assert sorted(one) == sorted(base)
    reference = json.loads((run.REFERENCE / "tables.json").read_text())
    assert set(reference) == {outcheck.command_key(c) for c in base}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert listed == {name: WORKLOADS[name].why for name in listed}
    assert set(WORKLOADS) - set(listed) == {"tables"}  # not gated; see README
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        spans.per_layer_spec()
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
