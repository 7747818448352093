"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""

import json
import time

from prmhull import verify as vf
from prmhull.cli import main as cli_main
from prmhull.codes import DEFAULT_WEIGHT_CAP
from prmhull.fields import field_for_size
from prmhull.prm import prm_code, prm_params, rm_code, rm_params


def _announce(num, name, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_reference_table_reproduction(goldens_dir):
    t0 = time.time()
    records = vf.table1_diff(goldens_dir / "table1.csv")
    elapsed = time.time() - t0
    failures = [r for r in records if r["status"] == "fail"]
    assert not failures, failures[:5]
    assert len(records) == 52  # every published row, each reproduced exactly
    assert elapsed < 5.0
    _announce(1, "reference asym table reproduces exactly", elapsed)


def test_criterion_2_worked_example_goldens(goldens_dir):
    t0 = time.time()
    regenerated = json.dumps(vf.worked_examples_payload(), indent=2, sort_keys=True) + "\n"
    golden = (goldens_dir / "examples_sec3.json").read_text()
    assert regenerated == golden  # byte-for-byte
    elapsed = time.time() - t0
    assert elapsed < 2.0
    _announce(2, "worked-example goldens byte-identical", elapsed)


def test_criterion_3_euclidean_hull_sweep():
    t0 = time.time()
    for q in (3, 4, 5, 7, 8, 9):
        records = vf.euclid_sweep(q)
        bad = [r for r in records if r["status"] != "pass"]
        assert not bad, (q, bad[:5])
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(3, "euclidean hull formula = oracle and spans (q<=9)", elapsed)


def test_criterion_4_hermitian_sweep():
    t0 = time.time()
    for q in (2, 3, 4):
        records = vf.hermitian_sweep(q)
        bad = [r for r in records if r["status"] != "pass"]
        assert not bad, (q, bad[:5])
        # the "observed tight" claim is a hard assertion at this scale
        loose = [r for r in records if not r["tight"]]
        assert not loose, (q, loose)
        bound_violations = [
            r for r in records if not r["exact"] and r["closed_form"] > r["oracle_dim"]
        ]
        assert not bound_violations
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _announce(4, "hermitian hull counts, dims, and bounds (GF(4)/GF(9)/GF(16))", elapsed)


def test_criterion_5_affine_hermitian():
    t0 = time.time()
    for q in (2, 3):
        records = vf.affine_sweep(q)
        bad = [r for r in records if r["status"] != "pass"]
        assert not bad, (q, bad[:5])
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(5, "affine hermitian boundary and |U_{d,d}| formula", elapsed)


def test_criterion_6_purity():
    t0 = time.time()
    for q in (3, 4):
        records = vf.purity_sweep(q, cap=DEFAULT_WEIGHT_CAP)
        failures = [r for r in records if r["status"] != "pass"]
        assert not failures, (q, failures[:5])  # no fail, and no budget skip
        wrong = [r for r in records if r["wt_full"] != prm_params(q, 2, r["d1"]).wt]
        assert not wrong, (q, wrong[:5])
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _announce(6, "purity holds for every pair, full weights as in closed form", elapsed)


def test_criterion_7_parameter_formulas():
    t0 = time.time()
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_for_size(q)
        # every weight up to q = 5; above, only codes with few codewords
        weigh_all = q <= 5
        for d in range(1, 2 * (q - 1) + 1):
            p = prm_params(q, 2, d)
            assert prm_code(ctx, 2, d).k == p.k, ("prm rank", q, d)
            if weigh_all or q**p.k <= DEFAULT_WEIGHT_CAP:
                assert prm_code(ctx, 2, d).min_weight() == p.wt, ("prm wt", q, d)
        for d in range(0, 2 * (q - 1) + 1):
            p = rm_params(q, 2, d)
            assert rm_code(ctx, 2, d).k == p.k, ("rm rank", q, d)
            if p.k >= 1 and (weigh_all or q**p.k <= DEFAULT_WEIGHT_CAP):
                assert rm_code(ctx, 2, d).min_weight() == p.wt, ("rm wt", q, d)
    elapsed = time.time() - t0
    _announce(7, "parameter formulas equal rank and weight oracles", elapsed)


def test_criterion_8_hermitian_reference_discrepancy(goldens_dir, capsys):
    t0 = time.time()
    code = cli_main(
        ["verify", "eaqecc", "--q", "3", "--herm", "--goldens", str(goldens_dir)]
    )
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    warns = [r for r in records if r["status"] == "warn"]
    assert code == 0  # a documented WARN, not a failure
    assert {(w["d"], w["published_kappa"], w["identity_kappa"]) for w in warns} == {
        (1, 85, 86),
        (3, 71, 73),
    }
    summary = records[-1]
    assert summary["failures"] == 0 and summary["warnings"] == 2
    with capsys.disabled():
        _announce(8, "published-kappa discrepancy reported as WARN", time.time() - t0)
