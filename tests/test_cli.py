import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmhull import hermitian_hull, verify
from prmhull.cli import main
from prmhull.euclidean_hull import relative_hull_dim
from prmhull.points import affine_points, projective_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jlines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


def test_params_prm(capsys):
    code, out, _ = run_cli(capsys, "params", "prm", "--q", "4", "--m", "2", "--d", "5")
    assert code == 0
    rec = jlines(out)[0]
    assert (rec["n"], rec["k"], rec["wt"]) == (21, 18, 3)
    assert rec["provenance"]["wt"] == "closed_form"


def test_params_rm_repetition(capsys):
    code, out, _ = run_cli(capsys, "params", "rm", "--q", "9", "--m", "2", "--d", "0")
    assert code == 0
    rec = jlines(out)[0]
    assert (rec["n"], rec["k"], rec["wt"]) == (81, 1, 81)


@pytest.mark.parametrize("argv", [["--q", "4", "--d", "6"], ["--q", "3", "--m", "1", "--d", "2"]])
def test_params_rm_top_order_prints_weight_1(capsys, argv):
    code, out, _ = run_cli(capsys, "params", "rm", *argv)
    assert code == 0
    assert jlines(out)[0]["wt"] == 1 and '"wt": 1}' in out


def test_params_prm_dual_flag(capsys):
    code, out, _ = run_cli(capsys, "params", "prm", "--q", "4", "--m", "2", "--d", "3")
    rec = jlines(out)[0]
    assert rec["dual_extra_all_ones"] is True and rec["dual_degree"] == 3


def test_params_bad_degree_exits_2(capsys):
    code, out, err = run_cli(capsys, "params", "prm", "--q", "4", "--m", "2", "--d", "9")
    assert code == 2
    assert "error" in err


def test_hull_euclid_verify(capsys):
    code, out, _ = run_cli(
        capsys, "hull", "euclid", "--q", "4", "--d1", "4", "--d2", "5", "--verify"
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["dimension"] == 13 and rec["oracle_dim"] == 13
    assert rec["basis_spans"] is True and rec["verified"] is True
    assert len(rec["basis"]) == 13
    assert rec["basis"][-1] == "x2^4 + x1^2*x2^2 + x0^2*x2^2 + x0^2*x1*x2"


@pytest.mark.parametrize("d1, d2", [(1, 3), (3, 1)])
def test_hull_euclid_self_dual_degree_refused(capsys, d1, d2):
    # the degrees are sorted first, so q-1 is refused as the larger one either way
    argv = ["hull", "euclid", "--q", "4", "--d1", str(d1), "--d2", str(d2)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert jlines(err) == [
        {
            "command": "hull",
            "error": "d2 = q-1: dual is not a PRM code (q=4); use --intersection-only "
            "for the bare intersection or --extended-dual for the oracle hull "
            "against the extended dual",
        }
    ]


def test_hull_euclid_intersection_only_reports_the_closed_form(capsys):
    argv = ["hull", "euclid", "--q", "4", "--d1", "1", "--d2", "3", "--intersection-only"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rec = jlines(out)[0]
    assert rec["dimension"] == relative_hull_dim(4, 1, 3)
    assert rec["hull_readable"] is False


def test_hull_euclid_smaller_degree_q_minus_1_is_a_hull(capsys):
    # d1 = q-1 with a larger d2 is still a valid hull of PRM_{q-1}
    code, out, _ = run_cli(capsys, "hull", "euclid", "--q", "4", "--d1", "3", "--d2", "4")
    assert code == 0
    rec = jlines(out)[0]
    assert rec["hull_of"] == {"code_degree": 3, "dual_partner_degree": 2}
    assert rec["dimension"] == relative_hull_dim(4, 3, 4)
    assert rec["hull_readable"] is True


def test_hull_euclid_intersection_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "hull",
        "euclid",
        "--q",
        "4",
        "--d1",
        "1",
        "--d2",
        "3",
        "--intersection-only",
        "--verify",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["dimension"] == rec["oracle_dim"]
    assert rec["hull_readable"] is False


def test_hull_euclid_extended_dual(capsys):
    code, out, _ = run_cli(
        capsys,
        "hull",
        "euclid",
        "--q",
        "4",
        "--d1",
        "6",
        "--d2",
        "6",
        "--extended-dual",
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["dimension"] == 0 and rec["provenance"]["dimension"] == "oracle"


@pytest.mark.parametrize("flag", ["--verify", "--intersection-only"])
def test_hull_euclid_extended_dual_refuses_other_flags(capsys, flag):
    argv = ["hull", "euclid", "--q", "4", "--d1", "6", "--d2", "6", "--extended-dual", flag]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(jlines(err)) == 1 and flag in jlines(err)[0]["error"]


def test_hull_hermitian_verify(capsys):
    code, out, _ = run_cli(capsys, "hull", "hermitian", "--q", "3", "--d", "7", "--verify")
    assert code == 0
    rec = jlines(out)[0]
    assert (rec["u_size"], rec["v_size"], rec["w_size"]) == (21, 1, 1)
    assert rec["dimension"] == 23 and rec["tight"] is True
    assert rec["provenance"]["dimension"] == "bound"


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind, lo", [("hermitian", 1), ("affine-hermitian", 0)])
def test_hull_hermitian_refusal_names_the_admissible_range(capsys, q, kind, lo):
    # degrees q^2-1 .. 2q^2-2 pass the basis enumerations but not the
    # dimension counts, so the error must name the counts' range
    Q = q * q
    for d in (Q - 1, 2 * Q - 2, 2 * Q - 1):
        code, out, err = run_cli(capsys, "hull", kind, "--q", str(q), "--d", str(d))
        assert code == 2 and out == ""
        assert jlines(err) == [
            {"command": "hull", "error": f"degree {d} outside [{lo}, {Q - 2}] over GF({q}^2)"}
        ], (kind, d)


def test_hull_affine_hermitian(capsys):
    code, out, _ = run_cli(
        capsys, "hull", "affine-hermitian", "--q", "3", "--d", "4", "--verify"
    )
    assert code == 0
    rec = jlines(out)[0]
    assert rec["dimension"] == 14 and rec["oracle_dim"] == 14


@pytest.mark.parametrize("d, size", [(0, 1), (4, 14)])
def test_hull_affine_hermitian_constant_monomial_prints_as_1(capsys, d, size):
    code, out, _ = run_cli(capsys, "hull", "affine-hermitian", "--q", "3", "--d", str(d))
    assert code == 0
    basis = jlines(out)[0]["basis"]
    assert len(basis) == size and basis[0] == "1" and all(basis)


def test_hull_affine_hermitian_basis_is_in_x1_x2(capsys):
    # as hull hermitian's u list names the same exponents, x0 being the
    # homogenising variable
    code, out, _ = run_cli(capsys, "hull", "affine-hermitian", "--q", "3", "--d", "4")
    assert code == 0
    basis = jlines(out)[0]["basis"]
    assert "x1*x2" in basis and "x2^4" in basis
    assert not any("x0" in b for b in basis)


def test_table_asym_csv_includes_reference_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "asym", "--q", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,d1,d2,n,kappa,delta_x,delta_z,c")
    assert "4,1,4,21,5,3,12,2,closed_form" in lines
    assert "4,2,5,21,2,4,16,5,closed_form" in lines


def test_table_asym_json_q9_contains_ejasim_row(capsys):
    code, out, _ = run_cli(capsys, "table", "asym", "--q", "9")
    rows = jlines(out)
    match = [r for r in rows if (r["d1"], r["d2"]) == (3, 11)]
    assert match and (match[0]["kappa"], match[0]["delta_z"], match[0]["c"]) == (15, 45, 4)


def test_table_herm_q3(capsys):
    code, out, _ = run_cli(capsys, "table", "herm", "--q", "3")
    rows = jlines(out)
    d2 = [r for r in rows if r["d"] == 2][0]
    assert (d2["kappa"], d2["c"]) == (79, 0)
    d7 = [r for r in rows if r["d"] == 7][0]
    assert d7["c"] == 13 and d7["provenance"]["c"] == "bound"


def test_table_affine_herm_q3(capsys):
    code, out, _ = run_cli(capsys, "table", "affine-herm", "--q", "3")
    rows = jlines(out)
    assert [r for r in rows if r["d"] == 4][0]["c"] == 1
    assert all(r["n"] == 81 for r in rows)


def test_verify_euclid_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "euclid", "--q", "3,4,5")
    assert code == 0
    summary = jlines(out)[-1]
    assert summary["status"] == "pass" and summary["failures"] == 0


def test_verify_hermitian_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "hermitian", "--q", "2,3")
    assert code == 0
    recs = jlines(out)
    assert all(r["status"] != "fail" for r in recs)
    tight = [r for r in recs if r.get("check") == "hermitian-hull"]
    assert tight and all("tight" in r for r in tight)


def test_verify_eaqecc_reference_table_diff_empty(capsys, goldens_dir):
    code, out, _ = run_cli(
        capsys, "verify", "eaqecc", "--q", "4,5,9", "--goldens", str(goldens_dir)
    )
    assert code == 0
    recs = jlines(out)
    table = [r for r in recs if r["check"] == "eaqecc-reference-table"][-1]
    assert table["diffs"] == 0 and table["rows_checked"] == 52


def test_verify_eaqecc_reports_a_missing_reference_table(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "4", "--goldens", str(tmp_path))
    assert code == 0
    recs = jlines(out)
    table = [r for r in recs if r["check"] == "eaqecc-reference-table"]
    assert len(table) == 1 and table[0]["status"] == "info"
    assert str(tmp_path / "table1.csv") in table[0]["detail"]
    assert recs[-1]["status"] == "pass" and recs[-1]["failures"] == 0


def test_verify_eaqecc_herm_warns_but_passes(capsys, goldens_dir):
    code, out, _ = run_cli(
        capsys, "verify", "eaqecc", "--q", "3", "--herm", "--goldens", str(goldens_dir)
    )
    assert code == 0
    recs = jlines(out)
    warns = [r for r in recs if r["status"] == "warn"]
    assert {(w["d"], w["published_kappa"], w["identity_kappa"]) for w in warns} == {
        (1, 85, 86),
        (3, 71, 73),
    }
    assert jlines(out)[-1]["failures"] == 0


def _golden_without_kappa(src, dest):
    rows = src.read_text().splitlines()
    drop = rows[0].split(",").index("kappa")
    cut = [",".join(f for i, f in enumerate(row.split(",")) if i != drop) for row in rows]
    dest.write_text("\n".join(cut) + "\n")


def _golden_with_short_row(src, dest):
    rows = src.read_text().splitlines()
    rows[2] = ",".join(rows[2].split(",")[:-2])
    dest.write_text("\n".join(rows) + "\n")


MALFORMED_GOLDENS = {
    "missing column": (_golden_without_kappa, "kappa"),
    "short row": (_golden_with_short_row, "line 3"),
    "directory": (lambda src, dest: dest.mkdir(), "directory"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GOLDENS))
def test_malformed_goldens_exit_2(capsys, tmp_path, goldens_dir, case):
    # exit 1 means a verification mismatch; a bad input file is a usage error
    make, named = MALFORMED_GOLDENS[case]
    make(goldens_dir / "table1.csv", tmp_path / "table1.csv")
    code, out, err = run_cli(capsys, "verify", "eaqecc", "--q", "3", "--goldens", str(tmp_path))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["command"] == "verify"
    assert named in record["error"]


def test_verify_kappa_identity_failure_fails_the_run(capsys, monkeypatch):
    # a record's status is the whole verdict: a false kappa identity fails
    # its record, and the summary and exit code follow the records
    import dataclasses

    from prmhull import quantum

    real = quantum.herm_eaqecc_prm

    def off_by_one(q, d):
        params = real(q, d)
        return dataclasses.replace(params, kappa=params.kappa + 1)

    monkeypatch.setattr(quantum, "herm_eaqecc_prm", off_by_one)
    # forked workers see the patch too
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "2", "--herm")
    assert code == 1
    recs = jlines(out)
    herm = [r for r in recs if r["check"] == "eaqecc-herm-closed-vs-oracle"]
    assert herm and all(r["status"] == "fail" for r in herm)
    assert not any(r["kappa_identity"] for r in herm)
    summary = recs[-1]
    assert summary["status"] == "fail"
    assert summary["failures"] == len(herm)


def _plant(monkeypatch, name, fault):
    """Replace hermitian_hull.<name> by fault(real result), in the forked workers too."""
    from prmhull import hermitian_hull

    real = getattr(hermitian_hull, name)
    monkeypatch.setattr(hermitian_hull, name, lambda q, d: fault(real(q, d)))
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)


@pytest.mark.parametrize(
    "argv, name, fault",
    [
        (
            ("hermitian", "--q", "5"),
            "hermitian_hull_dim",
            lambda dim: dataclasses.replace(dim, value=dim.value + 1) if dim.exact else dim,
        ),
        # a bound below the hull dimension is still a bound, but not the basis size
        (
            ("hermitian", "--q", "5"),
            "hermitian_hull_dim",
            lambda dim: dim if dim.exact else dataclasses.replace(dim, value=dim.value - 1),
        ),
        (
            ("affine", "--q", "4"),
            "affine_u_size",
            lambda u: dataclasses.replace(u, total=u.total + 1),
        ),
    ],
    ids=["exact-plus-1", "bound-minus-1", "affine-plus-1"],
)
def test_verify_fails_a_planted_closed_form_fault(capsys, monkeypatch, argv, name, fault):
    _plant(monkeypatch, name, fault)
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 1
    recs = jlines(out)
    assert any(r["status"] == "fail" for r in recs[:-1])
    assert recs[-1]["status"] == "fail"


def test_verify_euclid_fails_a_planted_dimension_fault(capsys, monkeypatch):
    from prmhull import euclidean_hull

    real = euclidean_hull.relative_hull_dim
    monkeypatch.setattr(euclidean_hull, "relative_hull_dim", lambda q, d1, d2: real(q, d1, d2) + 1)
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "euclid", "--q", "4")
    assert code == 1
    pairs = [r for r in jlines(out) if r["check"] == "euclid-hull"]
    assert len(pairs) == 21 and all(r["status"] == "fail" for r in pairs)
    assert all(r["formula_dim"] == r["oracle_dim"] + 1 for r in pairs)


def _kappa_plus_1(real):
    def planted(q, d1, d2):
        params = real(q, d1, d2)
        return dataclasses.replace(params, kappa=params.kappa + 1)

    return planted


@pytest.mark.parametrize(
    "name, fault, planted",
    [
        # one more hull dimension is one less c, and one less kappa
        (
            "hull_dim_with_dual",
            lambda real: lambda q, d1, d2: real(q, d1, d2) + 1,
            lambda r: r["closed_c"] == r["oracle_c"] - 1,
        ),
        (
            "prm_asym_eaqecc",
            _kappa_plus_1,
            lambda r: (r["closed_c"], r["closed_kappa"]) == (r["oracle_c"], r["oracle_kappa"] + 1),
        ),
    ],
    ids=["c", "kappa"],
)
def test_verify_eaqecc_fails_a_planted_c_or_kappa_fault(capsys, monkeypatch, name, fault, planted):
    from prmhull import quantum

    monkeypatch.setattr(quantum, name, fault(getattr(quantum, name)))
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "5")
    assert code == 1
    pairs = [r for r in jlines(out) if r["check"] == "eaqecc-asym-closed-vs-oracle"]
    assert len(pairs) == 21 and all(r["status"] == "fail" for r in pairs)
    assert all(planted(r) for r in pairs)


def test_verify_purity_fails_a_planted_weight_fault(capsys, monkeypatch):
    # the searched weight of PRM_d1 must be the closed-form weight
    from prmhull import prm

    real = prm._weight_formula
    monkeypatch.setattr(prm, "_weight_formula", lambda q, m, reduced: real(q, m, reduced) + 1)
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "3", "--purity")
    assert code == 1
    recs = jlines(out)
    probed = [r for r in recs if r["check"] == "eaqecc-purity" and "wt_full" in r]
    assert probed and all(r["status"] == "fail" for r in probed)
    assert recs[-1]["status"] == "fail"


def test_verify_purity_fails_a_planted_closed_form_purity_flag(capsys, monkeypatch):
    # the probe at (d1, d2) answers the nesting question of the pair
    # (d1, 2(q-1) - d2), whose closed-form flag must agree with it
    from prmhull import quantum

    real = quantum.prm_asym_eaqecc

    def planted(q, d1, d2):
        params = real(q, d1, d2)
        return dataclasses.replace(params, pure=None) if (q, d1, d2) == (4, 2, 2) else params

    monkeypatch.setattr(quantum, "prm_asym_eaqecc", planted)
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "4", "--purity")
    assert code == 1
    recs = jlines(out)
    failed = [(r["check"], r.get("d1"), r.get("d2")) for r in recs[:-1] if r["status"] == "fail"]
    assert failed == [("eaqecc-purity", 2, 4)]
    assert recs[-1]["status"] == "fail"


def test_verify_affine_self_orthogonality_reads_the_oracle(capsys, monkeypatch):
    # an oracle that calls every RM code its own hull fails exactly the
    # degrees past the self-orthogonality boundary
    from types import SimpleNamespace

    from prmhull import hermitian_hull
    from prmhull.prm import dim_rm

    def whole(q, d1, d2):
        return SimpleNamespace(k=dim_rm(q * q, d1))

    monkeypatch.setattr(hermitian_hull, "affine_hull_oracle", whole)
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "verify", "affine", "--q", "3")
    assert code == 1
    recs = [r for r in jlines(out) if r["check"] == "affine-self-orthogonal-boundary"]
    assert recs and all(r["self_orthogonal"] for r in recs)
    failed = [r["d"] for r in recs if r["status"] == "fail"]
    assert failed and failed == [r["d"] for r in recs if not r["expected"]]


def test_verify_reference_table_without_rows_for_the_fields_is_info(capsys, goldens_dir):
    # table1.csv has rows for q in {4, 5, 9} only: a check of no row is not a pass
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "3", "--goldens", str(goldens_dir))
    assert code == 0
    recs = jlines(out)
    (table,) = [r for r in recs if r["check"] == "eaqecc-reference-table"]
    assert table["rows_checked"] == 0 and table["status"] == "info"
    assert "nothing checked" in table["detail"]
    assert recs[-1]["status"] == "pass"


def _forks(monkeypatch) -> list[int]:
    """The pids of the children os.fork makes from now on in this process."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_is_the_same_serial_and_forked(capsys, monkeypatch, goldens_dir):
    forks = _forks(monkeypatch)
    argv = ("verify", "all", "--goldens", str(goldens_dir))
    monkeypatch.setattr(verify, "available_cpus", lambda: 1)
    serial = run_cli(capsys, *argv)
    assert forks == []
    monkeypatch.setattr(verify, "available_cpus", lambda: 3)
    assert run_cli(capsys, *argv) == serial
    assert len(forks) == 2
    assert serial[0] == 0 and serial[2] == ""
    _no_child_left()


def test_run_sweeps_keeps_the_calls_over_one_field_in_one_process(monkeypatch):
    # they share that field's code caches
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)

    def sweep(q, tag):
        time.sleep(0.05)
        return [{"q": q, "tag": tag, "pid": os.getpid()}]

    records = verify.run_sweeps([(sweep, q, {"tag": tag}) for tag in "ab" for q in (3, 4)])
    assert [(r["q"], r["tag"]) for r in records] == [(3, "a"), (4, "a"), (3, "b"), (4, "b")]
    for q in (3, 4):
        assert len({r["pid"] for r in records if r["q"] == q}) == 1
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_verify_reports_the_error_of_the_first_failing_call(capsys, monkeypatch, cpus):
    # GF(4096) is queued first and, with q = 32 held back, fails first; the
    # serial loop would fail on GF(1024) first, so that is the error
    real = verify.hermitian_sweep

    def slow_at_32(q):
        if q == 32:
            time.sleep(0.2)
        return real(q)

    monkeypatch.setattr(verify, "hermitian_sweep", slow_at_32)
    monkeypatch.setattr(verify, "available_cpus", lambda: cpus)
    code, out, err = run_cli(capsys, "verify", "hermitian", "--q", "32,64")
    assert code == 2 and out == ""
    assert "GF(1024)" in json.loads(err)["error"]
    _no_child_left()


def _child_dies(monkeypatch):
    parent, real = os.getpid(), verify.euclid_sweep

    def euclid_sweep(q):
        if os.getpid() != parent:
            os._exit(1)
        return real(q)

    monkeypatch.setattr(verify, "euclid_sweep", euclid_sweep)


def _fork_fails(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("lose", [_child_dies, _fork_fails], ids=lambda f: f.__name__)
def test_verify_calls_of_a_lost_worker_run_in_the_parent(capsys, monkeypatch, lose):
    argv = ("verify", "euclid", "--q", "3,4,5")
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(verify, "available_cpus", lambda: 2)
    lose(monkeypatch)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0
    _no_child_left()


@pytest.mark.parametrize("case", ["one cpu", "no fork", "another thread"])
def test_verify_runs_serially_where_forking_cannot_help(capsys, monkeypatch, case):
    def forked(*args):
        raise AssertionError("forked")

    monkeypatch.setattr(verify, "_run_forked", forked)
    monkeypatch.setattr(verify, "available_cpus", lambda: 1 if case == "one cpu" else 2)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    if case == "another thread":
        thread.start()
    try:
        code, out, _ = run_cli(capsys, "verify", "euclid", "--q", "3,4")
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(30)
    assert not thread.is_alive()
    assert code == 0 and jlines(out)[-1]["status"] == "pass"


def test_output_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "table", "asym", "--q", "4,5")
    _, out2, _ = run_cli(capsys, "table", "asym", "--q", "4,5")
    assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prmhull.cli", "params", "prm", "--q", "2", "--m", "2", "--d", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert (rec["n"], rec["k"], rec["wt"]) == (7, 3, 4)


SUBCOMMANDS = [
    ["params", "prm", "--d", "1"],
    ["params", "rm", "--d", "0"],
    ["hull", "euclid", "--d1", "1", "--d2", "2"],
    ["hull", "hermitian", "--d", "1"],
    ["hull", "affine-hermitian", "--d", "0"],
    ["table", "asym"],
    ["table", "herm"],
    ["table", "affine-herm"],
    ["verify", "euclid"],
    ["verify", "hermitian"],
    ["verify", "affine"],
    ["verify", "eaqecc"],
    ["verify", "all"],
]


@pytest.mark.parametrize("q", ["0", "1", "6", "12"])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_field_size_not_a_prime_power_exits_2(capsys, argv, q):
    code, out, err = run_cli(capsys, *argv, "--q", q)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_verify_above_table_limit_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "hull", "euclid", "--q", "625", "--d1", "1", "--d2", "2", "--verify"
    )
    assert code == 2
    assert out == ""
    assert "dense tables" in json.loads(err)["error"]


def test_refused_field_leaves_no_point_set_cached(capsys):
    # the planes over GF(625), GF(529) and GF(1024) have 391,251, 280,371 and
    # 1,048,576 points; refusing must not build them, nor look them up (an
    # earlier test that built them would hide it otherwise)
    for argv in (
        ("euclid", "--q", "625", "--d1", "1", "--d2", "2"),
        ("hermitian", "--q", "23", "--d", "1"),
        ("affine-hermitian", "--q", "32", "--d", "1"),
    ):
        before = (projective_points.cache_info(), affine_points.cache_info())
        code, out, err = run_cli(capsys, "hull", *argv, "--verify")
        assert code == 2
        assert out == ""
        assert "dense tables" in json.loads(err)["error"]
        assert (projective_points.cache_info(), affine_points.cache_info()) == before


def test_refused_field_builds_no_gram_entry(capsys, monkeypatch):
    # the Hermitian oracles ask the kernel for the field before any power
    # sum is looked up, so a refused field exits 2 having built nothing
    calls = []

    def build_entries(*args):
        calls.append(args)
        raise AssertionError("Gram entries built over a refused field")

    monkeypatch.setattr(hermitian_hull, "_gram_entries", build_entries)
    for argv in (("hermitian", "--q", "23"), ("affine-hermitian", "--q", "32")):
        code, out, err = run_cli(capsys, "hull", *argv, "--d", "1", "--verify")
        assert code == 2
        assert out == ""
        assert "dense tables" in json.loads(err)["error"]
    assert calls == []


def test_verify_negative_cap_exits_2(capsys):
    for cap in ("-5", "abc"):
        code, out, err = run_cli(capsys, "verify", "eaqecc", "--q", "3", "--purity", "--cap", cap)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        # the cap counts enumerated messages, not codewords
        assert "--cap" in error and "message cap" in error


# one ill-typed value per option that has a type, on every subcommand
TYPE_ERRORS = [
    (argv, bad)
    for argv in SUBCOMMANDS
    for bad in (["--q", "x"], ["--q", ""])
] + [
    (["params", "prm", "--q", "3"], ["--d", "abc"]),
    (["params", "rm", "--q", "3", "--d", "1"], ["--m", "1.5"]),
    (["hull", "euclid", "--q", "3", "--d2", "2"], ["--d1", "x"]),
    (["hull", "euclid", "--q", "3", "--d1", "1"], ["--d2", ""]),
    (["hull", "hermitian", "--q", "3"], ["--d", "abc"]),
    (["hull", "affine-hermitian", "--q", "3"], ["--d", "-"]),
    (["verify", "eaqecc", "--q", "3", "--purity"], ["--cap", "-5"]),
    (["verify", "eaqecc", "--q", "3", "--purity"], ["--cap", "abc"]),
]


@pytest.mark.parametrize(
    "argv, bad", TYPE_ERRORS, ids=[" ".join(a + b) for a, b in TYPE_ERRORS]
)
def test_argument_type_errors_give_a_json_record(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv, *bad)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["command"] == argv[0]
    assert bad[0] in record["error"]


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: prmhull verify")
    assert captured.err == ""


def test_verify_zero_cap_skips_every_purity_probe(capsys):
    code, out, _ = run_cli(capsys, "verify", "eaqecc", "--q", "3", "--purity", "--cap", "0")
    assert code == 0
    purity = [r for r in jlines(out) if r["check"] == "eaqecc-purity"]
    assert purity and all(r["status"] == "info" for r in purity)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "affine", "--q", "2", "--purity", "--herm", "--cap", "5"], "--herm"),
        (["verify", "euclid", "--q", "3", "--purity"], "--purity"),
        (["verify", "hermitian", "--q", "2", "--herm"], "--herm"),
        (["verify", "affine", "--q", "2", "--cap", "5"], "--cap"),
        (["verify", "eaqecc", "--q", "3", "--cap", "5"], "--cap"),
        (["verify", "all", "--herm", "--cap", "0"], "--cap"),
    ],
)
def test_verify_refuses_flags_it_would_ignore(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(jlines(err)) == 1 and flag in jlines(err)[0]["error"]


# -- argv fuzzing: every invalid argument list ends in one JSON error record --

_SIZES = [2, 3, 4, 5, 7, 8, 9]
_NOT_INTEGERS = st.sampled_from(["x", "", "1.5", "abc", "3a", "0x3", "-"])


def _outside(lo, hi):
    return st.one_of(st.integers(lo - 40, lo - 1), st.integers(hi + 1, hi + 40))


@st.composite
def _bad_degree(draw):
    q = draw(st.sampled_from(_SIZES))
    top = 2 * (q - 1)
    kind = draw(st.sampled_from(["prm", "rm", "euclid", "hermitian", "affine-hermitian"]))
    if kind in ("prm", "rm"):
        lo = 1 if kind == "prm" else 0
        if draw(st.booleans()):  # m <= 0 leaves no valid degree
            return ["params", kind, "--q", str(q), f"--m={draw(st.integers(-3, 0))}", f"--d={lo}"]
        return ["params", kind, "--q", str(q), f"--d={draw(_outside(lo, top))}"]
    if kind == "euclid":
        degrees = [draw(st.integers(1, top)), draw(_outside(1, top))]
        if draw(st.booleans()):
            degrees.reverse()
        return ["hull", "euclid", "--q", str(q), f"--d1={degrees[0]}", f"--d2={degrees[1]}"]
    # over GF(q^2): the Hermitian hull takes 1 <= d < q^2-1, the affine one 0 <= d < q^2-1
    lo = 1 if kind == "hermitian" else 0
    return ["hull", kind, "--q", str(q), f"--d={draw(_outside(lo, q * q - 2))}"]


@st.composite
def _bad_field_list(draw):
    scope = draw(st.sampled_from(["euclid", "hermitian", "affine", "eaqecc", "all"]))
    sizes = draw(
        st.one_of(
            st.sampled_from(["", ",", " , ", ",,"]),  # empty lists
            st.integers(-50, 1).map(str),  # negative, zero and one
            st.sampled_from(["6", "10", "12", "3,6", "2,-4"]),  # not prime powers
            _NOT_INTEGERS,
            st.sampled_from(["3,x", "4,,y"]),
        )
    )
    return ["verify", scope, f"--q={sizes}"]


@st.composite
def _bad_number(draw):
    option, argv = draw(
        st.sampled_from(
            [
                ("--cap", ["verify", "eaqecc", "--q", "3", "--purity"]),
                ("--q", ["params", "prm", "--d", "1"]),
                ("--d", ["params", "rm", "--q", "3"]),
                ("--m", ["params", "prm", "--q", "3", "--d", "1"]),
                ("--q", ["hull", "euclid", "--d1", "1", "--d2", "2"]),
                ("--d1", ["hull", "euclid", "--q", "3", "--d2", "2"]),
                ("--d", ["hull", "hermitian", "--q", "3"]),
                ("--q", ["hull", "affine-hermitian", "--d", "1"]),
            ]
        )
    )
    if option in ("--cap", "--q") and draw(st.booleans()):
        value = str(draw(st.integers(-10**6, -1)))
    else:
        value = draw(_NOT_INTEGERS)
    return argv + [f"{option}={value}"]


@given(st.one_of(_bad_degree(), _bad_field_list(), _bad_number()))
@example(["params", "rm", "--q", "4", "--m", "0", "--d", "0"])
@settings(max_examples=100, deadline=None)
def test_invalid_argv_exits_2_with_one_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, argv
    assert out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, argv
    assert set(json.loads(lines[0])) == {"command", "error"}, argv
