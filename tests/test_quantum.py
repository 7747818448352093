import itertools

import numpy as np
import pytest

from prmhull.fields import field_for_size
from prmhull.prm import prm_code, prm_params, rm_params
from prmhull.quantum import (
    PurityReport,
    asym_from_codes,
    asym_table_rows,
    herm_eaqecc_prm,
    herm_eaqecc_rm,
    prm_asym_eaqecc,
    prm_symmetric_best,
    purity_probe,
)


def test_asym_worked_example_q9():
    p = prm_asym_eaqecc(9, 3, 11)
    assert (p.n, p.kappa, p.delta_z, p.delta_x, p.c) == (91, 15, 45, 5, 4)
    assert p.pure is True
    assert p.base_q == 9


def test_asym_table1_rows_q4():
    p = prm_asym_eaqecc(4, 1, 4)
    assert (p.n, p.kappa, p.delta_z, p.delta_x, p.c) == (21, 5, 12, 3, 2)
    p = prm_asym_eaqecc(4, 2, 5)
    assert (p.kappa, p.delta_x, p.delta_z, p.c) == (2, 4, 16, 5)
    p = prm_asym_eaqecc(4, 4, 4)
    assert (p.kappa, p.c) == (2, 11)


def test_high_asymmetry_family():
    p = prm_asym_eaqecc(9, 1, 14)
    assert (p.n, p.kappa, p.delta_z, p.delta_x, p.c) == (91, 5, 72, 3, 2)


def test_asym_rejects_excluded_degrees():
    with pytest.raises(ValueError):
        prm_asym_eaqecc(4, 3, 5)  # d1 = q-1
    with pytest.raises(ValueError):
        prm_asym_eaqecc(4, 1, 3)  # d2 = q-1
    with pytest.raises(ValueError):
        prm_asym_eaqecc(4, 1, 6)  # d2 = 2(q-1) out of range
    with pytest.raises(ValueError):
        prm_asym_eaqecc(4, 0, 2)


def test_congruent_sum_note_cases():
    # d1 + d2 = q - 1: containment gives c = 0
    p = prm_asym_eaqecc(5, 1, 3)
    assert p.c == 0
    # d1 + d2 = 2(q-1)
    p = prm_asym_eaqecc(5, 2, 6)
    assert p.c == 0 and p.kappa == 0
    # d1 + d2 = 3(q-1): c is the dimension gap
    p = prm_asym_eaqecc(5, 5, 7)
    assert p.c == prm_params(5, 2, 5).k - prm_params(5, 2, 1).k


def test_kappa_identity_everywhere():
    for q in (4, 5, 9):
        for d1, d2, p in asym_table_rows(q):
            k1, k2 = prm_params(q, 2, d1).k, prm_params(q, 2, d2).k
            assert p.kappa == p.n - (k1 + k2) + p.c, (q, d1, d2)
            assert p.kappa >= 0 and p.c >= 0


def test_symmetric_best_examples():
    p = prm_symmetric_best(4, 1)
    assert (p.n, p.kappa, p.delta, p.c) == (21, 16, 3, 1)
    q9 = prm_symmetric_best(9, 2)
    asym = prm_asym_eaqecc(9, 2, 2)
    assert (q9.kappa, q9.c, q9.delta) == (asym.kappa, asym.c, asym.delta_z)


def test_symmetric_best_congruent_degree_rejected():
    # 2*2 = 0 mod 4: outside the closed form; the asym path serves it with c=0
    with pytest.raises(ValueError):
        prm_symmetric_best(5, 2)
    assert prm_asym_eaqecc(5, 2, 2).c == 0
    with pytest.raises(ValueError):
        prm_symmetric_best(4, 3)  # d1 = q-1


@pytest.mark.parametrize("q", [4, 5])
def test_symmetric_best_matches_asym_specialization(q):
    for d1 in range(1, 2 * (q - 1)):
        if d1 == q - 1 or (2 * d1) % (q - 1) == 0:
            continue
        sym = prm_symmetric_best(q, d1)
        asym = prm_asym_eaqecc(q, d1, d1)
        assert (sym.kappa, sym.c) == (asym.kappa, asym.c)
        assert sym.delta == min(asym.delta_z, asym.delta_x)


def test_herm_prm_examples():
    p = herm_eaqecc_prm(3, 2)
    assert (p.n, p.kappa, p.c, p.delta) == (91, 79, 0, 4)
    assert p.delta_is_bound and not p.c_is_bound
    p = herm_eaqecc_prm(3, 1)
    assert (p.c, p.delta, p.kappa) == (1, 3, 86)  # identity value, not 85
    p = herm_eaqecc_prm(3, 3)
    assert (p.c, p.delta, p.kappa) == (2, 5, 73)  # identity value, not 71
    p = herm_eaqecc_prm(3, 7)
    assert p.c == 13 and p.c_is_bound


def test_herm_prm_range():
    with pytest.raises(ValueError):
        herm_eaqecc_prm(3, 8)  # q^2 - 1 excluded
    with pytest.raises(ValueError):
        herm_eaqecc_prm(3, 0)


def test_herm_prm_c_branches_small_degrees():
    # c = 0 / 1 / 2 by congruence and position relative to q-1
    assert herm_eaqecc_prm(4, 3).c == 0
    assert herm_eaqecc_prm(4, 6).c == 0
    assert herm_eaqecc_prm(4, 1).c == 1
    assert herm_eaqecc_prm(4, 2).c == 1
    assert herm_eaqecc_prm(4, 4).c == 2
    assert herm_eaqecc_prm(4, 5).c == 2


def test_herm_rm_examples():
    p = herm_eaqecc_rm(3, 1)
    assert (p.c, p.kappa, p.n) == (0, 75, 81)
    assert herm_eaqecc_rm(3, 4).c == 1
    assert herm_eaqecc_rm(3, 3).c == 0
    with pytest.raises(ValueError):
        herm_eaqecc_rm(3, 8)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_herm_rm_c_against_oracle(q):
    from prmhull.hermitian_hull import affine_hull_oracle

    Q = q * q
    for d in range(0, Q - 1):
        p = herm_eaqecc_rm(q, d)
        k = rm_params(Q, 2, d).k
        assert p.c == k - affine_hull_oracle(q, d, d).k, (q, d)
        assert p.kappa == p.n - 2 * k + p.c


@pytest.mark.parametrize("q", [2, 3])
def test_herm_prm_c_against_oracle(q):
    from prmhull.hermitian_hull import hermitian_hull_oracle

    Q = q * q
    for d in range(1, Q - 1):
        p = herm_eaqecc_prm(q, d)
        k = prm_params(Q, 2, d).k
        oracle_c = k - hermitian_hull_oracle(q, d).k
        if p.c_is_bound:
            assert oracle_c <= p.c, (q, d)
        else:
            assert oracle_c == p.c, (q, d)


def test_purity_probe_examples():
    rep = purity_probe(4, 2, 4)
    assert rep.wt_full == rep.wt_excluding == 12 and rep.pure
    rep = purity_probe(3, 4, 3)
    assert rep.pure and rep.wt_full == prm_params(3, 2, 4).wt
    # congruent degrees with d2 >= d1: nothing outside the intersection
    assert purity_probe(4, 2, 5).empty
    assert purity_probe(3, 1, 3).empty


def test_asym_from_codes_matches_closed_form():
    ctx = field_for_size(4)
    for d1 in (1, 2, 4, 5):
        for d2 in (1, 2, 4, 5):
            if d1 > d2:
                continue
            closed = prm_asym_eaqecc(4, d1, d2)
            oracle = asym_from_codes(prm_code(ctx, 2, d1), prm_code(ctx, 2, d2))
            assert (oracle.c, oracle.kappa) == (closed.c, closed.kappa), (d1, d2)
            assert oracle.provenance == "oracle"


def test_asym_from_codes_fano():
    ctx = field_for_size(2)
    fano = prm_code(ctx, 2, 1)
    p = asym_from_codes(fano, fano)
    # the simplex code is contained in its dual, so no entanglement is needed
    assert p.c == 0 and p.kappa == 7 - 6 + 0


def test_asym_from_codes_degenerate_full_code():
    import numpy as np

    from prmhull.codes import LinearCode

    ctx = field_for_size(2)
    full = LinearCode.from_rows(ctx, np.eye(4, dtype=int))
    p = asym_from_codes(full, full)
    # dual is the zero code: ranks still give c and kappa
    assert p.c == 4 and p.kappa == 0


def test_asym_from_codes_takes_only_a_gram_rank(monkeypatch):
    # c and kappa need one Gram rank; no hull basis is built and no weight
    # is searched for
    from prmhull.codes import LinearCode

    ctx = field_for_size(4)
    c1, c2 = prm_code(ctx, 2, 1), prm_code(ctx, 2, 4)
    calls = []
    real = LinearCode.intersect_dim

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)

    def refuse(*_args, **_kwargs):
        raise AssertionError("hull basis built or minimum weight searched")

    monkeypatch.setattr(LinearCode, "intersect_dim", counting)
    for name in ("intersect", "relative_hull", "min_weight", "min_weight_excluding"):
        monkeypatch.setattr(LinearCode, name, refuse)
    p = asym_from_codes(c1, c2)
    assert p.c == prm_asym_eaqecc(4, 1, 4).c
    assert (p.delta_z, p.delta_x, p.pure) == (None, None, None)
    assert calls == [(c1, c2.dual())]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_asym_distances_are_the_dual_weights(q):
    # dz = wt(C2perp) and dx = wt(C1perp), each weight searched on the oracle's dual
    ctx = field_for_size(q)
    degrees = [d for d in range(1, 2 * (q - 1)) if d != q - 1]
    for d1, d2 in itertools.combinations_with_replacement(degrees, 2):
        p = prm_asym_eaqecc(q, d1, d2)
        dual_weight = {d: prm_code(ctx, 2, d).dual().min_weight() for d in (d1, d2)}
        assert (p.delta_z, p.delta_x) == (dual_weight[d2], dual_weight[d1]), (d1, d2)


def _probed_pairs(q):
    """The pairs `verify.purity_sweep` probes: degrees not congruent mod q-1."""
    degrees = range(1, 2 * (q - 1) + 1)
    return [(d1, d2) for d1 in degrees for d2 in degrees if (d1 - d2) % (q - 1)]


def _searched_report(q, d1, d2):
    """The report of the excluding search on the built intersection."""
    ctx = field_for_size(q)
    c1, c2 = prm_code(ctx, 2, d1), prm_code(ctx, 2, d2)
    wt_excl = c1.min_weight_excluding(c1.intersect(c2))
    return PurityReport(q, d1, d2, c1.min_weight(), wt_excl, empty=wt_excl is None)


@pytest.mark.parametrize("q", [3, 4])
def test_purity_probe_decides_each_probed_pair_by_its_certificate(monkeypatch, q):
    from prmhull.codes import LinearCode

    expected = {pair: _searched_report(q, *pair) for pair in _probed_pairs(q)}

    def refuse(*_args, **_kwargs):
        raise AssertionError("intersection built or searched")

    monkeypatch.setattr(LinearCode, "intersect", refuse)
    monkeypatch.setattr(LinearCode, "min_weight_excluding", refuse)
    for pair, report in expected.items():
        assert purity_probe(q, *pair) == report, pair


def _planted_words(q, d1, d2):
    """Words that each fail one check of the certificate and pass the others
    (nonzero, in C1, of weight wt(C1), outside C2), and the zero word, which
    is in C1 only."""
    ctx = field_for_size(q)
    c1, c2 = prm_code(ctx, 2, d1), prm_code(ctx, 2, d2)
    w = c1.min_weight()
    outside = c1.min_weight_word().copy()
    outside[np.flatnonzero(outside == 0)[0]] = 1
    outside[np.flatnonzero(outside)[-1]] = 0
    words = {
        "zero": np.zeros(c1.n, dtype=np.uint16),
        "in C2": c1.intersect(c2).min_weight_word(),
        "wrong weight": next(
            r for r in c1.matrix if np.count_nonzero(r) != w and not c2.contains(r)
        ),
        "outside C1": outside,
    }
    for name, word in words.items():
        checks = {
            "zero": word.any(),
            "outside C1": c1.contains(word),
            "wrong weight": np.count_nonzero(word) == w,
            "in C2": not c2.contains(word),
        }
        failed = [check for check, ok in checks.items() if not ok]
        assert failed == (["zero", "wrong weight", "in C2"] if name == "zero" else [name])
    return words


@pytest.mark.parametrize("planted", ["zero", "in C2", "wrong weight", "outside C1"])
@pytest.mark.parametrize("q, d1, d2", [(3, 3, 4), (4, 2, 4), (4, 4, 5)])
def test_purity_probe_falls_back_to_the_search_on_a_bad_word(monkeypatch, q, d1, d2, planted):
    from prmhull.codes import LinearCode

    word = _planted_words(q, d1, d2)[planted]
    searched = []
    real = LinearCode.min_weight_excluding

    def counted(self, *args, **kwargs):
        searched.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "min_weight_word", lambda self, cap=None: word)
    monkeypatch.setattr(LinearCode, "min_weight_excluding", counted)
    assert purity_probe(q, d1, d2) == _searched_report(q, d1, d2)
    assert len(searched) == 2  # the probe's fallback, then the reference's search


def test_purity_probe_zero_cap_builds_no_intersection(monkeypatch):
    # the full-code weight refuses first, so a budget skip costs no elimination
    from prmhull.codes import EnumerationBudgetError, LinearCode

    def no_intersect(self, other):
        raise AssertionError("intersect called")

    monkeypatch.setattr(LinearCode, "intersect", no_intersect)
    with pytest.raises(EnumerationBudgetError):
        purity_probe(4, 1, 2, cap=0)


@pytest.mark.parametrize("q", [3, 5, 7, 8, 11, 13])
def test_closed_form_c_matches_oracle_across_fields(q):
    from prmhull.verify import eaqecc_euclid_sweep

    records = eaqecc_euclid_sweep(q)
    bad = [r for r in records if r["status"] != "pass"]
    assert not bad, bad[:5]


def test_table_rows_sorted_and_admissible():
    rows = asym_table_rows(4)
    keys = [(d1, d2) for d1, d2, _ in rows]
    assert keys == sorted(keys)
    assert all(d1 != 3 and d2 != 3 for d1, d2 in keys)
    assert (1, 4) in keys and (2, 5) in keys


# -- degree domains: each family's range is checked in one place ----------------


def _degree_domains():
    from prmhull import euclidean_hull as eh
    from prmhull import hermitian_hull as hh
    from prmhull import prm

    f3 = field_for_size(3)
    # (name, call on the degree, lowest and highest accepted degree)
    table = [
        ("prm_code", lambda d: prm.prm_code(f3, 2, d), 1, 4),
        ("rm_code", lambda d: prm.rm_code(f3, 2, d), 0, 4),
        ("prm_params", lambda d: prm.prm_params(3, 2, d), 1, 4),
        ("rm_params", lambda d: prm.rm_params(3, 2, d), 0, 4),
        ("prm_dual_description", lambda d: prm.prm_dual_description(3, 2, d), 1, 4),
        ("rm_dual_degree", lambda d: prm.rm_dual_degree(3, 2, d), 0, 4),
        ("prm_dual_code", lambda d: prm.prm_dual_code(f3, 2, d), 1, 4),
        ("dim_prm", lambda d: prm.dim_prm(3, d), 1, 4),
        ("self_hull_dim", lambda d: eh.self_hull_dim(4, d), 1, 6),
        ("hull_dim_with_dual code", lambda d: eh.hull_dim_with_dual(4, d, 2), 1, 6),
        ("hull_dim_with_dual partner", lambda d: eh.hull_dim_with_dual(4, 2, d), 1, 6),
        ("prm_symmetric_best", lambda d: prm_symmetric_best(4, d), 1, 5),
        ("herm_eaqecc_prm", lambda d: herm_eaqecc_prm(3, d), 1, 7),
        ("herm_eaqecc_rm", lambda d: herm_eaqecc_rm(3, d), 0, 7),
        ("affine_hull_monomials d1", lambda d: hh.affine_hull_monomials(3, d, 0), 0, 16),
        ("affine_hull_monomials d2", lambda d: hh.affine_hull_monomials(3, 0, d), 0, 16),
        ("affine_hermitian_hull_dim", lambda d: hh.affine_hermitian_hull_dim(3, d), 0, 7),
        ("affine_u_size", lambda d: hh.affine_u_size(3, d), 0, 7),
        ("u_size", lambda d: hh.u_size(3, d), 1, 7),
        ("hermitian_hull_dim", lambda d: hh.hermitian_hull_dim(3, d), 1, 7),
        ("set_u", lambda d: hh.set_u(3, d), 1, 8),
        ("set_t", lambda d: hh.set_t(3, d), 1, 8),
        ("t_size", lambda d: hh.t_size(3, d), 1, 8),
        ("w_indices", lambda d: hh.w_indices(3, d), 1, 8),
        ("hermitian_hull_basis", lambda d: hh.hermitian_hull_basis(3, d), 1, 8),
    ]
    return [pytest.param(call, lo, hi, id=name) for name, call, lo, hi in table]


@pytest.mark.parametrize("call, lo, hi", _degree_domains())
def test_degree_domain_accepts_its_ends_and_refuses_one_past(call, lo, hi):
    call(lo)
    call(hi)
    for d in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            call(d)
