import contextlib
import io

import numpy as np
import pytest

from prmhull import verify
from prmhull.cli import main
from prmhull.codes import field_matmul
from prmhull.euclidean_hull import relative_hull_dim
from prmhull.fields import field_for_size, field_make
from prmhull.points import affine_points, projective_points
from prmhull.prm import (
    CODE_CACHE_SIZE,
    CodeParams,
    DualDescription,
    binom,
    dim_prm,
    dim_rm,
    prm_code,
    prm_dual_code,
    prm_dual_description,
    prm_params,
    rm_code,
    rm_dual_degree,
    rm_params,
)


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0
    assert binom(-1, -1) == 0
    assert binom(0, 0) == 1


def test_prm_params_examples():
    assert prm_params(4, 2, 1) == CodeParams("PRM", 4, 2, 1, 21, 3, 16)
    assert prm_params(4, 2, 5).k == 18
    assert prm_params(4, 2, 5).wt == 3
    assert prm_params(9, 2, 13).wt == 5
    assert prm_params(2, 2, 1) == CodeParams("PRM", 2, 2, 1, 7, 3, 4)


def test_rm_params_examples():
    assert rm_params(9, 2, 0).k == 1 and rm_params(9, 2, 0).wt == 81
    assert rm_params(4, 2, 3).k == 10
    assert rm_params(9, 2, 2).k == 6
    # order m(q-1) is the full code; over GF(3) that is order 4 with k = 9
    assert rm_params(3, 2, 4).k == 9
    assert rm_params(4, 2, 4).k == 13


@pytest.mark.parametrize("q, m", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 3), (9, 2)])
def test_rm_weight_at_the_top_order_is_the_int_one(q, m):
    # RM_{m(q-1)} is the whole space, of minimum weight 1
    wt = rm_params(q, m, m * (q - 1)).wt
    assert wt == 1 and type(wt) is int


def test_params_range_checks():
    with pytest.raises(ValueError):
        prm_params(4, 2, 0)
    with pytest.raises(ValueError):
        prm_params(4, 2, 7)
    with pytest.raises(ValueError):
        rm_params(4, 2, -1)
    with pytest.raises(ValueError):
        rm_code(field_for_size(4), 2, 7)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_ranks_match_formulas(q):
    ctx = field_for_size(q)
    for d in range(1, 2 * (q - 1) + 1):
        assert prm_code(ctx, 2, d).k == prm_params(q, 2, d).k, ("prm", q, d)
    for d in range(0, 2 * (q - 1) + 1):
        assert rm_code(ctx, 2, d).k == rm_params(q, 2, d).k, ("rm", q, d)


def test_rm_code_order_zero_is_repetition():
    ctx = field_for_size(5)
    c = rm_code(ctx, 2, 0)
    assert c.k == 1 and (c.matrix == 1).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_dual_oracle_exhaustive_small(q):
    ctx = field_for_size(q)
    for d in range(1, 2 * (q - 1) + 1):
        assert prm_code(ctx, 2, d).dual() == prm_dual_code(ctx, 2, d), (q, d)


@pytest.mark.parametrize("q,d", [(7, 3), (8, 5), (9, 4), (9, 8)])
def test_dual_oracle_spot_larger(q, d):
    ctx = field_for_size(q)
    assert prm_code(ctx, 2, d).dual() == prm_dual_code(ctx, 2, d)


def test_dual_description_examples():
    assert prm_dual_description(4, 2, 4) == DualDescription(2, False)
    assert prm_dual_description(4, 2, 3) == DualDescription(3, True)
    assert prm_dual_description(4, 2, 6) == DualDescription(0, False)
    assert rm_dual_degree(9, 2, 0) == 15
    assert rm_dual_degree(4, 2, 3) == 2
    for q in (3, 4, 9):
        assert rm_dual_degree(q, 2, 2 * (q - 1) - 1) == 0


def test_rm_duality_oracle():
    for q in (2, 3, 4):
        ctx = field_for_size(q)
        for d in range(0, 2 * (q - 1)):
            dual_deg = rm_dual_degree(q, 2, d)
            assert rm_code(ctx, 2, d).dual() == rm_code(ctx, 2, dual_deg), (q, d)


def test_weight_formula_vs_enumeration_small():
    for q, dmax in ((2, 2), (3, 4), (4, 3)):
        ctx = field_for_size(q)
        for d in range(1, dmax + 1):
            assert prm_code(ctx, 2, d).min_weight() == prm_params(q, 2, d).wt, (q, d)
        for d in range(0, dmax + 1):
            assert rm_code(ctx, 2, d).min_weight() == rm_params(q, 2, d).wt, (q, d)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_all_ones_never_in_prm(q):
    """A constant is never a degree-d class in the plane quotient."""
    ctx = field_for_size(q)
    ones = np.ones(q * q + q + 1, dtype=int)
    for d in range(1, 2 * (q - 1) + 1):
        assert not prm_code(ctx, 2, d).contains(ones), (q, d)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_congruent_degrees_nest(q):
    ctx = field_for_size(q)
    for d1 in range(1, 2 * (q - 1) + 1):
        for d2 in range(d1, 2 * (q - 1) + 1):
            if (d2 - d1) % (q - 1) == 0:
                assert prm_code(ctx, 2, d1).is_subcode_of(prm_code(ctx, 2, d2)), (q, d1, d2)


def test_other_ambient_dimensions():
    # projective line and P^3 sanity: formulas still match the rank oracle
    ctx2 = field_for_size(2)
    assert prm_params(2, 3, 1).n == 15
    assert prm_code(ctx2, 3, 1).k == prm_params(2, 3, 1).k == 4
    ctx4 = field_for_size(4)
    assert prm_params(4, 1, 2).n == 5
    assert prm_code(ctx4, 1, 2).k == prm_params(4, 1, 2).k
    assert rm_code(ctx4, 1, 2).k == rm_params(4, 1, 2).k == 3


def test_dim_helpers_consistent_with_split_basis():
    # dim PRM_d(2) = dim RM_{d-1}(2) + (d+1 below q, else q+1)
    for q in (3, 4, 5, 9):
        for d in range(1, 2 * (q - 1) + 1):
            expected = dim_rm(q, d - 1) + (d + 1 if d <= q - 1 else q + 1)
            assert dim_prm(q, d) == expected, (q, d)
    assert dim_rm(4, -1) == 0


def test_codes_beyond_table_limit_refused_before_points_are_built():
    from prmhull.hermitian_hull import affine_hull_oracle, hermitian_hull_oracle, power_span_code

    big = field_make(5, 4)  # GF(625): no dense tables
    infos = (projective_points.cache_info(), affine_points.cache_info())
    for build, args in [
        (prm_code, (big, 2, 1)),
        (rm_code, (big, 2, 1)),
        # over GF(23^2) and GF(32^2), whose planes have 280,371 and 1,048,576 points
        (hermitian_hull_oracle, (23, 1)),
        (affine_hull_oracle, (32, 1, 1)),
        (power_span_code, (23, 1)),
    ]:
        with pytest.raises(ValueError, match="dense tables"):
            build(*args)
        assert (projective_points.cache_info(), affine_points.cache_info()) == infos, build


@pytest.mark.parametrize(
    "q, pairs",
    [(16, [(3, 10), (10, 20), (5, 20)]), (25, [(5, 12), (12, 30), (6, 30)])],
)
def test_kernel_self_checks_at_larger_q(q, pairs):
    # both dual paths (2k < n and 2k >= n) and congruent and other pairs
    ctx = field_for_size(q)
    for d in sorted({d for pair in pairs for d in pair}):
        code = prm_code(ctx, 2, d)
        dual = code.dual()
        assert code.k + dual.k == code.n
        assert not field_matmul(ctx, code.matrix, dual.matrix.T).any()
    for d1, d2 in pairs:
        c1, c2 = prm_code(ctx, 2, d1), prm_code(ctx, 2, d2)
        inter = c1.intersect(c2)
        assert inter.is_subcode_of(c1) and inter.is_subcode_of(c2)
        assert inter.k == relative_hull_dim(q, d1, d2)


def test_code_caches_are_bounded_and_hold_the_verify_all_working_set(goldens_dir, monkeypatch):
    # on one CPU every sweep runs in this process, so these caches see them all
    monkeypatch.setattr(verify, "available_cpus", lambda: 1)
    caches = (prm_code, rm_code)
    for cache in caches:
        assert cache.cache_info().maxsize == CODE_CACHE_SIZE
        cache.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "all", "--goldens", str(goldens_dir)]) == 0
    prm_info, rm_info = (cache.cache_info() for cache in caches)
    # every code built is still cached: verify all evicts nothing; the
    # Hermitian oracles build no code over GF(q^2), so no RM code is built
    assert (prm_info.misses, rm_info.misses) == (60, 0)
    assert (prm_info.currsize, rm_info.currsize) == (60, 0)
