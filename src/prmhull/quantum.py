"""Entanglement-assisted quantum code parameters from plane Reed-Muller codes.

The CSS-type construction turns a pair (C1, C2) into an asymmetric
[[n, kappa, dz/dx; c]] code with c = dim C1 - dim Hull_{C2}(C1), where
Hull_{C2}(C1) = C1 cap C2perp, and kappa = n - (k1 + k2) + c; the Hermitian
construction turns one code over GF(q^2) into [[n, kappa, delta; c]] with
c = k - dim(C cap Cperp_h) and kappa = n - 2k + c.  Every c is k minus a
hull dimension read from the hull modules: `euclidean_hull.hull_dim_with_dual`
for PRM pairs, `hermitian_hull.hermitian_hull_dim` and `affine_u_size` for
the Hermitian constructions.  `asym_from_codes` reads c and kappa for any
pair of codes from the rank of one oracle elimination, which `verify`
checks the PRM closed forms against; it computes no distance.  Euclidean
distances are the exact weight-formula values dz = wt(C2perp) and
dx = wt(C1perp), and a pair that is not nested is pure; Hermitian
distances are emitted as dual-weight lower bounds.  `purity_probe` checks
purity by exact minimum-weight search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codes import DEFAULT_WEIGHT_CAP, LinearCode
from .euclidean_hull import hull_dim_with_dual
from .fields import field_for_size
from .hermitian_hull import affine_u_size, hermitian_hull_dim
from .prm import (
    dim_prm,
    dim_rm,
    prm_code,
    prm_params,
    rm_dual_degree,
    rm_params,
)


@dataclass(frozen=True)
class EaqeccParams:
    """[[n, kappa, delta_z/delta_x (or delta); c]] over GF(base_q) qudits."""

    base_q: int
    n: int
    kappa: int
    c: int
    delta_z: int | None = None
    delta_x: int | None = None
    delta: int | None = None
    delta_is_bound: bool = False  # delta fields are lower bounds (>=)
    c_is_bound: bool = False  # c is an upper bound (<=); kappa follows it
    pure: bool | None = None
    provenance: str = "closed_form"  # closed_form | oracle


def asym_from_codes(c1: LinearCode, c2: LinearCode) -> EaqeccParams:
    """CSS-type c and kappa for an arbitrary code pair; no distance is
    computed.  c = k1 - dim(C1 cap C2perp) is read from the rank of one
    elimination: no basis of the hull is built."""
    # C1 cap C2perp by membership in c2's memoised dual: the one dual `verify`
    # builds, since C2perp is the code the construction reads
    c = c1.k - c1.intersect_dim(c2.dual())
    kappa = c1.n - (c1.k + c2.k) + c
    return EaqeccParams(base_q=c1.ctx.q, n=c1.n, kappa=kappa, c=c, provenance="oracle")


def _check_asym_degrees(q: int, d1: int, d2: int) -> None:
    """Admit 1 <= d1 <= d2 < 2(q-1), neither equal to q-1, the `asym_pairs`."""
    if not 1 <= d1 <= d2 < 2 * (q - 1):
        raise ValueError(
            f"require 1 <= d1 <= d2 < 2(q-1) = {2*(q-1)}; got d1={d1}, d2={d2}"
        )
    if q - 1 in (d1, d2):
        raise ValueError(
            f"degree q-1 = {q-1} excluded: the dual involved is not a PRM code"
        )


def asym_pairs(q: int):
    """The pairs `_check_asym_degrees` admits, in (d1, d2) order."""
    degrees = [d for d in range(1, 2 * (q - 1)) if d != q - 1]
    return ((d1, d2) for i, d1 in enumerate(degrees) for d2 in degrees[i:])


def prm_asym_eaqecc(q: int, d1: int, d2: int) -> EaqeccParams:
    """Asymmetric EAQECC from the pair (PRM_d1, PRM_d2) over the plane.

    c = dim C1 - dim Hull_{C2}(C1), the hull dimension read from
    `euclidean_hull.hull_dim_with_dual`.  Purity is left open when d1 + d2
    is a multiple of q-1: PRM_d1 and the dual of PRM_d2 are then nested.
    """
    _check_asym_degrees(q, d1, d2)
    n = q * q + q + 1
    k1 = dim_prm(q, d1)
    c = k1 - hull_dim_with_dual(q, d1, d2)
    pure = None if (d1 + d2) % (q - 1) == 0 else True
    kappa = n - (k1 + dim_prm(q, d2)) + c
    dz = prm_params(q, 2, 2 * (q - 1) - d2).wt
    dx = prm_params(q, 2, 2 * (q - 1) - d1).wt
    return EaqeccParams(
        base_q=q, n=n, kappa=kappa, c=c, delta_z=dz, delta_x=dx, pure=pure
    )


def prm_symmetric_best(q: int, d1: int) -> EaqeccParams:
    """The symmetric EAQECC at the optimal partner degree d2 = d1."""
    _check_asym_degrees(q, d1, d1)
    if (2 * d1) % (q - 1) == 0:
        raise ValueError("2*d1 = 0 mod q-1: congruent case, no closed form here")
    asym = prm_asym_eaqecc(q, d1, d1)
    return replace(asym, delta=asym.delta_z, delta_z=None, delta_x=None)


def herm_eaqecc_prm(q: int, d: int) -> EaqeccParams:
    """Hermitian-construction EAQECC from PRM_d(q^2, 2).

    c is exact for d <= 2(q-1) or d = 0 mod q-1, otherwise an upper bound
    mirroring the hull's lower bound; kappa = n - 2k + c is achievable with
    that many pairs either way.  delta is the dual-weight lower bound.
    """
    hull = hermitian_hull_dim(q, d)  # refuses d outside [1, q^2-2]
    Q = q * q
    n = Q * Q + Q + 1
    k = dim_prm(Q, d)
    c = k - hull.value
    kappa = n - 2 * k + c
    delta = prm_params(Q, 2, 2 * (Q - 1) - d).wt
    return EaqeccParams(
        base_q=q,
        n=n,
        kappa=kappa,
        c=c,
        delta=delta,
        delta_is_bound=True,
        c_is_bound=not hull.exact,
    )


def herm_eaqecc_rm(q: int, d: int) -> EaqeccParams:
    """Hermitian-construction EAQECC from RM_d(q^2, 2); c is always exact."""
    Q = q * q
    if not 0 <= d < Q - 1:
        raise ValueError(f"require 0 <= d < q^2-1 = {Q-1}")
    n = Q * Q
    k = dim_rm(Q, d)
    c = k - affine_u_size(q, d).total
    kappa = n - 2 * k + c
    delta = rm_params(Q, 2, rm_dual_degree(Q, 2, d)).wt
    return EaqeccParams(
        base_q=q, n=n, kappa=kappa, c=c, delta=delta, delta_is_bound=True
    )


@dataclass(frozen=True)
class PurityReport:
    q: int
    d1: int
    d2: int
    wt_full: int
    wt_excluding: int | None
    empty: bool

    @property
    def pure(self) -> bool:
        return not self.empty and self.wt_full == self.wt_excluding


def purity_probe(
    q: int, d1: int, d2: int, cap: int = DEFAULT_WEIGHT_CAP
) -> PurityReport:
    """Compare wt(PRM_d1) with the minimum weight outside the intersection.

    The full search's own minimum-weight word decides the record when it is
    a certificate: nonzero, in C1, of weight wt(C1) and outside C2.  It then
    lies outside C1 cap C2, below whose complement in C1 no weight can be,
    so the weight outside is wt(C1) and the intersection is not all of C1.
    Otherwise the intersection is built and searched.
    """
    ctx = field_for_size(q)
    c1, c2 = prm_code(ctx, 2, d1), prm_code(ctx, 2, d2)
    # the full-code weight first: at cap 0 it refuses before any
    # intersection is built (the excluding search may need more work)
    wt_full = c1.min_weight(cap=cap)
    word = c1.min_weight_word(cap=cap)
    if (
        word.any()
        and c1.contains(word)
        and np.count_nonzero(word) == wt_full
        and not c2.contains(word)
    ):
        return PurityReport(q, d1, d2, wt_full, wt_full, empty=False)
    wt_excl = c1.min_weight_excluding(c1.intersect(c2), cap=cap)
    return PurityReport(q, d1, d2, wt_full, wt_excl, empty=wt_excl is None)


def asym_table_rows(q: int) -> list[tuple[int, int, EaqeccParams]]:
    """The closed-form asymmetric rows with kappa >= 0, in `asym_pairs` order."""
    rows = [(d1, d2, prm_asym_eaqecc(q, d1, d2)) for d1, d2 in asym_pairs(q)]
    return [row for row in rows if row[2].kappa >= 0]
