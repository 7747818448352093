"""Monomials and sparse polynomials over GF(q), with the quotient-ring
machinery for the plane: the closed-form normal form modulo the vanishing
ideal of the projective-plane representatives, the degree-d monomial
basis split A_1/A_2/A_3, and the standard monomial basis of the quotient.

Monomials are plain exponent tuples.  The monomial order used for
deterministic output is graded lexicographic with x0 < x1 < x2 (degree
first, then reversed exponent tuple).  The text format for CLI I/O joins
terms with " + ", writes monomials as x0^a0*x1^a1*x2^a2 with zero
exponents and unit coefficients omitted, and prints coefficients as
integer encodings.  Exponents are non-negative integers; anything else is
refused on construction, parsing and evaluation.

Evaluation reads only the field's log/antilog pair: monomial values are
the antilogs of E L^T mod q-1 (E the exponents, L the coordinates' logs),
zeroed where a coordinate with a positive exponent is zero, and a batch of
polynomials is one `codes.field_matmul` of its coefficients against them.
"""

from __future__ import annotations

import numpy as np

from .codes import field_matmul, kernel_tables
from .fields import FieldContext
from .points import PointSet

Monomial = tuple  # exponent tuple, one entry per variable


def grlex_key(mono: Monomial):
    """Sort key for graded lex with x0 < x1 < x2 (ascending)."""
    return (sum(mono), tuple(reversed(mono)))


def overline(z: int, q: int) -> int:
    """Representative of z mod q-1 in [1, q-1], with overline(0) = 0.

    Keeps exponent 0 distinct from exponent q-1, which evaluate
    differently at points with zero coordinates.
    """
    if z < 0:
        raise ValueError("overline is defined for non-negative integers")
    if q < 2:
        raise ValueError("modulus base must be >= 2")
    if z == 0:
        return 0
    r = z % (q - 1)
    return q - 1 if r == 0 else r


def _encoding(ctx: FieldContext, coeff: int) -> int:
    """coeff itself; raises ValueError unless it is an integer encoding an element of ctx."""
    if not (isinstance(coeff, (int, np.integer)) and 0 <= coeff < ctx.q):
        raise ValueError(f"coefficient {coeff} is not an element encoding of {ctx!r}")
    return coeff


def _monomial(mono, nvars: int) -> Monomial:
    """mono as a tuple; raises ValueError unless it is nvars non-negative integers."""
    mono = tuple(mono)
    if len(mono) != nvars:
        raise ValueError(f"monomial {mono} does not have {nvars} variables")
    if not all(isinstance(a, (int, np.integer)) and a >= 0 for a in mono):
        raise ValueError(f"monomial {mono} has an exponent that is not a non-negative integer")
    return mono


class SparsePolynomial:
    """Map from exponent tuples to nonzero coefficient encodings."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldContext, nvars: int, terms: dict | None = None):
        self.ctx = ctx
        self.nvars = nvars
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = _monomial(mono, nvars)
            if _encoding(ctx, coeff):
                clean[mono] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldContext, nvars: int) -> SparsePolynomial:
        return cls(ctx, nvars, {})

    @classmethod
    def monomial(cls, ctx: FieldContext, expts: Monomial, coeff: int = 1) -> SparsePolynomial:
        return cls(ctx, len(expts), {tuple(expts): coeff})

    @classmethod
    def constant(cls, ctx: FieldContext, nvars: int, coeff: int) -> SparsePolynomial:
        return cls(ctx, nvars, {(0,) * nvars: coeff})

    @classmethod
    def from_term_list(cls, ctx: FieldContext, nvars: int, terms) -> SparsePolynomial:
        """Build from (monomial, coefficient) pairs, field-adding collisions."""
        acc: dict = {}
        for mono, coeff in terms:
            mono = tuple(mono)
            acc[mono] = ctx.add(acc.get(mono, 0), _encoding(ctx, coeff))
        return cls(ctx, nvars, acc)

    # -- ring operations -------------------------------------------------------

    def _check(self, other: SparsePolynomial) -> None:
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: SparsePolynomial) -> SparsePolynomial:
        self._check(other)
        ctx = self.ctx
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = ctx.add(terms.get(mono, 0), c)
        return SparsePolynomial(ctx, self.nvars, terms)

    def __neg__(self) -> SparsePolynomial:
        ctx = self.ctx
        return SparsePolynomial(ctx, self.nvars, {m: ctx.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: SparsePolynomial) -> SparsePolynomial:
        return self + (-other)

    def __mul__(self, other: SparsePolynomial) -> SparsePolynomial:
        self._check(other)
        ctx = self.ctx
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                terms[mono] = ctx.add(terms.get(mono, 0), ctx.mul(c1, c2))
        return SparsePolynomial(ctx, self.nvars, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.ctx == other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (the display order)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, pts: PointSet) -> np.ndarray:
        """Exact evaluation at every point, as a vector of encodings."""
        return evaluate_polynomials(self.ctx, pts, [self])[0]

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.ctx!r}, {format_polynomial(self)!r})"


# -- vectorized evaluation ----------------------------------------------------


def evaluate_polynomials(ctx: FieldContext, pts: PointSet, polys: list) -> np.ndarray:
    """Evaluate several polynomials at once; one row per polynomial.

    Refuses a polynomial over another field or in another number of
    variables than the points have coordinates.
    """
    for f in polys:
        if f.nvars != pts.arity:
            raise ValueError(f"point arity {pts.arity} != variable count {f.nvars}")
        if f.ctx != ctx:
            raise ValueError("polynomial over a different field")
    monos = list(dict.fromkeys(m for f in polys for m in f.terms))
    return field_matmul(ctx, coefficient_rows(polys, monos), evaluate_monomials(ctx, pts, monos))


def coefficient_rows(polys: list, monomials: list) -> np.ndarray:
    """Each polynomial's coefficients on `monomials`, which hold all its terms."""
    index = {m: j for j, m in enumerate(monomials)}
    rows = np.zeros((len(polys), len(monomials)), dtype=np.int64)
    for i, f in enumerate(polys):
        rows[i, [index[m] for m in f.terms]] = list(f.terms.values())
    return rows


def evaluate_monomials(ctx: FieldContext, pts: PointSet, monomials: list) -> np.ndarray:
    """Evaluations of bare monomials at all points (rows in given order).

    Refuses a point set over another field, and a field too large for
    the kernel, which every code built from these rows goes to.
    """
    kernel_tables(ctx)
    if pts.ctx != ctx:
        raise ValueError("point set over a different field")
    E = np.array([_monomial(m, pts.arity) for m in monomials], dtype=np.int64)
    E = E.reshape(len(monomials), pts.arity)
    coords = pts.array
    rows = ctx.exp_table[E % (ctx.q - 1) @ ctx.log_table[coords].T % (ctx.q - 1)]
    rows[(E > 0) @ (coords == 0).T] = 0
    return rows


# -- normal form modulo the plane's vanishing ideal -----------------------------


def reduce_mod_ip2(f: SparsePolynomial) -> SparsePolynomial:
    """Normal form of f on the standard basis of the quotient by I(P^2).

    Term-by-term rewrite with the three closed-form cases; the output has
    the same evaluation as f at every point of the projective plane.
    """
    if f.nvars != 3:
        raise ValueError("normal form is defined for 3 variables (x0, x1, x2)")
    ctx = f.ctx
    q = ctx.q
    acc: dict = {}

    def put(mono, coeff):
        acc[mono] = ctx.add(acc.get(mono, 0), coeff)

    for (a0, a1, a2), c in f.terms.items():
        b1, b2 = overline(a1, q), overline(a2, q)
        if a0 == 0:
            put((0, b1, b2), c)
        elif a1 == 0:
            put((1, 0, b2), c)
        else:
            nc = ctx.neg(c)
            put((0, b1, b2), c)
            put((1, 0, b2), c)
            put((0, 0, b2), nc)
            put((1, 1, 0), c)
            put((1, 0, 0), nc)
            put((0, 1, 0), nc)
            put((0, 0, 0), c)
    return SparsePolynomial(ctx, 3, acc)


def standard_basis_p2(q: int) -> list:
    """The q^2+q+1 standard monomials of the plane quotient, in a fixed order."""
    basis = [(0, a1, a2) for a1 in range(q) for a2 in range(q)]
    basis += [(1, 0, a2) for a2 in range(q)]
    basis.append((1, 1, 0))
    return basis


def ideal_generators_pm(ctx: FieldContext, m: int) -> list:
    """Generators of the vanishing ideal of the P^m representatives.

    x0^2-x0, xi^q-xi for i>=1, then (x0-1)...(x_{j-1}-1)(xj^2-xj) for
    1 <= j < m, and finally (x0-1)...(xm-1).  They vanish on every chosen
    representative; exposed for evaluation tests.
    """
    q = ctx.q
    nv = m + 1

    def var(i, e=1):
        expts = [0] * nv
        expts[i] = e
        return SparsePolynomial.monomial(ctx, tuple(expts), 1)

    one = SparsePolynomial.constant(ctx, nv, 1)
    gens = [var(0, 2) - var(0)]
    for i in range(1, nv):
        gens.append(var(i, q) - var(i))
    for j in range(1, m):
        g = var(j, 2) - var(j)
        for i in range(j):
            g = g * (var(i) - one)
        gens.append(g)
    g = var(0) - one
    for i in range(1, nv):
        g = g * (var(i) - one)
    gens.append(g)
    return gens


# -- homogeneous monomial bases --------------------------------------------------


def basis_a1(q: int, d: int) -> list:
    """A_1^d: degree-d monomials with a0 > 0 and a1, a2 <= q-1."""
    out = []
    for a0 in range(d, 0, -1):
        rest = d - a0
        for a1 in range(min(q - 1, rest), max(0, rest - (q - 1)) - 1, -1):
            out.append((a0, a1, rest - a1))
    return out


def basis_a2(q: int, d: int) -> list:
    """A_2^d: x1^(d-a2) x2^a2 with a1 > 0 and a2 <= q-1."""
    return [(0, d - a2, a2) for a2 in range(min(q - 1, d - 1) + 1)]


def basis_ad(q: int, d: int) -> tuple:
    """The (A_1^d, A_2^d, A_3^d) split of the degree-d quotient basis."""
    if not 1 <= d <= 2 * (q - 1):
        raise ValueError(f"degree {d} outside [1, {2*(q-1)}] for GF({q})")
    return basis_a1(q, d), basis_a2(q, d), [(0, 0, d)]


# -- text format -------------------------------------------------------------------


def format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_polynomial(f: SparsePolynomial) -> str:
    if f.is_zero():
        return "0"
    chunks = []
    for mono, coeff in f.sorted_terms():
        ms = format_monomial(mono)
        if not ms:
            chunks.append(str(coeff))
        elif coeff == 1:
            chunks.append(ms)
        else:
            chunks.append(f"{coeff}*{ms}")
    return " + ".join(chunks)


def parse_polynomial(ctx: FieldContext, nvars: int, text: str) -> SparsePolynomial:
    """Inverse of format_polynomial (coefficients are integer encodings)."""
    text = text.strip()
    if text == "0":
        return SparsePolynomial.zero(ctx, nvars)
    terms: dict = {}
    for chunk in text.split("+"):
        coeff = 1
        expts = [0] * nvars
        seen_var = False
        for factor in chunk.strip().split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r}")
            if factor[0] == "x":
                base, caret, exp = factor.partition("^")
                idx = int(base[1:])
                if not 0 <= idx < nvars:
                    raise ValueError(f"variable {base} out of range")
                power = int(exp) if caret else 1
                if power < 0:
                    raise ValueError(f"negative exponent in {factor!r}")
                expts[idx] += power
                seen_var = True
            else:
                if seen_var:
                    raise ValueError(f"coefficient after variable in {chunk!r}")
                coeff = ctx.mul(coeff, _encoding(ctx, int(factor)))
        mono = tuple(expts)
        terms[mono] = ctx.add(terms.get(mono, 0), coeff)
    return SparsePolynomial(ctx, nvars, terms)
