"""Exact arithmetic in GF(p^e) for prime p, 2 <= p^e <= 2^16.

Elements are encoded as integers in [0, q) whose base-p digits
(little-endian) are the coefficients of a polynomial over GF(p).
Arithmetic is modulo the lexicographically smallest monic irreducible
polynomial of degree e, found by scanning candidates in encoding order,
so the construction is deterministic across runs.  The integer encoding
gives every field a total element order used wherever a fixed order is
needed (point enumeration, matrix pivoting); the order has no algebraic
meaning.

The field is two arrays.  `digits` (q x e, int64) holds the GF(p) digits
of every encoding, the additive representation; the log/antilog pair
exp_table and log_table (int64, length q) is the multiplicative one.
Multiplication by x sends a digit row d to d C mod p, with C the e x e
companion matrix of the modulus, so multiplication by g is the matrix
sum_t g_t C^t and one product applies it to all q rows.  exp_table is the
orbit of 1 under the smallest g whose orbit has length q - 1 (the
generator); finding it doubles as the construction-time check that the
multiplicative group is cyclic of order q - 1.  The modulus enters the
arithmetic through C alone.

Scalar add, sub and neg read `digits`; scalar mul, inv, div and pow,
power_table and polynomial evaluation read the log/antilog pair.  Nothing
else is stored and nothing depends on q: the elimination kernel in
codes.py builds the q x q tables it reads from these two on first use,
and refuses the fields too large for them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_FIELD_SIZE = 1 << 16


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by the monic den over GF(p); coefficient lists little-endian."""
    num = list(num)
    dd = len(den) - 1
    for shift in reversed(range(len(num) - dd)):
        factor = num[shift + dd]
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    return num[:dd]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= e/2."""
    e = len(coeffs) - 1
    for deg in range(1, e // 2 + 1):
        for m in range(p**deg):
            den = _digits(m, p, deg) + [1]
            if not any(_poly_rem(coeffs, den, p)):
                return False
    return True


def _digits(v: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % p)
        v //= p
    return out


class FieldContext:
    """Immutable arithmetic context for GF(p^e); construct via field_make."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._place = p ** np.arange(e, dtype=np.int64)
        self.digits = np.arange(self.q, dtype=np.int64)[:, None] // self._place
        self.digits %= p  # in place, as below: q x e temporaries are 8 MB at q = 2^16
        # companion matrix: digit row d times it is the digits of x d
        companion = np.eye(e, k=1, dtype=np.int64)
        companion[-1] = np.negative(modulus[:e]) % p
        x_powers = [np.eye(e, dtype=np.int64)]
        for _ in range(1, e):
            x_powers.append(x_powers[-1] @ companion % p)
        x_powers = np.stack(x_powers)
        self._build_log_tables(x_powers)

    # -- construction helpers ------------------------------------------------

    def _build_log_tables(self, x_powers: np.ndarray) -> None:
        q, p = self.q, self.p
        for gen in range(1, q):
            # times[a] encodes a gen: the digit rows times sum_t gen_t C^t
            times = self.digits @ (np.tensordot(self.digits[gen], x_powers, 1) % p)
            times %= p
            times = (times @ self._place).tolist()
            orbit = [1]
            # bounded: under a reducible modulus the orbit can cycle without 1
            while len(orbit) < q and (v := times[orbit[-1]]) != 1:
                orbit.append(v)
            if len(orbit) == q - 1:
                break
        else:
            raise AssertionError("no element of order q-1")
        self.generator = gen
        # exp_table[i] = gen^i for 0 <= i < q; log_table[0] = 0 is a placeholder
        self.exp_table = np.array(orbit + [1], dtype=np.int64)
        self.log_table = np.zeros(q, dtype=np.int64)
        self.log_table[orbit] = np.arange(q - 1)

    # -- scalar arithmetic on encodings ---------------------------------------

    def add(self, a: int, b: int) -> int:
        return int((self.digits[a] + self.digits[b]) % self.p @ self._place)

    def neg(self, a: int) -> int:
        return int(-self.digits[a] % self.p @ self._place)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return int(self.exp_table[-self.log_table[a] % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        """a**n for n >= 0, with a**0 == 1 (including 0**0)."""
        if n < 0:
            raise ValueError("negative exponent; use inv explicitly")
        if n == 0:
            return 1
        if a == 0:
            return 0
        return int(self.exp_table[self.log_table[a] * (n % (self.q - 1)) % (self.q - 1)])

    def power_table(self, n: int) -> np.ndarray:
        """Vector of v**n over all encodings, n >= 0, with 0**0 == 1."""
        if n < 0:
            raise ValueError("negative exponent; use inv explicitly")
        tab = self.exp_table[self.log_table * (n % (self.q - 1)) % (self.q - 1)]
        tab[0] = n == 0
        return tab

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int) -> FieldContext:
    """GF(p^e) with the lexicographically smallest monic irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if p**e > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p**e} exceeds {MAX_FIELD_SIZE}")
    for m in range(p**e):
        coeffs = _digits(m, p, e) + [1]
        if _is_irreducible(coeffs, p):
            return FieldContext(p, e, tuple(coeffs))
    raise AssertionError("no irreducible polynomial found")  # unreachable


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; raises ValueError unless q is a prime power."""
    if q < 2:
        raise ValueError("field size must be >= 2")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


@lru_cache(maxsize=None)
def field_for_size(q: int) -> FieldContext:
    """GF(q) for a prime power q, factoring q as p^e."""
    return field_make(*prime_power(q))

