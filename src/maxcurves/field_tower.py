"""Arithmetic in a tower of finite fields F_p < F_q < F_{q^2} < F_{q^4}.

All four fields live inside the single ambient field F_{p^(4a)} with
q = p^a; the intermediate levels are recovered as fixed sets of the
appropriate Frobenius powers.  An element is a plain int in
[0, p^(4a)) encoding the coefficient vector of its residue polynomial
in base p, least significant digit = constant term.  The modulus and
the distinguished generator of F_{q^2}* are both chosen as the
lexicographically first candidates, so two towers built from the same
(p, a) are identical object for object.

Construction takes one path for every p: the modulus search, the
generator search (`_first_of_order`, which later finds xi from the
tables) and the products that seed the tables all use the dense
`_poly_*` arithmetic over F_p.  `_mul_raw` and `_pow_raw`, the products
straight from the residue polynomials, build the tables and are the
oracles the tests check them against.

At run time the arithmetic is `add`, `neg`, `mul`, `inv` and `pow`; a
difference is an `add` of a `neg`, a quotient a `mul` by an `inv`.
Multiplication goes through discrete-log tables of a generator g of the
`units` = q^top - 1 units of level `top`: at top 4, the default, g is
the first code of order q^4 - 1; at top 2 the first norm c^(q^2 + 1) of
order q^2 - 1.  Codes are ambient in both shapes, so levels, xi and
reports agree; exp and log values are relative to g and `units`, with no
base fixed across shapes.  A unit outside k has no log at top 2:
`in_level` answers for it without arithmetic, `mul`, `inv` and `pow`
from `_full`, a top-4 tower built on first use.  No command builds it
(the CLI tests forbid it); perfbench's field timings, on ambient codes,
do.  An F_p-linear map x -> c*x is tabulated once per half of the digit
vector as the `_span` of the images c*T^i (one `_mul_raw` each):
c*x = lo[x % q^2] + hi[x // q^2].  For p = 2 the halves combine by XOR.
For odd p their entries hold digits in radix 2p - 1, so the sum carries
nothing, and `red`, a table of (2p - 1)^(2a) entries, maps each half of
the sum back to digits mod p.  The exp table is the orbit of 1 under g,
built in blocks of q^2 entries: the first block one step of c = g at a
time, each later block (top 4) in one pass, the block before it times
c = g^(q^2).  log, the inverse permutation, is an `array('i')` of q^4
entries at top 4 and a dict at top 2 (the codes of k are sparse).  exp
is an `array('i')` of 4-byte entries, so an ambient order above 2^31 is
refused.  It holds the orbit twice, 2 * units entries: `mul` reads
exp[log x + log y] and `inv` exp[units - log x], with no modulo.  At
top 4 that and log take 12 bytes per element of F_{q^4}.

For p = 2 addition is XOR of the digit vectors and negation is the
identity.  For odd p addition uses the same radix-(2p - 1) form: `rad`
writes a half code (q^2 entries) in radix 2p - 1, so a half of x + y
is red[rad[x half] + rad[y half]], and negation is one table of q^2
entries applied to each half.  Every table but exp and log has at most
(2p - 1)^(2a) entries and stays in cache.  The digit loops `_add_raw`
and `_neg_raw` are the oracles for both.

The F_p-linear helpers over codes live here, the one module that reads
digit positions: `_span` (entry sum(c_i p^i) is sum(c_i v_i), on `add`),
`_basis` of levels 2 and 4 and `_echelon` by the top digit (both read
the digit powers p^i, built once per tower), and `_packed_words`:
`pack`, whole-word `add` and `weight` on words over k held in one int,
each symbol's coordinates on the level-2 basis in bit fields.

The one lex order on elements compares residue digits constant term
first; `lex_rank` maps an element to its int key in that order, the
digit reversal of its code, read from one table of q^2 entries.
Level listings, point lists and the conjecture scan all sort by it.

Reports encode an element as its residue-digit list (`digits`), CSV
cells and command-line tokens as colon-joined residues
(`format_element`, `parse_element`); `to_json` applies the digit form
to every dataclass field marked with ELEMENT metadata.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from array import array
from bisect import bisect_right
from fractions import Fraction

DEFAULT_AMBIENT_BUDGET = 1 << 20

LEVELS = (1, 2, 4)

# dataclass field metadata: the field holds an element code, or a tuple of them
ELEMENT = {"element": True}


class BudgetError(RuntimeError):
    """A requested computation exceeds its enumeration budget."""


class PrecisionError(RuntimeError):
    """A series computation could not be resolved within the precision cap."""


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, little-endian coefficient lists
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f need not be monic; divide through by its leading coefficient
    a = _trim(a[:])
    df = len(f) - 1
    linv = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        c = (a[-1] * linv) % p
        shift = len(a) - 1 - df
        if c:
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % p
        _trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    r = [1]
    b = _poly_mod(base, f, p)
    while e:
        if e & 1:
            r = _poly_mod(_poly_mul(r, b, p), f, p)
        e >>= 1
        if e:
            b = _poly_mod(_poly_mul(b, b, p), f, p)
    return r


def _is_irreducible_generic(f: list[int], p: int) -> bool:
    # a monic degree-n polynomial with no irreducible factor of degree
    # <= n // 2 is irreducible; such factors divide T^(p^i) - T
    n = len(f) - 1
    r = [0, 1]
    for _ in range(n // 2):
        r = _poly_powmod(r, p, f, p)
        g = _poly_gcd([(c - t) % p for c, t in itertools.zip_longest(r, [0, 1], fillvalue=0)], f, p)
        if len(g) - 1 > 0:
            return False
    return True


def _first_of_order(n: int, candidates, power) -> int:
    """The first candidate x with x^(n/f) != 1 for each prime f | n: of
    multiplicative order n when every candidate's order divides n."""
    fac = prime_factors(n)
    for x in candidates:
        if all(power(x, n // f) != 1 for f in fac):
            return x
    raise RuntimeError(f"no element of order {n} found")  # unreachable


def _digit_table(images, radix: int, n: int) -> list[int]:
    """Entry sum(c_i * len(images)^i) over n digits is sum(images[c_i] * radix^i):
    the recurrence t[s] = t[s // len(images)] * radix + images[s % len(images)]."""
    table = [0]
    for _ in range(n):
        table = [v * radix + d for v in table for d in images]
    return table


def _span(tower: FieldTower, vectors) -> list[int]:
    """The F_p-span of the vectors; entry sum(c_i p^i) is sum(c_i vectors[i])."""
    add = tower.add
    out = [0]
    for b in vectors:
        part = out
        for _ in range(tower.p - 1):
            part = [add(v, b) for v in part]
            out.extend(part)
    return out


def _basis(tower: FieldTower, level: int) -> tuple[int, ...]:
    """The F_p-basis of a level that F is eliminated over: 1, xi, ...,
    xi^(2a-1) at level 2, independent because xi generates F_{q^2}*; the
    digit basis p^i at level 4."""
    if level == 2:
        return tuple(tower.pow(tower.xi, i) for i in range(2 * tower.a))
    if level == 4:
        tower.unit_step(4)  # raises on a tower whose tables stop at k
        return tower._digit_powers
    raise ValueError("points are counted and enumerated over levels 2 and 4")


def _packed_words(tower: FieldTower, n: int):
    """`pack`, `add` and `weight` on words of n symbols of k, each word one int.

    A symbol is written as its 2a F_p-coordinates on `_basis(tower, 2)`,
    the base-p digits of its index in their `_span`, one b-bit field
    each with b = (p - 1).bit_length() + 1, and padded to whole bytes.
    A field's top bit H = 2^(b-1) is at least p, and a digit sum, at most
    2p - 2, stays in its field; `add` subtracts p from the fields where
    s + H - p reaches H.  `weight` folds each symbol onto its bit 0.
    """
    p, m = tower.p, 2 * tower.a
    b = (p - 1).bit_length() + 1
    size = -(-m * b // 8)  # bytes per symbol
    fields = _digit_table(range(p), 1 << b, m)  # entry i: i's base-p digits, one a field
    table = {x: v.to_bytes(size, "little")
             for x, v in zip(_span(tower, _basis(tower, 2)), fields)}
    symbol = sum(1 << f * b for f in range(m)).to_bytes(size, "little")
    ones = int.from_bytes(symbol * n, "little")  # 1 in every field
    high, top = ones << (b - 1), b - 1
    lift = high - p * ones
    low = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    shifts, reach = [], 1  # the fold ORs bits [0, reach) of a symbol into bit 0
    while reach < m * b:
        shifts.append(min(reach, m * b - reach))
        reach += shifts[-1]

    def pack(row) -> int:
        return int.from_bytes(b"".join(map(table.__getitem__, row)), "little")

    def add(u: int, v: int) -> int:
        s = u + v
        return s - p * (((s + lift) & high) >> top)

    def weight(word: int) -> int:
        for s in shifts:
            word |= word >> s
        return (word & low).bit_count()

    return pack, add, weight


def _echelon(tower: FieldTower, pairs, pivots: dict[int, tuple[int, int]]) -> list[int]:
    """F_p elimination of the pairs (v, b) against `pivots`; the kernel.

    pivots maps a digit position to a pair whose value has its top nonzero
    digit there, equal to 1.  Each row operation acts on both halves, so a
    pair (F(b), b) stays one; a pair whose value reduces to 0 returns its
    second half, and any other becomes a new pivot.  A step adds the pivot
    scaled by -lead, whose code is the digit p - lead; a new pivot is
    scaled by the `inv` of its lead.
    """
    p, powers = tower.p, tower._digit_powers
    add, mul = tower.add, tower.mul
    kernel = []
    for v, b in pairs:
        while v:
            top = bisect_right(powers, v) - 1
            lead = v // powers[top]
            pivot = pivots.get(top)
            if pivot is None:
                if lead != 1:
                    inv = tower.inv(lead)
                    v, b = mul(inv, v), mul(inv, b)
                pivots[top] = (v, b)
                break
            pv, pb = pivot
            f = p - lead
            if f != 1:  # p = 2: f is 1
                pv, pb = mul(f, pv), mul(f, pb)
            v, b = add(v, pv), add(b, pb)
        else:
            kernel.append(b)
    return kernel


class FieldTower:
    """The tower F_p < F_q < F_{q^2} < F_{q^4} inside F_{p^(4a)}.

    Levels are named by the exponent of q: level 1 is F_q, level 2 is
    F_{q^2} (the base field k of the curves), level 4 is F_{q^4},
    which coincides with the ambient field.
    """

    def __init__(self, p: int, a: int, *, budget: int = DEFAULT_AMBIENT_BUDGET, top: int = 4):
        if top not in (2, 4):
            raise ValueError("top must be level 2 or 4")
        if prime_factors(p) != [p]:
            raise ValueError(f"p = {p} is not prime")
        if a < 1:
            raise ValueError("extension exponent a must be >= 1")
        self.p = p
        self.a = a
        self.q = p ** a
        self.q2 = self.q ** 2
        self.degree = 4 * a
        self.order = self.q ** 4
        self.top, self.units = top, self.q ** top - 1  # the tabulated unit group
        self._digit_powers = tuple(p ** i for i in range(self.degree))
        if self.order > budget:
            raise BudgetError(
                f"ambient order p^(4a) = {self.order} exceeds budget {budget}")
        if self.order > 1 << 31:
            raise BudgetError(
                f"ambient order p^(4a) = {self.order} exceeds 2^31, the reach of 4-byte tables")
        self.modulus = self._find_modulus()
        self._build_tables()
        # rev[x] for x < q^2: the 2a residue digits of x in reverse order
        half_top = self.q2 // p
        rev = [0] * self.q2
        for x in range(1, self.q2):
            rev[x] = rev[x // p] // p + (x % p) * half_top
        self._rev = rev
        self._level_cache: dict[int, tuple[int, ...]] = {}
        self.xi = _first_of_order(self.q2 - 1, self.elements(2)[1:], self.pow)

    # -- construction ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        # tails with constant term 0 are divisible by T (n >= 4), so the
        # lex search starts at constant term 1
        p, n = self.p, self.degree
        for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
            f = list(tail) + [1]
            if _is_irreducible_generic(f, p):
                return tuple(f)
        raise RuntimeError("no irreducible modulus found")  # unreachable

    def _mul_raw(self, x: int, y: int) -> int:
        """Product without tables, straight from the residue polynomials."""
        ax, ay = self.coeffs(x), self.coeffs(y)
        prod = _poly_mul(list(ax), list(ay), self.p)
        return self.element(_poly_mod(prod, list(self.modulus), self.p))

    def _pow_raw(self, x: int, e: int) -> int:
        """x^e for e >= 0 without tables, straight from the residue polynomials."""
        return self.element(_poly_powmod(list(self.coeffs(x)), e, list(self.modulus), self.p))

    def _build_tables(self) -> None:
        p, h, half = self.p, self.q2, 2 * self.a
        candidates = range(p, self.order)  # below p: constants, and their norms
        if self.top == 2:  # the norms c^(q^2 + 1), onto k*
            candidates = (self._pow_raw(c, h + 1) for c in candidates)
        gen = _first_of_order(self.units, candidates, self._pow_raw)
        if p == 2:
            self._rad = self._red = self._neg = None

            def times(lo, hi, xs):
                return [lo[x % h] ^ hi[x // h] for x in xs]
        else:
            radix = 2 * p - 1
            # set before the first `tables` call, whose spans use `add`
            self._rad = rad = _digit_table(range(p), radix, half)
            self._red = red = _digit_table([s % p for s in range(radix)], p, half)
            self._neg = _digit_table([-c % p for c in range(p)], p, half)
            rh = radix ** half

            def times(lo, hi, xs):
                return [red[s % rh] + red[s // rh] * h
                        for s in [lo[x % h] + hi[x // h] for x in xs]]

        def tables(c):  # the halves of x -> c*x, entries in radix form for odd p
            images = [self._mul_raw(p ** i, c) for i in range(self.degree)]
            halves = _span(self, images[:half]), _span(self, images[half:])
            if p == 2:
                return halves
            return tuple([rad[x % h] + rad[x // h] * rh for x in t] for t in halves)

        # g^0 .. g^(h-1) one step at a time, then (top 4) h - 1 blocks of h at
        # once, each block g^h times the one before; g^units must be 1
        lo, hi = tables(gen)
        block = [1]
        for _ in range(h - 1):
            block += times(lo, hi, block[-1:])
        if self.top == 4:
            lo, hi = tables(times(lo, hi, block[-1:])[0])
        exp, log = array("i"), array("i", [0]) * self.order if self.top == 4 else {}
        for start in range(0, self.units + 1, h):
            if start:
                block = times(lo, hi, block)
            exp.fromlist(block)
            for i, e in enumerate(block, start):
                log[e] = i
        if exp.pop() != 1:
            raise RuntimeError("generator order mismatch")
        log[1] = 0  # the popped g^units = 1 wrote units there
        exp.extend(exp)  # g^(i+j) is exp[i + j] for logs i, j: no modulo
        self._exp, self._log = exp, log

    # -- encoding ----------------------------------------------------------

    def element(self, coeffs) -> int:
        """Encode a residue-coefficient sequence (constant term first)."""
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def coeffs(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def lex_rank(self, x: int) -> int:
        """Sort key of the lex order: digit reversal of x, constant digit first."""
        q2 = self.q2
        return self._rev[x % q2] * q2 + self._rev[x // q2]

    def digits(self, x: int) -> list[int]:
        """The JSON form of an element: its residue digits, constant first."""
        return list(self.coeffs(x))

    def format_element(self, x: int) -> str:
        """The CSV form of an element: colon-joined residue digits."""
        return ":".join(map(str, self.coeffs(x)))

    def parse_element(self, token: str) -> int:
        """Read an integer code or colon-joined residues, constant first."""
        token = token.strip()
        if ":" in token:
            digits = [int(x) for x in token.split(":")]
            if len(digits) > self.degree:
                raise ValueError(f"element has more than {self.degree} residues")
            if not all(0 <= c < self.p for c in digits):
                raise ValueError(f"residues must lie in 0..{self.p - 1}")
            return self.element(digits)
        code = int(token)
        if not 0 <= code < self.order:
            raise ValueError(f"element code {code} is out of range")
        return code

    # -- ring operations ---------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        h, rad, red = self.q2, self._rad, self._red
        return red[rad[x % h] + rad[y % h]] + red[rad[x // h] + rad[y // h]] * h

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        h, neg = self.q2, self._neg
        return neg[x % h] + neg[x // h] * h

    def _add_raw(self, x: int, y: int) -> int:
        """Digit-by-digit sum, the oracle for `add` (half tables or XOR)."""
        p = self.p
        code, mult = 0, 1
        for _ in range(self.degree):
            x, rx = divmod(x, p)
            y, ry = divmod(y, p)
            code += ((rx + ry) % p) * mult
            mult *= p
        return code

    def _neg_raw(self, x: int) -> int:
        """Digit-by-digit negation, the oracle for `neg`."""
        p = self.p
        code, mult = 0, 1
        for _ in range(self.degree):
            x, rx = divmod(x, p)
            code += (-rx % p) * mult
            mult *= p
        return code

    def log(self, x: int) -> int:
        """The discrete log of a unit x to the table generator g."""
        return self._log[x]

    def exp(self, k: int) -> int:
        """g^k for any integer k."""
        return self._exp[k % self.units]

    @functools.cached_property
    def _full(self) -> FieldTower:
        """The top-4 tower of (p, a), built once: top 2 reads it outside k."""
        return FieldTower(self.p, self.a, budget=self.order)

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        try:
            return self._exp[self._log[x] + self._log[y]]
        except KeyError:  # top 2, a factor outside k
            return self._full.mul(x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        try:
            return self._exp[self.units - self._log[x]]
        except KeyError:
            return self._full.inv(x)

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        try:
            return self._exp[(self._log[x] * e) % self.units]
        except KeyError:
            return self._full.pow(x, e)

    # -- tower structure ----------------------------------------------------

    def level_order(self, level: int) -> int:
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")
        return self.q ** level

    def unit_step(self, level: int) -> int:
        """units/(Q - 1) for a level of order Q: exp[i] lies in it when this divides i."""
        if self.level_order(level) > self.units + 1:
            raise ValueError(f"level {level} lies above this tower's tables (top = {self.top})")
        return self.units // (self.level_order(level) - 1)

    def in_level(self, x: int, level: int) -> bool:
        if self.top == 2 and x and x not in self._log:  # outside k: in F_{q^4} alone
            return self.level_order(level) == self.order
        return self.pow(x, self.level_order(level)) == x

    def subfield_level(self, x: int) -> int:
        """Smallest level of the tower containing x (level 4 = ambient)."""
        for level in (1, 2):
            if self.in_level(x, level):
                return level
        return 4

    def elements(self, level: int) -> tuple[int, ...]:
        """All elements of the given level, sorted lexicographically."""
        if level in self._level_cache:
            return self._level_cache[level]
        elems = [0, *self._exp[:self.units:self.unit_step(level)]]
        elems.sort(key=self.lex_rank)
        out = tuple(elems)
        self._level_cache[level] = out
        return out

    def frobenius_k(self, x: int) -> int:
        """The q^2-power map, the arithmetic Frobenius over level 2."""
        return self.pow(x, self.q2)

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "q": self.q,
            "modulus": list(self.modulus),
            "xi": self.digits(self.xi),
        }

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, a={self.a}, q={self.q})"


def build_tower(p: int, a: int, *, budget: int = DEFAULT_AMBIENT_BUDGET,
                top: int = 4) -> FieldTower:
    """The deterministic tower for q = p^a, tabulating level `top`: 4, or 2 for k alone."""
    return FieldTower(p, a, budget=budget, top=top)


def to_json(obj, tower: FieldTower):
    """JSON-ready form of a report: dataclasses become dicts, fractions
    strings, and the values of ELEMENT fields residue-digit lists."""

    def enc(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: (elements if f.metadata.get("element") else enc)(
                        getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, Fraction):
            return str(obj)
        if isinstance(obj, (list, tuple)):
            return [enc(v) for v in obj]
        return obj

    def elements(v):
        if v is None:
            return None
        if isinstance(v, int):
            return tower.digits(v)
        return [elements(c) for c in v]

    return enc(obj)
