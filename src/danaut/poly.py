"""Sparse exact multivariate polynomials over Q and cyclotomic extensions.

A polynomial carries a fixed variable context (an ordered tuple of names)
and one stored form: a dict from packed exponent keys to nonzero
coefficients over one positive common denominator.

A key packs an exponent vector into one int (Monagan & Pearce, CASC 2007).
Each variable owns a 32-bit field, variable 0 the most significant, so the
order of keys is the lexicographic order of exponent vectors.  The top bit
of each field is a guard bit, so every exponent stays below 2^31: the
product of two monomials is one int addition, divisibility is one
subtraction against the guard mask, and a field that overflows sets its
guard bit and raises ValueError instead of carrying into its neighbour.
Keys never leave this module.

When every coefficient is rational they are integer numerators sharing no
factor with the denominator (as in FLINT's fmpq_poly), so sums, products
and rewriting run on ints with one gcd per result; otherwise they are
canonical Fraction and CycElem scalars (rational-valued cyclotomics
demoted) over 1.  Equal polynomials therefore store equal forms.  ``terms``
builds {exponent tuple: Fraction | CycElem} from either kind on each read.
"""

from __future__ import annotations

import functools
import re
import struct
from fractions import Fraction
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterable, Optional

from .cyclotomic import CycElem, canonical_scalar
from .dense import ext_gcd, mul
from .fmt import ratio_str, scalar_str

_BITS = 32  # width of one variable's field in a key
_FIELD = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)  # every exponent is below this: the guard bit stays clear


@functools.cache
def _guard(n: int) -> int:
    """The guard bits of an n-variable key."""
    return (1 << _BITS * n) // _FIELD << (_BITS - 1)


def _shift(n: int, i: int) -> int:
    """Bit offset of variable i's field in an n-variable key."""
    return _BITS * (n - 1 - i)


def _too_large(name: str, e: int) -> ValueError:
    return ValueError(f"exponent {e} of {name} is not below the limit 2^31")


def _overflow(vars: tuple, key: int) -> ValueError:
    """The error for a key whose largest field reached the limit."""
    return _too_large(*max(zip(vars, _unpack(key, len(vars))), key=lambda ne: ne[1]))


def _pack(vars: tuple, exps) -> int:
    if len(exps) != len(vars):
        raise ValueError("exponent tuple does not match variable context")
    key = 0
    for name, e in zip(vars, exps):
        e = int(e)
        if not 0 <= e < _LIMIT:
            raise ValueError("negative exponent") if e < 0 else _too_large(name, e)
        key = key << _BITS | e
    return key


def _unpack(key: int, n: int) -> tuple:
    return struct.unpack(f">{n}I", key.to_bytes(4 * n, "big"))  # 32-bit fields


def _support(keys) -> int:
    """Bitwise or of the keys: a field is nonzero exactly when its variable occurs."""
    return functools.reduce(or_, keys, 0)


def _checked(vars: tuple, num: dict) -> dict:
    """num, unless a sum of keys overflowed a field into its guard bit.

    Sums of two valid keys stay below 2^32 in every field, so the guard bit
    holds the overflow and the field still reads the exponent formed.
    """
    guard = _guard(len(vars))
    if _support(num) & guard:
        raise _overflow(vars, next(key for key in num if key & guard))
    return num


class MultiPoly:
    """Polynomial in a fixed ordered variable context.

    ``_num`` maps packed exponent keys to nonzero coefficients over
    ``_den > 0``: ints with gcd(_den, *_num) == 1 (``_den == 1`` for zero)
    when all are rational, else Fraction and CycElem scalars with
    ``_den == 1``.
    """

    __slots__ = ("vars", "_num", "_den")

    def __init__(self, vars: tuple, terms: dict) -> None:
        vars = tuple(vars)
        clean = {}
        for exps, c in terms.items():
            key = _pack(vars, exps)
            if type(c) is not int:
                c = canonical_scalar(c)
            clean[key] = clean[key] + c if key in clean else c
        self.vars = vars
        self._num, self._den = MultiPoly._stored_scalars({e: c for e, c in clean.items() if c})

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, vars: tuple, num: dict, den: int = 1) -> "MultiPoly":
        """num / den in the stored form, for int, Fraction or CycElem values
        (zeros allowed) and a positive int den."""
        if not all(num.values()):
            num = {e: c for e, c in num.items() if c}
        try:
            g = gcd(den, *num.values())
        except TypeError:  # some value is a Fraction or CycElem
            if den != 1:
                s = Fraction(1, den)
                num = {e: c * s for e, c in num.items()}
            return cls._wrap(vars, *cls._stored_scalars(num))
        if g != 1:  # g == den for zero, which leaves den == 1
            den //= g
            num = {e: n // g for e, n in num.items()}
        return cls._wrap(vars, num, den)

    @staticmethod
    def _stored_scalars(num: dict) -> tuple:
        """(coefficients, denominator) in the stored form for nonzero int,
        Fraction or CycElem values."""
        if any(isinstance(c, CycElem) for c in num.values()):
            return {e: canonical_scalar(c) for e, c in num.items()}, 1
        # ints and reduced fractions over the lcm of their denominators
        # share no factor with it
        den = lcm(*(c.denominator for c in num.values()))
        return {e: c.numerator * (den // c.denominator) for e, c in num.items()}, den

    @staticmethod
    def from_ratios(vars: tuple, terms: list) -> "MultiPoly":
        """The sum of p/q * monomial(exps) over (exps, p, q) with int p and q > 0."""
        vars = tuple(vars)
        return _monomial_sum(vars, [(p, q, _pack(vars, exps)) for exps, p, q in terms])

    @classmethod
    def _wrap(cls, vars: tuple, num: dict, den: int) -> "MultiPoly":
        """Wrap coefficients and a denominator that already are in the stored form."""
        f = object.__new__(cls)
        f.vars = vars
        f._num = num
        f._den = den
        return f

    @staticmethod
    def zero(vars: tuple) -> "MultiPoly":
        return MultiPoly._wrap(tuple(vars), {}, 1)

    @staticmethod
    def const(vars: tuple, c) -> "MultiPoly":
        return MultiPoly(vars, {(0,) * len(vars): c})

    @staticmethod
    def variable(vars: tuple, name: str) -> "MultiPoly":
        vars = tuple(vars)
        if name not in vars:
            return MultiPoly.monomial(vars, {name: 1}, 1)  # raises KeyError
        return MultiPoly._wrap(vars, {1 << _shift(len(vars), vars.index(name)): 1}, 1)

    @staticmethod
    def monomial(vars: tuple, powers: dict, c=1) -> "MultiPoly":
        vars = tuple(vars)
        exps = [0] * len(vars)
        for name, e in powers.items():
            try:
                exps[vars.index(name)] = int(e)
            except ValueError:
                raise KeyError(f"variable {name!r} not in context {vars}") from None
        return MultiPoly(vars, {tuple(exps): c})

    # -- basic structure --------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction | CycElem}, built from the stored form on each read."""
        d, n = self._den, len(self.vars)
        return {_unpack(e, n): Fraction(c, d) if type(c) is int else c for e, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if type(other) is int:  # a rational constant is stored as itself over 1
            return self._den == 1 and self._num == ({0: other} if other else {})
        if isinstance(other, (int, Fraction, CycElem)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ctx(other)
        return self._den == other._den and self._num == other._num

    __hash__ = None

    def coeff(self, exps: tuple):
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self):
        return self.coeff((0,) * len(self.vars))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(_unpack(e, len(self.vars))) for e in self._num)

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        s = _shift(len(self.vars), self.vars.index(name))
        return max(e >> s & _FIELD for e in self._num)

    def depends_on(self, name: str) -> bool:
        return bool(_support(self._num) >> _shift(len(self.vars), self.vars.index(name)) & _FIELD)

    def is_constant(self) -> bool:
        return not any(self._num)

    # -- ring operations --------------------------------------------------

    def _check_ctx(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(
                f"mismatched variable contexts: {self.vars} vs {other.vars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycElem)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ctx(other)
        return _sum(self.vars, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._wrap(self.vars, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycElem)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycElem)):
            other = canonical_scalar(other)
            if not other:
                return MultiPoly.zero(self.vars)
            p, q = (other, 1) if isinstance(other, CycElem) else other.as_integer_ratio()
            return MultiPoly._canonical(
                self.vars, {e: n * p for e, n in self._num.items()}, self._den * q
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ctx(other)
        num = _checked(self.vars, _convolve(self._num, other._num, {}))
        return MultiPoly._canonical(self.vars, num, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if e == 0:
            return MultiPoly.const(self.vars, 1)
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:  # the last squaring would go unused
                base = base * base
        return result

    # -- context plumbing --------------------------------------------------

    def embed(self, new_vars: tuple) -> "MultiPoly":
        """Reinterpret in a larger context (matching variables by name)."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        n, support = len(self.vars), _support(self._num)
        moves = []  # (field offset here, field offset in new_vars) of occurring variables
        for i, name in enumerate(self.vars):
            s = _shift(n, i)
            if support >> s & _FIELD:
                if name not in new_vars:
                    raise ValueError(f"cannot drop occurring variable {name!r}")
                moves.append((s, _shift(len(new_vars), new_vars.index(name))))
        out = {sum((e >> s & _FIELD) << t for s, t in moves): c for e, c in self._num.items()}
        return MultiPoly._wrap(new_vars, out, self._den)

    # -- presentation -------------------------------------------------------

    def printed_terms(self) -> list:
        """(exponent tuple, printed coefficient) pairs, highest total degree
        first, then lexicographically; rational coefficients are printed
        from their numerators.  Keys are unique, so the sort never compares
        exponent tuples or coefficients."""
        n, d = len(self.vars), self._den
        unpack = struct.Struct(f">{n}I").unpack  # as _unpack does, parsed once per call
        rows = [(sum(x), e, x, c) for e, c in self._num.items()
                for x in (unpack(e.to_bytes(4 * n, "big")),)]
        rows.sort(reverse=True)
        return [(exps, ratio_str(c, d) if type(c) is int else scalar_str(c)) for _, _, exps, c in rows]

    def __repr__(self):
        return f"MultiPoly({poly_str(self)!r})"


def _convolve(a: dict, b: dict, out: dict) -> dict:
    """Add the product of two key-indexed coefficient dicts into out."""
    b = list(b.items())
    for e1, x in a.items():
        for e2, y in b:
            e = e1 + e2
            if e in out:
                out[e] += x * y
            else:
                out[e] = x * y
    return out


def _mul_add(a: MultiPoly, b: MultiPoly, c: MultiPoly) -> MultiPoly:
    """a * b + c over the lcm of the denominators of a * b and c, with one gcd."""
    ab = a._den * b._den
    den = lcm(ab, c._den)
    s = den // c._den
    out = dict(c._num) if s == 1 else {e: n * s for e, n in c._num.items()}
    an = a._num if den == ab else {e: n * (den // ab) for e, n in a._num.items()}
    return MultiPoly._canonical(a.vars, _checked(a.vars, _convolve(an, b._num, out)), den)


def _monomial_sum(vars: tuple, monomials: list) -> MultiPoly:
    """The sum of (numerator, positive int denominator, key) monomials over
    the lcm of their denominators.  A numerator is an int, or a Fraction or
    CycElem where substitute folds a cyclotomic term or image."""
    den = lcm(*[q for _, q, _ in monomials])
    num: dict = {}
    for p, q, key in monomials:
        if q != den:
            p *= den // q
        num[key] = num[key] + p if key in num else p
    return MultiPoly._canonical(vars, num, den)


def _sum(vars: tuple, polys) -> MultiPoly:
    """Sum of polynomials in one context over the lcm of their denominators,
    so each coefficient is scaled once and one gcd normalizes."""
    if not polys:
        return MultiPoly._wrap(vars, {}, 1)
    den = lcm(*(p._den for p in polys))
    first, *rest = polys
    s = den // first._den
    out = {e: n * s for e, n in first._num.items()} if s != 1 else dict(first._num)
    for p in rest:
        s = den // p._den
        for e, n in p._num.items():
            if s != 1:
                n *= s
            if e in out:
                out[e] += n
            else:
                out[e] = n
    return MultiPoly._canonical(vars, out, den)


def substitute(
    f: MultiPoly, images: dict, reduce: Optional[Callable] = None
) -> MultiPoly:
    """Replace each variable of f by its image polynomial, expanded.

    Every variable that actually occurs in f must have an image; all images
    must share one variable context, which becomes the result context.

    reduce, when given, must be a ring map such as reduction to normal form
    modulo an ideal.  It is applied after every Horner step except the last
    one of each level, and once to the result, so no image power is ever
    expanded in full; the result equals reduce(substitute(f, images)).

    Single-term images (a/b * monomial) fold into each term: a term with
    power k of the variable moves its key by k times the image's key and
    scales its numerator by a^k and its denominator by b^k; a monic one
    (such as y -> y) only moves exponents.  The folded terms that share the
    exponents of the remaining, multi-term variables are summed into one
    coefficient polynomial.  These are combined by Horner's rule in each
    multi-term variable in turn, nested with the first one outermost: one
    Horner step in variable v with image g turns the accumulated sum s into
    s * g + c, c being the next lower coefficient in v (zero across a gap).
    """
    ctx = None
    for g in images.values():
        if ctx is None:
            ctx = g.vars
        elif g.vars != ctx:
            raise ValueError("substitution images have mismatched contexts")
    if ctx is None:
        ctx = f.vars
    guard, zero = _guard(len(ctx)), MultiPoly._wrap(ctx, {}, 1)
    support = _support(f._num)
    # K times a folded image's exponents, K the top power of its variable in
    # f, must stay below the limit (as it does for one variable to the first
    # power); then every k * (image key) fills its fields below 2^31, and a
    # folded key, summed one image at a time, holds any overflow in its
    # guard bits.
    folds = []  # (field offset, image key, a, b) of each image a/b * monomial
    rest, rest_mask = [], 0  # (field offset, image) of the other occurring variables
    for name, s in zip(f.vars, range(_BITS * (len(f.vars) - 1), -1, -_BITS)):
        if not support >> s & _FIELD:
            continue
        if name not in images:
            raise ValueError(f"no image supplied for occurring variable {name!r}")
        g = images[name]
        if len(g._num) != 1:
            rest.append((s, g))
            rest_mask |= _FIELD << s
            continue
        ((key, a),) = g._num.items()
        if key & (key - 1) or (key.bit_length() - 1) % _BITS:  # not a variable to the first power
            top = f.degree_in(name)
            for var, e in zip(ctx, _unpack(key, len(ctx))):
                if e * top >= _LIMIT:
                    raise _too_large(var, e * top)
        folds.append((s, key, a, g._den))

    # fold: rest exponents (one masked key) -> [(numerator, denominator, folded key)]
    groups: dict = {}
    for e, p in f._num.items():
        q, new = f._den, 0
        for s, key, a, b in folds:
            k = e >> s & _FIELD
            if k:
                new += k * key
                if new & guard:
                    raise _overflow(ctx, new)
                if a != 1:
                    p = p * a**k
                if b != 1:
                    q *= b**k
        groups.setdefault(e & rest_mask, []).append((p, q, new))
    parts = {rest_key: _monomial_sum(ctx, group) for rest_key, group in groups.items()}

    # expand: the innermost Horner level runs first, so each level's
    # coefficients are the sums built by the level inside it
    for s, g in reversed(rest):
        levels: dict = {}  # exponents of the outer variables -> {k: coefficient of v^k}
        for rest_key, part in parts.items():
            levels.setdefault(rest_key & ~(_FIELD << s), {})[rest_key >> s & _FIELD] = part
        parts = {}
        for outer, coeffs in levels.items():
            k = max(coeffs)
            acc = coeffs[k]
            while k:
                k -= 1
                acc = _mul_add(acc, g, coeffs.get(k, zero))
                if k and reduce is not None:
                    acc = reduce(acc)
            parts[outer] = acc
    result = parts.get(0, zero)  # only key 0 is left
    return result if reduce is None else reduce(result)


def last_variable_coefficients(f: MultiPoly) -> dict:
    """{k: coefficient of v^k} for the last variable v of f's context, each a
    polynomial in f's context free of v, read from the packed keys."""
    slices: dict = {}
    for e, c in f._num.items():
        k = e & _FIELD  # the last variable owns the lowest field
        slices.setdefault(k, {})[e - k] = c
    return {k: MultiPoly._canonical(f.vars, num, f._den) for k, num in slices.items()}


def weighted_parts(f: MultiPoly, weights: dict) -> dict:
    """{w: the part of f of weighted degree w}, read from the packed keys; a
    variable missing from weights weighs 0, and weights may be negative."""
    n = len(f.vars)
    fields = [(_shift(n, i), weights[name]) for i, name in enumerate(f.vars) if weights.get(name)]
    slices: dict = {}
    for e, c in f._num.items():
        slices.setdefault(sum([(e >> s & _FIELD) * k for s, k in fields]), {})[e] = c
    return {w: MultiPoly._canonical(f.vars, num, f._den) for w, num in slices.items()}


def _monic_key(f: MultiPoly, m: MultiPoly) -> int:
    """The packed key of a monic monomial m in f's context."""
    f._check_ctx(m)
    if len(m._num) != 1 or m._den != 1 or 1 not in m._num.values():
        raise ValueError("divisor must be a monic monomial")
    (key,) = m._num
    return key


def reduce_by_rule(f: MultiPoly, lead: MultiPoly, replacement: MultiPoly) -> MultiPoly:
    """Rewrite every monomial divisible by the monic lead monomial.

    Each occurrence of the lead is replaced by the replacement polynomial;
    repeats until no monomial is divisible.  The caller guarantees
    termination (each step drops a ranked degree).
    """
    if f.vars != replacement.vars:
        raise ValueError("rule and polynomial contexts differ")
    lead = _monic_key(f, lead)
    guard = _guard(len(f.vars))
    current = f
    while True:
        # no field borrows from its guard bit: e is divisible by lead
        if not any(((e | guard) - lead) & guard == guard for e in current._num):
            return current
        rest, quotient = {}, {}
        for e, c in current._num.items():
            if ((e | guard) - lead) & guard == guard:
                quotient[e - lead] = c
            else:
                rest[e] = c
        d = current._den  # rest + quotient * replacement, one gcd
        current = _mul_add(MultiPoly._wrap(f.vars, quotient, d), replacement,
                           MultiPoly._wrap(f.vars, rest, d))


# -- univariate helpers ----------------------------------------------------


def as_univar(f: MultiPoly) -> list:
    """Dense coefficient list (low to high) of a polynomial univariate in z."""
    s = _shift(len(f.vars), f.vars.index("z"))
    if _support(f._num) & ~(_FIELD << s):
        raise ValueError("polynomial is not univariate in 'z'")
    coeffs = [Fraction(0)] * (f.degree_in("z") + 1)
    for e, c in f._num.items():
        coeffs[e >> s] = Fraction(c, f._den) if type(c) is int else c
    return coeffs


def from_univar(vars: tuple, coeffs: Iterable) -> MultiPoly:
    """The polynomial in z with the coefficients coeffs (low to high), in the context vars."""
    vars = tuple(vars)
    i = vars.index("z")
    terms = {}
    for e, c in enumerate(coeffs):
        exps = [0] * len(vars)
        exps[i] = e
        terms[tuple(exps)] = c
    return MultiPoly(vars, terms)


def derivative(f: MultiPoly, name: str) -> MultiPoly:
    s = _shift(len(f.vars), f.vars.index(name))
    out = {}
    for e, c in f._num.items():
        k = e >> s & _FIELD
        if k:  # lowering one exponent is injective: no two terms collide
            out[e - (1 << s)] = c * k
    return MultiPoly._canonical(f.vars, out, f._den)


def divide_by_monomial(f: MultiPoly, m: MultiPoly) -> MultiPoly:
    """Exact quotient f / m by a monic monomial m; AssertionError unless m divides f."""
    lead = _monic_key(f, m)
    guard = _guard(len(f.vars))
    out = {}
    for e, c in f._num.items():
        if ((e | guard) - lead) & guard != guard:
            raise AssertionError("polynomial not divisible by the monomial")
        out[e - lead] = c  # shifting every exponent by lead is injective
    return MultiPoly._wrap(f.vars, out, f._den)


def univar_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd of two rational polynomials in z (Euclid)."""
    f._check_ctx(g)
    a, b = as_univar(f), as_univar(g)
    if any(isinstance(c, CycElem) for c in a + b):
        raise ValueError("univariate gcd requires rational coefficients")
    r, _ = ext_gcd(a, b)
    if not r:
        return MultiPoly.zero(f.vars)
    return from_univar(f.vars, [c / r[-1] for c in r])


def perfect_power_root(P: MultiPoly, l: int) -> Optional[MultiPoly]:
    """Monic Q in z with Q^l = P over Q, or None.

    Q is determined coefficient by coefficient from the top of P, then the
    candidate is verified exactly; P must be monic with l dividing deg P.
    """
    if l < 1:
        raise ValueError("power index must be positive")
    coeffs = as_univar(P)
    d = len(coeffs) - 1
    if d < 0 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    if d % l != 0:
        raise ValueError("power index does not divide the degree")
    if l == 1:
        return P
    # top down, p and q are power series in 1/z with constant term 1, and
    # q = p^(1/l) obeys n*l*q[n] = sum_k ((l+1)k - n*l) p[k] q[n-k] (J.C.P. Miller)
    p = coeffs[::-1]
    q = [Fraction(1)]
    for n in range(1, d // l + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if p[k]:
                acc += ((l + 1) * k - n * l) * p[k] * q[n - k]
        q.append(acc / (n * l))
    q.reverse()
    power = [Fraction(1)]
    for _ in range(l):
        power = mul(power, q)
    if power != coeffs:
        return None
    return from_univar(P.vars, q)


# -- parsing and printing ---------------------------------------------------


# a number (Unicode decimal digits, as int reads them), a run of word
# characters (a name if it starts with a letter or "_"; a numeral such as
# "²" starts none), or one other non-space character
_TOKEN = re.compile(r"\d+|\w+|\S")


def _tokenize(text: str) -> list:
    tokens = []
    for tok in _TOKEN.findall(text):
        if tok in "+-*^()/":
            tokens.append(tok)
        elif tok[0].isdecimal():
            tokens.append(int(tok))
        elif tok[0].isalpha() or tok[0] == "_":
            tokens.append(("name", tok))
        else:
            raise ValueError(f"unexpected character {tok[0]!r} in polynomial")
    return tokens


def free_symbols(text: str) -> set:
    """The names a polynomial text mentions, as parse_poly reads them."""
    return {tok[1] for tok in _tokenize(text) if isinstance(tok, tuple)}


def parse_poly(text: str, vars: tuple) -> MultiPoly:
    """Parse expressions like "z^3 + (y1+1)*z - 3/2" in the given context.

    A product of numbers, variables and their powers is one monomial
    (numerator, positive denominator, key); only parenthesised factors are
    multiplied as polynomials, and each sum is added up once from its
    summands over the lcm of their denominators.
    """
    vars = tuple(vars)
    n = len(vars)
    guard = _guard(n)
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("unexpected end of polynomial expression")
        tok = tokens[pos]
        pos += 1
        return tok

    # a parsed value is a MultiPoly or a monomial (int, positive int, key)
    def as_poly(v):
        if isinstance(v, MultiPoly):
            return v
        p, q, key = v
        return MultiPoly._canonical(vars, {key: p}, q)

    def neg(v):
        return -v if isinstance(v, MultiPoly) else (-v[0], v[1], v[2])

    def parse_sum():
        parts = [parse_product()]
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            parts.append(rhs if op == "+" else neg(rhs))
        polys = [v for v in parts if isinstance(v, MultiPoly)]
        monomials = [v for v in parts if not isinstance(v, MultiPoly)]
        return _sum(vars, [_monomial_sum(vars, monomials)] + polys)

    def parse_product():
        node = parse_power()
        while True:
            tok = peek()
            if tok == "/":
                take()
                d = parse_power()
                if isinstance(d, MultiPoly):
                    if not d.is_constant():
                        raise ValueError("division only by nonzero constants")
                    p, q = d.constant_term().as_integer_ratio()
                else:
                    p, q, key = d
                    if key:
                        raise ValueError("division only by nonzero constants")
                if not p:
                    raise ValueError("division by zero")
                if p < 0:
                    p, q = -p, -q
                # node * q / p
                if isinstance(node, MultiPoly):
                    node = node * Fraction(q, p)
                else:
                    node = (node[0] * q, node[1] * p, node[2])
                continue
            if tok == "*":
                take()
            elif not (
                tok == "(" or isinstance(tok, int) or (isinstance(tok, tuple) and tok[0] == "name")
            ):
                return node
            rhs = parse_power()  # after "*", or juxtaposed
            if isinstance(node, MultiPoly) or isinstance(rhs, MultiPoly):
                node = as_poly(node) * as_poly(rhs)
            else:
                node = (node[0] * rhs[0], node[1] * rhs[1], node[2] + rhs[2])
                if node[2] & guard:
                    raise _overflow(vars, node[2])

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            if peek() == "-":
                raise ValueError("negative exponents are not supported")
            tok = take()
            if not isinstance(tok, int):
                raise ValueError("exponent must be an integer literal")
            if isinstance(base, MultiPoly):
                return base**tok
            p, q, key = base
            for name, e in zip(vars, _unpack(key, n)):
                if e * tok >= _LIMIT:
                    raise _too_large(name, e * tok)
            return (p**tok, q**tok, key * tok)
        return base

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            node = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if tok == "-":
            take()
            return neg(parse_power())  # exponent binds tighter than unary minus
        if tok == "+":
            take()
            return parse_power()
        if isinstance(tok, int):
            take()
            return (tok, 1, 0)
        if isinstance(tok, tuple) and tok[0] == "name":
            take()
            name = tok[1]
            if name not in vars:
                raise ValueError(f"unknown variable {name!r} (context {vars})")
            return (1, 1, 1 << _shift(n, vars.index(name)))
        raise ValueError("unexpected end of polynomial expression")

    try:
        result = parse_sum()
    except RecursionError:
        raise ValueError("polynomial expression is nested too deeply") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens in polynomial expression")
    return result


def poly_str(f: MultiPoly) -> str:
    if f.is_zero():
        return "0"
    out = []
    for exps, text in f.printed_terms():
        mono = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(f.vars, exps) if e])
        sign, text = (" - ", text[1:]) if text[0] == "-" else (" + ", text)
        if mono:
            text = mono if text == "1" else f"{text}*{mono}"
        out += (sign, text)
    return ("-" if out[0] == " - " else "") + "".join(out[1:])
