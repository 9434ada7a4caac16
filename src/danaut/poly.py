"""Sparse exact multivariate polynomials over Q and cyclotomic extensions.

A polynomial carries a fixed variable context (an ordered tuple of names)
and one stored form: a dict from exponent tuples to nonzero coefficients
over one positive common denominator.  When every coefficient is rational
they are integer numerators sharing no factor with the denominator (as in
FLINT's fmpq_poly), so sums, products and rewriting run on ints with one
gcd per result; otherwise they are canonical Fraction and CycElem scalars
(rational-valued cyclotomics demoted) over 1.  Equal polynomials therefore
store equal forms.  ``terms`` reads either kind as
{exponents: Fraction | CycElem}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Optional

from .cyclotomic import CycElem, canonical_scalar
from .dense import ext_gcd, mul
from .fmt import scalar_str


class MultiPoly:
    """Polynomial in a fixed ordered variable context.

    ``_num`` maps exponents to nonzero coefficients over ``_den > 0``: ints
    with gcd(_den, *_num) == 1 (``_den == 1`` for zero) when all are
    rational, else Fraction and CycElem scalars with ``_den == 1``.
    ``_terms`` caches the ``terms`` view once read.
    """

    __slots__ = ("vars", "_num", "_den", "_terms")

    def __init__(self, vars: tuple, terms: dict) -> None:
        vars = tuple(vars)
        clean = {}
        n = len(vars)
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError("exponent tuple does not match variable context")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = canonical_scalar(c)
            clean[exps] = clean[exps] + c if exps in clean else c
        clean = {e: c for e, c in clean.items() if c}  # the terms view
        self.vars, self._terms = vars, clean
        self._num, self._den = MultiPoly._stored_scalars(clean)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, vars: tuple, num: dict, den: int = 1) -> "MultiPoly":
        """num / den in the stored form, for int, Fraction or CycElem values
        (zeros allowed) and a positive int den."""
        if 0 in num.values():
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

    @classmethod
    def _wrap(cls, vars: tuple, num: dict, den: int) -> "MultiPoly":
        """Wrap coefficients and a denominator that already are in the stored form."""
        f = object.__new__(cls)
        f.vars = vars
        f._num = num
        f._den = den
        f._terms = None
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
        i = vars.index(name)
        exps = (0,) * i + (1,) + (0,) * (len(vars) - i - 1)
        return MultiPoly._wrap(vars, {exps: 1}, 1)

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
        """{exponents: Fraction | CycElem}, built once from the stored form."""
        t = self._terms
        if t is None:
            d = self._den
            t = self._terms = {
                e: Fraction(n, d) if type(n) is int else n for e, n in self._num.items()
            }
        return t

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
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
        return max(sum(e) for e in self._num)

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self._num)

    def depends_on(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self._num)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._num)

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
        return MultiPoly._canonical(
            self.vars, _convolve(self._num, other._num, {}), self._den * other._den
        )

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
        pos = []
        for name in self.vars:
            if name not in new_vars:
                if self.depends_on(name):
                    raise ValueError(f"cannot drop occurring variable {name!r}")
                pos.append(None)
            else:
                pos.append(new_vars.index(name))
        out: dict = {}
        for exps, c in self._num.items():
            new = [0] * len(new_vars)
            for i, e in enumerate(exps):
                if e:
                    new[pos[i]] = e
            out[tuple(new)] = c  # only absent variables drop: no collisions
        return MultiPoly._wrap(new_vars, out, self._den)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(
            self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def __repr__(self):
        return f"MultiPoly({poly_str(self)!r})"


def _convolve(a: dict, b: dict, out: dict) -> dict:
    """Add the product of two exponent-keyed coefficient dicts into out."""
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(map(add, e1, e2))
            if e in out:
                out[e] += x * y
            else:
                out[e] = x * y
    return out


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
    modulo an ideal.  It is applied to each image power as that power is
    built, and once to the final sum, so no power is ever expanded in full;
    the result equals reduce(substitute(f, images)).

    Single-term images (c * monomial) fold into each term's exponents and
    coefficient.  The terms of f are then grouped by the exponents of the
    remaining variables, and each group's coefficient polynomial is
    multiplied once by its product of image powers.
    """
    ctx = None
    for g in images.values():
        if ctx is None:
            ctx = g.vars
        elif g.vars != ctx:
            raise ValueError("substitution images have mismatched contexts")
    if ctx is None:
        ctx = f.vars
    # folded: (index in f.vars, nonzero image exponents, image); rest: indices
    folded, rest = [], []
    occurs = [any(col) for col in zip(*f._num)]
    for i, name in enumerate(f.vars):
        if not (occurs and occurs[i]):
            continue
        if name not in images:
            raise ValueError(f"no image supplied for occurring variable {name!r}")
        g = images[name]
        if len(g._num) == 1:
            (e,) = g._num
            folded.append((i, [(j, a) for j, a in enumerate(e) if a], g))
        else:
            rest.append(i)

    # coefficients over den = f's denominator times b^K for each folded
    # image a/b * monomial, K the top power of its variable in f; a term
    # with power k of that variable is scaled by a^k * b^(K - k)
    den = f._den
    tops = {}
    for i, _, g in folded:
        if g._den != 1:
            tops[i] = f.degree_in(f.vars[i])
            den *= g._den ** tops[i]

    def scale(i, g, k):
        (a,) = g._num.values()
        return a**k * g._den ** (tops[i] - k) if i in tops else a**k

    # rest exponents -> {folded exponents: coefficient}
    groups: dict = {}
    scalings: dict = {}  # (index, k) -> scale(index, image, k)
    for exps, c in f._num.items():
        new = [0] * len(ctx)
        for i, support, g in folded:
            k = exps[i]
            if k:
                for j, a in support:
                    new[j] += k * a
            sk = scalings.get((i, k))
            if sk is None:
                sk = scalings[i, k] = scale(i, g, k)
            if sk != 1:
                c = c * sk
        key = tuple(new)
        group = groups.setdefault(tuple(exps[i] for i in rest), {})
        group[key] = group[key] + c if key in group else c

    powers: dict = {}  # index -> [image, image^2, ...]

    def power(i: int, e: int) -> MultiPoly:
        g = images[f.vars[i]]
        seq = powers.setdefault(i, [g])
        while len(seq) < e:
            p = seq[-1] * g
            seq.append(p if reduce is None else reduce(p))
        return seq[e - 1]

    parts = []
    for rest_exps, group in groups.items():
        term = MultiPoly._canonical(ctx, group, den)
        for i, k in zip(rest, rest_exps):
            if k:
                term = term * power(i, k)
        parts.append(term)
    result = _sum(ctx, parts)
    return result if reduce is None else reduce(result)


def reduce_by_rule(f: MultiPoly, lead: tuple, replacement: MultiPoly) -> MultiPoly:
    """Rewrite every monomial divisible by the lead monomial.

    Each occurrence of the lead exponent vector is replaced by the
    replacement polynomial; repeats until no monomial is divisible.  The
    caller guarantees termination (each step drops a ranked degree).
    """
    if f.vars != replacement.vars:
        raise ValueError("rule and polynomial contexts differ")
    lead = tuple(lead)
    support = [(i, b) for i, b in enumerate(lead) if b]
    current = f
    while True:
        rest, quotient = {}, {}
        for e, c in current._num.items():
            if all(e[i] >= b for i, b in support):
                quotient[tuple(a - b for a, b in zip(e, lead))] = c
            else:
                rest[e] = c
        if not quotient:
            return current
        # rest + quotient * replacement over current._den * rd, one gcd
        rd = replacement._den
        if rd != 1:
            rest = {e: n * rd for e, n in rest.items()}
        current = MultiPoly._canonical(
            f.vars, _convolve(quotient, replacement._num, rest), current._den * rd
        )


# -- univariate helpers ----------------------------------------------------


def as_univar(f: MultiPoly, name: str) -> list:
    """Dense coefficient list (low to high) of a polynomial univariate in name."""
    i = f.vars.index(name)
    for exps in f.terms:
        if any(e for j, e in enumerate(exps) if j != i):
            raise ValueError(f"polynomial is not univariate in {name!r}")
    d = f.degree_in(name)
    coeffs = [Fraction(0)] * (d + 1)
    for exps, c in f.terms.items():
        coeffs[exps[i]] = c
    return coeffs


def from_univar(vars: tuple, name: str, coeffs: Iterable) -> MultiPoly:
    vars = tuple(vars)
    i = vars.index(name)
    terms = {}
    for e, c in enumerate(coeffs):
        exps = [0] * len(vars)
        exps[i] = e
        terms[tuple(exps)] = c
    return MultiPoly(vars, terms)


def derivative(f: MultiPoly, name: str) -> MultiPoly:
    i = f.vars.index(name)
    out = {}
    for exps, c in f._num.items():
        e = exps[i]
        if e:  # lowering exponent i is injective: no two terms collide
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
    return MultiPoly._canonical(f.vars, out, f._den)


def divide_by_monomial(f: MultiPoly, m: MultiPoly) -> MultiPoly:
    """Exact quotient f / m by a monic monomial m; AssertionError unless m divides f."""
    f._check_ctx(m)
    if list(m.terms.values()) != [1]:
        raise ValueError("divisor must be a monic monomial")
    (lead,) = m.terms
    out = {}
    for exps, c in f._num.items():
        q = tuple(a - b for a, b in zip(exps, lead))
        if any(e < 0 for e in q):
            raise AssertionError("polynomial not divisible by the monomial")
        out[q] = c  # shifting every exponent by lead is injective
    return MultiPoly._wrap(f.vars, out, f._den)


def univar_gcd(f: MultiPoly, g: MultiPoly, name: str = "z") -> MultiPoly:
    """Monic gcd of two univariate rational polynomials (Euclid)."""
    f._check_ctx(g)
    a, b = as_univar(f, name), as_univar(g, name)
    if any(isinstance(c, CycElem) for c in a + b):
        raise ValueError("univariate gcd requires rational coefficients")
    r, _ = ext_gcd(a, b)
    if not r:
        return MultiPoly.zero(f.vars)
    return from_univar(f.vars, name, [c / r[-1] for c in r])


def perfect_power_root(P: MultiPoly, l: int, name: str = "z") -> Optional[MultiPoly]:
    """Monic Q with Q^l = P over Q, or None.

    Q is determined coefficient by coefficient from the top of P, then the
    candidate is verified exactly; P must be monic with l dividing deg P.
    """
    if l < 1:
        raise ValueError("power index must be positive")
    coeffs = as_univar(P, name)
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
    return from_univar(P.vars, name, q)


# -- parsing and printing ---------------------------------------------------


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch == "/":
            tokens.append("/")
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial")
    return tokens


def parse_poly(text: str, vars: tuple) -> MultiPoly:
    """Parse expressions like "z^3 + (y1+1)*z - 3/2" in the given context.

    A product of numbers, variables and their powers is one monomial
    (coefficient, exponents); only parenthesised factors are multiplied as
    polynomials, and each sum is added up once from its summands.
    """
    vars = tuple(vars)
    no_exps = (0,) * len(vars)
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

    # a parsed value is a MultiPoly or a monomial (int | Fraction, exponents)
    def as_poly(v):
        if isinstance(v, MultiPoly):
            return v
        c, e = v
        return MultiPoly._canonical(vars, {e: c.numerator}, c.denominator)

    def neg(v):
        return -v if isinstance(v, MultiPoly) else (-v[0], v[1])

    def parse_sum():
        parts = [parse_product()]
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            parts.append(rhs if op == "+" else neg(rhs))
        return _sum(vars, [as_poly(v) for v in parts])

    def parse_product():
        node = parse_power()
        while True:
            tok = peek()
            if tok == "/":
                take()
                den = as_poly(parse_power())
                if not den.is_constant():
                    raise ValueError("division only by nonzero constants")
                c = den.constant_term()
                if not c:
                    raise ValueError("division by zero")
                inv = Fraction(1) / c
                node = node * inv if isinstance(node, MultiPoly) else (node[0] * inv, node[1])
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
                node = (node[0] * rhs[0], tuple(map(add, node[1], rhs[1])))

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
            return (base[0] ** tok, tuple(e * tok for e in base[1]))
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
            return (tok, no_exps)
        if isinstance(tok, tuple) and tok[0] == "name":
            take()
            name = tok[1]
            if name not in vars:
                raise ValueError(f"unknown variable {name!r} (context {vars})")
            i = vars.index(name)
            return (1, no_exps[:i] + (1,) + no_exps[i + 1 :])
        raise ValueError("unexpected end of polynomial expression")

    result = parse_sum()
    if pos != len(tokens):
        raise ValueError("trailing tokens in polynomial expression")
    return result


def poly_str(f: MultiPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for exps, c in f.sorted_terms():
        factors = []
        for name, e in zip(f.vars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            text = scalar_str(c)
        elif c == 1:
            text = mono
        elif c == -1:
            text = f"-{mono}"
        else:
            text = f"{scalar_str(c)}*{mono}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
