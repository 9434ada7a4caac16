"""Sparse exact multivariate polynomials over Q and cyclotomic extensions.

A polynomial carries a fixed variable context (an ordered tuple of names);
terms are a dict keyed by exponent tuples.  Coefficients are Fraction or
CycElem, kept canonical (rational-valued cyclotomics are demoted and zero
coefficients are never stored), so equal polynomials compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Iterable, Optional

from .cyclotomic import CycElem, canonical_scalar
from .fmt import scalar_str


class MultiPoly:
    """Polynomial in a fixed ordered variable context."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict) -> None:
        self.vars = tuple(vars)
        clean = {}
        n = len(self.vars)
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError("exponent tuple does not match variable context")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = canonical_scalar(c)
            if not c:
                continue
            if exps in clean:
                c = clean[exps] + c
                if not c:
                    del clean[exps]
                    continue
            clean[exps] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, vars: tuple, terms: dict) -> "MultiPoly":
        """Wrap terms that are canonical by construction, skipping validation.

        For results of ring operations on validated operands: exponent
        tuples of the context's length, canonical nonzero coefficients.
        """
        f = object.__new__(cls)
        f.vars = vars
        f.terms = terms
        return f

    @staticmethod
    def zero(vars: tuple) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def const(vars: tuple, c) -> "MultiPoly":
        return MultiPoly(vars, {(0,) * len(vars): c})

    @staticmethod
    def variable(vars: tuple, name: str) -> "MultiPoly":
        return MultiPoly.monomial(vars, {name: 1}, 1)

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycElem)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def coeff(self, exps: tuple):
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self):
        return self.coeff((0,) * len(self.vars))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def depends_on(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def _is_rational(self) -> bool:
        return all(type(c) is Fraction for c in self.terms.values())

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
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                c = out[exps] + c
                if not c:
                    del out[exps]
                    continue
            out[exps] = c
        return MultiPoly._trusted(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

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
            # a product of nonzero field elements is nonzero and canonical
            return MultiPoly._trusted(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ctx(other)
        out: dict = {}
        if self._is_rational() and other._is_rational():
            # integer numerators over each operand's common denominator, so
            # the inner loop multiplies and adds ints; one Fraction per term
            n1, d1 = _over_common_denominator(self.terms)
            n2, d2 = _over_common_denominator(other.terms)
            for e1, a in n1.items():
                for e2, b in n2.items():
                    e = tuple(map(add, e1, e2))
                    if e in out:
                        out[e] += a * b
                    else:
                        out[e] = a * b
            d = d1 * d2
            return MultiPoly._trusted(
                self.vars, {e: Fraction(n, d) for e, n in out.items() if n}
            )
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
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
        for exps, c in self.terms.items():
            new = [0] * len(new_vars)
            for i, e in enumerate(exps):
                if e:
                    new[pos[i]] = e
            out[tuple(new)] = c  # only absent variables drop: no collisions
        return MultiPoly._trusted(new_vars, out)

    # -- presentation -------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(
            self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
        )

    def __repr__(self):
        return f"MultiPoly({poly_str(self)!r})"


def _over_common_denominator(terms: dict) -> tuple:
    """({exponents: integer numerator}, d) with terms = numerators / d, rationals only."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


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
    # folded: (index in f.vars, nonzero image exponents, scalar); rest: indices
    folded, rest = [], []
    for i, name in enumerate(f.vars):
        if not f.depends_on(name):
            continue
        if name not in images:
            raise ValueError(f"no image supplied for occurring variable {name!r}")
        g = images[name]
        if len(g.terms) == 1:
            ((e, c),) = g.terms.items()
            folded.append((i, [(j, a) for j, a in enumerate(e) if a], c))
        else:
            rest.append(i)

    # rest exponents -> {folded exponents: coefficient}
    groups: dict = {}
    scalar_powers: dict = {}  # (index, k) -> scalar^k
    for exps, c in f.terms.items():
        new = [0] * len(ctx)
        for i, support, s in folded:
            k = exps[i]
            if k:
                for j, a in support:
                    new[j] += k * a
                if s != 1:
                    sk = scalar_powers.get((i, k))
                    if sk is None:
                        sk = scalar_powers[i, k] = s**k
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

    out: dict = {}
    for rest_exps, group in groups.items():
        term = MultiPoly._trusted(ctx, {e: c for e, c in group.items() if c})
        for i, k in zip(rest, rest_exps):
            if k:
                term = term * power(i, k)
        for e, c in term.terms.items():
            out[e] = out[e] + c if e in out else c
    result = MultiPoly._trusted(ctx, {e: c for e, c in out.items() if c})
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
        for e, c in current.terms.items():
            if all(e[i] >= b for i, b in support):
                quotient[tuple(a - b for a, b in zip(e, lead))] = c
            else:
                rest[e] = c
        if not quotient:
            return current
        # both parts keep the canonical coefficients of a validated polynomial
        current = MultiPoly._trusted(f.vars, rest) + MultiPoly._trusted(
            f.vars, quotient
        ) * replacement


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
    for exps, c in f.terms.items():
        e = exps[i]
        if e == 0:
            continue
        new = list(exps)
        new[i] = e - 1
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + c * e
    return MultiPoly(f.vars, out)


def univar_gcd(f: MultiPoly, g: MultiPoly, name: str = "z") -> MultiPoly:
    """Monic gcd of two univariate rational polynomials (Euclid)."""
    f._check_ctx(g)
    a, b = as_univar(f, name), as_univar(g, name)
    for coeffs in (a, b):
        if any(isinstance(c, CycElem) for c in coeffs):
            raise ValueError("univariate gcd requires rational coefficients")

    def norm(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    def rem(num, den):
        num = list(num)
        lead = den[-1]
        dn = len(den) - 1
        for i in range(len(num) - 1, dn - 1, -1):
            c = num[i] / lead
            if c == 0:
                continue
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
        return norm(num)

    a, b = norm(a), norm(b)
    while b:
        a, b = b, rem(a, b)
    if not a:
        return MultiPoly.zero(f.vars)
    a = [c / a[-1] for c in a]
    return from_univar(f.vars, name, a)


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
    r = d // l
    q = [Fraction(0)] * r + [Fraction(1)]
    for i in range(1, r + 1):
        # match the coefficient of z^(d-i); q[r-i] enters linearly with factor l
        probe = from_univar(P.vars, name, q)
        cur = as_univar(probe**l, name)
        target_idx = d - i
        delta = coeffs[target_idx] - cur[target_idx]
        q[r - i] = delta / l
    candidate = from_univar(P.vars, name, q)
    if candidate**l == P:
        return candidate
    return None


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
    """Parse expressions like "z^3 + (y1+1)*z - 3/2" in the given context."""
    vars = tuple(vars)
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

    def parse_sum():
        node = parse_product()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_product():
        node = parse_power()
        while True:
            tok = peek()
            if tok == "*":
                take()
                node = node * parse_power()
            elif tok == "/":
                take()
                den = parse_power()
                if not den.is_constant():
                    raise ValueError("division only by nonzero constants")
                c = den.constant_term()
                if not c:
                    raise ValueError("division by zero")
                node = node * (Fraction(1) / c)
            elif tok == "(" or isinstance(tok, int) or (
                isinstance(tok, tuple) and tok[0] == "name"
            ):
                node = node * parse_power()  # juxtaposition
            else:
                return node

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                raise ValueError("negative exponents are not supported")
            tok = take()
            if not isinstance(tok, int):
                raise ValueError("exponent must be an integer literal")
            return base ** (sign * tok)
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
            return -parse_power()  # exponent binds tighter than unary minus
        if tok == "+":
            take()
            return parse_power()
        if isinstance(tok, int):
            take()
            return MultiPoly.const(vars, Fraction(tok))
        if isinstance(tok, tuple) and tok[0] == "name":
            take()
            name = tok[1]
            if name not in vars:
                raise ValueError(f"unknown variable {name!r} (context {vars})")
            return MultiPoly.variable(vars, name)
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
        elif isinstance(c, CycElem):
            text = f"{scalar_str(c)}*{mono}"
        elif c == 1:
            text = mono
        elif c == -1:
            text = f"-{mono}"
        else:
            text = f"{c}*{mono}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
