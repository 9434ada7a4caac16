"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element known to be r * zeta_N^a (zeta, cyc_root_of_unity, and every
product, quotient, power, inverse, negation, lift or rational multiple of
such elements) is stored by exponent: a nonzero Fraction r and the least
exponent a, so that arithmetic on it is one Fraction product and integer
arithmetic mod N.  Any other element is stored in the power basis
1, z, ..., z^(phi(N)-1) of Q[z]/(Phi_N(z)), with Fraction coordinates.
The coordinates of a root power are built on first read, which only a
sum of root powers with different exponents, or a sum, product or
comparison with an element known by coordinates needs; printing reads
the exponent.  An element of order N embeds losslessly into any order
N' with N | N'.

Scalars are Fraction or CycElem, and they mix through the ordinary
operators: + - * / ** between a CycElem and an int, Fraction or CycElem
return a canonical scalar, that is a Fraction whenever the value is
rational (canonical_scalar).  A rational operand is added to the first
coordinate, or scales r or every coordinate; two CycElems are lifted to
the lcm of their orders.  Only the constructor, zeta, lift and inverse
return CycElems that may be rational-valued.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add
from typing import Optional

from .dense import div_mod, ext_gcd, mul

# entries kept per cache below: bounds memory when many orders are met
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=_CACHE_SIZE)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low to high, monic with integer entries."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    # (z^n - 1) / prod of Phi_d over proper divisors d
    coeffs = [0] * (n + 1)
    coeffs[0] = -1
    coeffs[n] = 1
    for d in range(1, n):
        if n % d == 0:
            coeffs, rem = div_mod(coeffs, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("cyclotomic recursion left a remainder")
    return tuple(coeffs)


def _reduce_mod_phi(coeffs: list, n: int) -> list:
    """Remainder of a Fraction coefficient list modulo Phi_n, padded to phi(n)."""
    phi = euler_phi(n)
    _, rem = div_mod(coeffs, cyclotomic_polynomial(n))
    return rem + [Fraction(0)] * (phi - len(rem))


@lru_cache(maxsize=_CACHE_SIZE)
def _zeta_power_coords(n: int, e: int) -> tuple:
    e %= n
    phi = euler_phi(n)
    if e < phi:
        vec = [Fraction(0)] * phi
        vec[e] = Fraction(1)
        return tuple(vec)
    return tuple(_reduce_mod_phi([Fraction(0)] * e + [Fraction(1)], n))


class CycElem:
    """An element of Q(zeta_N): r * zeta_N^a by exponent, or power-basis coordinates.

    ``_rp`` is (r, a) with r a nonzero Fraction and 0 <= a < N, and
    2a < N when N is even, so that it is the least exponent; it is None
    for an element known only by its coordinates.  ``_coords`` caches the
    coordinates of a root power once they are read.
    """

    __slots__ = ("order", "_coords", "_rp")

    def __init__(self, order: int, coords) -> None:
        phi = euler_phi(order)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != phi:
            raise ValueError(f"need {phi} coordinates for order {order}")
        self.order = order
        self._coords = coords
        self._rp = None

    @classmethod
    def _trusted(cls, order: int, coords: tuple) -> "CycElem":
        """Wrap phi(order) Fraction coordinates made by arithmetic, unchecked."""
        x = object.__new__(cls)
        x.order = order
        x._coords = coords
        x._rp = None
        return x

    @classmethod
    def _root(cls, order: int, r: Fraction, a: int) -> "CycElem":
        """r * zeta_order^a for a nonzero Fraction r, at the least exponent."""
        a %= order
        if not order % 2 and 2 * a >= order:  # zeta^(N/2) = -1
            a -= order // 2
            r = -r
        x = object.__new__(cls)
        x.order = order
        x._coords = None
        x._rp = (r, a)
        return x

    @property
    def coords(self) -> tuple:
        """Power-basis coordinates, built on first read for a root power."""
        c = self._coords
        if c is None:
            r, a = self._rp
            c = self._coords = tuple(r * v for v in _zeta_power_coords(self.order, a))
        return c

    # -- predicates and conversions -----------------------------------

    def is_zero(self) -> bool:
        return self._rp is None and not any(self._coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        if self._rp is not None:
            return not 2 * self._rp[1] % self.order
        return not any(self._coords[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        if self._rp is not None:
            return self._rp[0]  # a rational root power has least exponent 0
        return self._coords[0]

    def lift(self, new_order: int) -> "CycElem":
        """Embed into Q(zeta_M) for a multiple M of the current order."""
        if new_order % self.order != 0:
            raise ValueError("can only lift to a multiple of the order")
        if new_order == self.order:
            return self
        step = new_order // self.order
        if self._rp is not None:
            r, a = self._rp
            return CycElem._root(new_order, r, a * step)
        phi = euler_phi(new_order)
        out = [Fraction(0)] * phi
        for j, c in enumerate(self._coords):
            if c == 0:
                continue
            vec = _zeta_power_coords(new_order, j * step)
            for k, v in enumerate(vec):
                if v:
                    out[k] += c * v
        return CycElem._trusted(new_order, tuple(out))

    # -- arithmetic: results are canonical scalars ---------------------

    @staticmethod
    def _pair(a: "CycElem", b: "CycElem") -> tuple:
        if a.order == b.order:
            return a, b
        m = a.order * b.order // gcd(a.order, b.order)
        return a.lift(m), b.lift(m)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.coords
            return canonical_scalar(CycElem._trusted(self.order, (c[0] + other,) + c[1:]))
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = CycElem._pair(self, other)
        if a._rp is not None and b._rp is not None and a._rp[1] == b._rp[1]:
            r = a._rp[0] + b._rp[0]  # r1*zeta^e + r2*zeta^e
            return canonical_scalar(CycElem._root(a.order, r, a._rp[1])) if r else r
        return canonical_scalar(CycElem._trusted(a.order, tuple(map(add, a.coords, b.coords))))

    __radd__ = __add__

    def __neg__(self):
        if self._rp is not None:
            r, a = self._rp
            return canonical_scalar(CycElem._root(self.order, -r, a))
        return canonical_scalar(CycElem._trusted(self.order, tuple(-c for c in self._coords)))

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, CycElem)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if self._rp is None:
                return canonical_scalar(
                    CycElem._trusted(self.order, tuple(c * other for c in self._coords))
                )
            if not other:
                return Fraction(0)
            r, a = self._rp
            return canonical_scalar(CycElem._root(self.order, r * other, a))
        if not isinstance(other, CycElem):
            return NotImplemented
        if self._rp is not None and other._rp is not None:
            (r, a), (s, b) = self._rp, other._rp
            n, m = self.order, other.order
            L = n * m // gcd(n, m)
            return canonical_scalar(CycElem._root(L, r * s, a * (L // n) + b * (L // m)))
        a, b = CycElem._pair(self, other)
        prod = _reduce_mod_phi(mul(a.coords, b.coords), a.order)
        return canonical_scalar(CycElem._trusted(a.order, tuple(prod)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if not isinstance(other, CycElem):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "CycElem":
        if self._rp is not None:
            r, a = self._rp
            return CycElem._root(self.order, 1 / r, -a)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return CycElem._trusted(self.order, (1 / self._coords[0],) + self._coords[1:])
        g, s = ext_gcd(self._coords, cyclotomic_polynomial(self.order))
        if len(g) != 1:
            raise AssertionError("representative not coprime to Phi_N")
        inv = [c / g[0] for c in s]
        return CycElem._trusted(self.order, tuple(_reduce_mod_phi(inv, self.order)))

    def __pow__(self, e: int):
        if self._rp is not None:
            r, a = self._rp
            return canonical_scalar(CycElem._root(self.order, r**e, a * e))
        if e < 0:
            return self.inverse() ** -e
        result, base = Fraction(1), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # the last squaring would go unused
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_fraction() == other
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = CycElem._pair(self, other)
        if a._rp is not None and b._rp is not None:
            return a._rp == b._rp
        return a.coords == b.coords

    __hash__ = None

    # -- presentation ---------------------------------------------------

    def as_root_power(self) -> Optional[tuple]:
        """Return (r, a) with self = r * zeta_order^a, if of that shape (least a).

        An element known by coordinates is multiplied by zeta^-1 until one
        coordinate is left: r * zeta^a gets there after at most
        a - phi(N) + 1 <= N - phi(N) steps, each a shift of the integer
        numerators with one fold of z^-1 = -(Phi_N(z) - 1) / z, as
        Phi_N(0) = 1 for N >= 2 (order 1 has one coordinate and never steps).
        """
        if self._rp is not None:
            return self._rp
        n = self.order
        den = lcm(*(c.denominator for c in self._coords))
        vec = [int(c * den) for c in self._coords]
        phin = cyclotomic_polynomial(n)
        for k in range(n - euler_phi(n) + 1):
            nonzero = [j for j, c in enumerate(vec) if c]
            if not nonzero:
                return None
            if len(nonzero) == 1:
                j = nonzero[0]
                return CycElem._root(n, Fraction(vec[j], den), j + k)._rp
            low = vec[0]
            vec = [c - low * p for c, p in zip(vec[1:] + [0], phin[1:])]
        return None

    def __repr__(self):
        if self.is_rational():
            return f"CycElem({self.to_fraction()})"
        rp = self.as_root_power()
        if rp is not None:
            r, a = rp
            mult = "" if r == 1 else f"{r}*"
            return f"CycElem({mult}zeta{self.order}^{a})"
        return f"CycElem(order={self.order}, coords={self.coords})"


def zeta(n: int, a: int = 1) -> CycElem:
    """The root of unity zeta_n^a."""
    if n < 1:
        raise ValueError("order must be positive")
    return CycElem._root(n, Fraction(1), a)


def _integer_nth_root(x: int, n: int) -> Optional[int]:
    if x == 0:
        return 0
    neg = x < 0
    if neg and n % 2 == 0:
        return None
    ax = abs(x)
    if n == 2:
        r = isqrt(ax)
    else:
        # integer Newton iteration from above; ends at floor(ax^(1/n))
        r = 1 << -(-ax.bit_length() // n)
        while True:
            nxt = ((n - 1) * r + ax // r ** (n - 1)) // n
            if nxt >= r:
                break
            r = nxt
    if r**n == ax:
        return -r if neg else r
    return None


def rational_nth_root(c: Fraction, n: int) -> Optional[Fraction]:
    """Exact n-th root of a rational, or None."""
    c = Fraction(c)
    num = _integer_nth_root(c.numerator, n)
    den = _integer_nth_root(c.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def cyc_root_of_unity(c, n: int):
    """A w = r*zeta with w^n = c: zeta_n for c = 1, zeta_2n times the rational
    n-th root of -c for c = -1 or c < 0 and n even, else the rational root.

    Returns a Fraction or CycElem, or None when |c| is not a rational n-th
    power: the restricted repertoire holds no irrational radical.
    """
    if n < 1:
        raise ValueError("root index must be positive")
    c = Fraction(c)
    if c == 1:
        return canonical_scalar(zeta(n))
    if c < 0 and (c == -1 or n % 2 == 0):  # (r*zeta_2n)^n = -r^n
        r = rational_nth_root(-c, n)
        return None if r is None else canonical_scalar(CycElem._root(2 * n, r, 1))
    return rational_nth_root(c, n)


# -- scalar protocol: Fraction | CycElem ------------------------------


def canonical_scalar(x):
    """Demote rational-valued cyclotomic elements to Fraction."""
    if isinstance(x, CycElem):
        return x.to_fraction() if x.is_rational() else x
    return x if type(x) is Fraction else Fraction(x)
