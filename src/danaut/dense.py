"""Dense univariate arithmetic on coefficient lists (low to high) over Q.

Entries are ints or Fractions.  A zero is made from the inputs and the only
division is by a Fraction, so Fraction inputs give Fraction results and
ints with a monic divisor stay ints.  This is the package's one
division-with-remainder loop; Euclid runs on it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest


def trim(p: list) -> list:
    """Drop trailing zeros of p in place; returns p."""
    while p and not p[-1]:
        p.pop()
    return p


def mul(p, q) -> list:
    """The product of two coefficient lists."""
    if not p or not q:
        return []
    out = [0 * p[-1] * q[-1]] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                if y:
                    out[i + j] += x * y
    return out


def div_mod(num, den) -> tuple:
    """(quotient, trimmed remainder) of num by den, whose top entry is nonzero."""
    num = list(num)
    dn = len(den) - 1
    inv = None if den[-1] == 1 else Fraction(1) / den[-1]
    quot = []
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] if inv is None else num[i] * inv
        quot.append(c)
        if c:
            for j in range(dn):  # the top entry cancels exactly
                num[i - dn + j] -= c * den[j]
    return quot[::-1], trim(num[:dn])


def ext_gcd(a, b) -> tuple:
    """(g, s) with g a gcd of a and b (not made monic) and s*a = g modulo b."""
    r0, r1 = trim(list(a)), trim(list(b))
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = div_mod(r0, r1)
        r0, r1 = r1, r
        qs = mul(q, s1)
        s0, s1 = s1, trim([x - y for x, y in zip_longest(s0, qs, fillvalue=0)])
    return r0, s0
