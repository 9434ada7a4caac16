"""Lossless rendering of exact scalars and permutations for reports.

Roots of unity are printed as (order, exponent) pairs meaning zeta_N^a,
with rational multipliers kept separate; anything else falls back to the
full coordinate vector, printed as a signed sum.  Permutations are
printed in cycle notation.
"""

from __future__ import annotations

from math import gcd

from .cyclotomic import CycElem


def ratio_str(n: int, d: int) -> str:
    """The rational n/d (d > 0) in lowest terms, as str(Fraction(n, d)) prints it."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_str(x) -> str:
    if isinstance(x, CycElem):
        rp = x.as_root_power()
        if rp is not None:
            return _root_multiple(*rp, x.order)
        out = []  # signs and unsigned terms, joined as poly_str joins them
        for j, c in enumerate(x.coords):
            if c:
                text = _root_multiple(c, j, x.order)
                out += (" - ", text[1:]) if text[0] == "-" else (" + ", text)
        return "(" + ("-" if out[:1] == [" - "] else "") + "".join(out[1:]) + ")"
    return ratio_str(*x.as_integer_ratio())


def _root_multiple(r, a: int, order: int) -> str:
    """The rational r times zeta_order^a: r, zeta_N, -zeta_N^a or r*zeta_N^a."""
    if a == 0:
        return scalar_str(r)
    root = f"zeta{order}" if a == 1 else f"zeta{order}^{a}"
    if r == 1:
        return root
    if r == -1:
        return "-" + root
    return f"{scalar_str(r)}*{root}"


def scalar_json(x) -> dict:
    if isinstance(x, CycElem):
        rp = x.as_root_power()
        if rp is not None:
            r, a = rp
            out = {"zeta": [x.order, a]}
            if r != 1:
                out["rat"] = scalar_str(r)
            return out
        return {"order": x.order, "coords": [scalar_str(c) for c in x.coords]}
    return {"rat": scalar_str(x)}


def sigma_str(sigma) -> str:
    """A permutation of 0-based indices in cycle notation on 1-based indices."""
    seen = set()
    cycles = []
    for start in range(len(sigma)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = sigma[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt]
        if len(cycle) > 1:
            cycles.append("(" + ",".join(str(i + 1) for i in cycle) + ")")
    return "".join(cycles) if cycles else "id"
