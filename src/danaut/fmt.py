"""Lossless rendering of exact scalars and permutations for reports.

Roots of unity are printed as (order, exponent) pairs meaning zeta_N^a,
with rational multipliers kept separate; anything else falls back to the
full coordinate vector.  Permutations are printed in cycle notation.
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
            r, a = rp
            root = f"zeta{x.order}" if a == 1 else f"zeta{x.order}^{a}"
            if r == 1:
                return root
            if r == -1:
                return "-" + root
            return f"{scalar_str(r)}*{root}"
        return "(" + " + ".join(
            f"{scalar_str(c)}*zeta{x.order}^{j}" for j, c in enumerate(x.coords) if c
        ) + ")"
    return ratio_str(*x.as_integer_ratio())


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
