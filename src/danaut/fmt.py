"""Lossless rendering of exact scalars for reports.

Roots of unity are printed as (order, exponent) pairs meaning zeta_N^a,
with rational multipliers kept separate; anything else falls back to the
full coordinate vector.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycElem


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
            return f"{r}*{root}"
        return "(" + " + ".join(
            f"{c}*zeta{x.order}^{j}" for j, c in enumerate(x.coords) if c
        ) + ")"
    return str(x if type(x) is Fraction else Fraction(x))


def scalar_json(x) -> dict:
    if isinstance(x, CycElem):
        rp = x.as_root_power()
        if rp is not None:
            r, a = rp
            out = {"zeta": [x.order, a]}
            if r != 1:
                out["rat"] = str(r)
            return out
        return {"order": x.order, "coords": [str(c) for c in x.coords]}
    return {"rat": str(Fraction(x))}
