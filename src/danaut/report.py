"""Assembly of machine-readable analysis reports.

The JSON shape is stable (sorted keys, exact scalars as strings) so golden
reports are byte-reproducible.
"""

from __future__ import annotations

from typing import Optional

from .autgroup import AutReport
from .derivations import canonical_lnd, exp_replica
from .fmt import scalar_json, scalar_str, sigma_str
from .lattice import DiagGroupType
from .poly import MultiPoly, poly_str
from .varieties import (
    REGIME_ALL_GE2,
    REGIME_DANIELEWSKI,
    REGIME_DEGENERATE,
    REGIME_ONE_UNIT,
    VarietySpec,
    irreducibility,
    ml_invariant,
    rigidity,
)


def type_dict(t: Optional[DiagGroupType]) -> Optional[dict]:
    if t is None:
        return None
    return {
        "rank": t.torus_rank,
        "factors": list(t.invariant_factors),
        "pretty": t.pretty(),
    }


def quasitorus_dict(q) -> Optional[dict]:
    if q is None:
        return None
    return {
        "which": q.which,
        "type": type_dict(q.type),
        "effective_type": type_dict(q.effective_type),
        "action": [[name, e] for name, e in q.action],
        "reference_index": (q.reference_index + 1) if q.reference_index is not None else None,
        "note": q.note,
    }


def sym_dict(s) -> dict:
    return {
        "blocks": [list(b) for b in s.blocks],
        "sizes": list(s.sizes),
        "pretty": s.pretty(),
        "order": s.order(),
    }


def element_signature(sigma, scalars) -> str:
    """How a canonical-group element is printed and named: (sigma; t_1, ..., tau)."""
    return f"({sigma_str(sigma)}; " + ", ".join(scalar_str(x) for x in scalars) + ")"


def canonical_dict(G) -> Optional[dict]:
    if G is None:
        return None
    branches = []
    for b in G.branches:
        entry = {
            "sigma": sigma_str(b.sigma),
            "feasible": b.feasible,
            "kill_reason": b.kill_reason,
        }
        if b.solutions is not None:
            entry["structure"] = type_dict(b.solutions.structure)
            entry["consistent"] = b.solutions.consistent
            entry["coset_note"] = b.solutions.coset_note
            entry["equations"] = [
                {"exponents": list(row), "target": scalar_str(t)}
                for row, t in zip(b.solutions.exponents, b.solutions.targets)
            ]
        branches.append(entry)
    elements = None if G.elements is None else [
        {"id": f"e{i}", "sigma": sigma_str(sigma), "scalars": [scalar_json(x) for x in t],
         "signature": element_signature(sigma, t)}
        for i, (sigma, t) in enumerate(G.elements)
    ]
    return {
        "summary": G.summary,
        "order": G.order,
        "is_trivial": G.order == 1,
        "splits_note": G.splits_note,
        "branches": branches,
        "elements": elements,
    }


def build_report(raw: VarietySpec, spec: VarietySpec, aut: AutReport) -> dict:
    """Full analysis report for a classified, normalized presentation
    (normalize returns a normalized spec itself)."""
    equation = raw.equation_str()
    inv: dict = {"ml_generators": list(ml_invariant(spec))}
    irr = irreducibility(spec)
    inv["irreducible"] = not irr.reducible
    inv["reducibility_witness"] = (
        {"l": irr.l, "Q": poly_str(irr.Q)} if irr.reducible else None
    )
    rig = rigidity(spec)
    inv["rigid"] = rig.rigid
    inv["rigidity_reason"] = rig.reason
    inv["genus"] = rig.genus

    groups: dict = {}
    for key in ("H", "T", "D", "Dbar", "Dhat"):
        q = aut.groups.get(key)
        groups[key] = quasitorus_dict(q)
    groups["S"] = sym_dict(aut.groups["S"]) if "S" in aut.groups else None
    groups["G"] = canonical_dict(aut.canonical)
    groups["H_cap_Dbar"] = type_dict(aut.groups.get("H_cap_Dbar"))
    groups["structure_lattice_exact"] = type_dict(aut.structure_group)

    generators: list = []
    if aut.regime in (REGIME_ALL_GE2, REGIME_ONE_UNIT):
        generators.append(
            {
                "kind": "weight-monomial-stabilizer",
                "type": type_dict(aut.groups["H"].type),
            }
        )
        generators.append(
            {
                "kind": "scaling-family",
                "type": type_dict(aut.groups["Dbar"].type),
                "action": [[n, e] for n, e in aut.groups["Dbar"].action],
            }
        )
        S = aut.groups["S"]
        if not S.is_trivial():
            generators.append({"kind": "permutations", "sym": sym_dict(S)})
        if aut.special_family:
            generators.append({"kind": "special-family", "relation": "a^2-b^2=1"})
    if aut.regime in (REGIME_ONE_UNIT, REGIME_DANIELEWSKI):
        exp_h = exp_replica(spec, MultiPoly.variable(spec.vars + ("h",), "h"))
        generators.append(
            {
                "kind": "exponential-family",
                "derivation": {name: poly_str(g) for name, g in canonical_lnd(spec).items()},
                "images": {name: poly_str(exp_h.images[name]) for name in spec.vars},
            }
        )
    if aut.regime == REGIME_DEGENERATE:
        generators.append({"kind": "affine-line", "images": "z -> a*z + b, a nonzero"})
    G = groups["G"]
    if G is not None and G["elements"] is not None:  # reuse the rendered scalars
        generators += [
            {"kind": "canonical-element", "id": e["id"], "sigma": e["sigma"],
             "scalars": e["scalars"]}
            for e in G["elements"]
        ]

    return {
        "schema": "danaut-report-v1",
        "regime": spec.regime,
        "regime_note": spec.regime_note,
        "equation": equation,
        "normalized_equation": equation if spec is raw else spec.equation_str(),
        "normalization_shift": poly_str(spec.shift) if spec.shift is not None else None,
        "invariants": inv,
        "groups": groups,
        "structure": aut.structure,
        "structure_pretty": aut.structure_pretty,
        "verdicts": {
            "commutative": aut.verdicts.commutative,
            "torus": aut.verdicts.torus,
            "solvable": aut.verdicts.solvable,
        },
        "generators": generators,
        "citations": aut.citations,
        "warnings": list(aut.warnings),
    }
