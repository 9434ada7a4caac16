"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of ``danaut`` subcommand calls (one "pass").
The seed picks the coefficients; the shapes of the presentations, and so
the group orders and the amount of work per call, are fixed.  The program
only ever sees the generated presentation files and argument vectors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("analyze_corpus", "group_ladders", "automorphism_maps")

# Danielewski fixtures: x present, all weights >= 2, already normalized.
DANIELEWSKI_FIXTURES = (
    "bf03", "bf04", "bf05", "bf06", "bf07", "bf08", "bf09", "bf10", "bf11",
    "bf12", "s7_e2", "s7_e4", "s7_threevar",
)
# Fixtures whose canonical group lists its elements, and how many.
ELEMENT_COUNTS = {
    "bf03": 3, "bf04": 2, "bf05": 1, "bf06": 3, "bf07": 2, "bf08": 4,
    "bf09": 2, "bf10": 2, "bf11": 4, "bf12": 4, "s7_e2": 1, "s7_e4": 4,
}

LADDER_M = (2, 3, 4, 5, 6)
LADDER_D = (4, 8, 12, 16)
LADDER_N = (12, 24, 36, 60)

REGIMES = {
    "dan": "Danielewski",
    "unit": "LineSuspensionOneUnit",
    "susp": "LineSuspensionAllGe2",
    "curve": "LineSuspensionAllGe2",
}


@dataclass
class Call:
    """One CLI invocation and what its output is checked against."""

    label: str
    argv: list  # file arguments are names inside the input directory
    check: dict = field(default_factory=dict)


@dataclass
class Inputs:
    files: dict  # file name -> presentation (JSON object)
    calls: list

    def digest(self) -> str:
        blob = json.dumps(
            {
                "files": self.files,
                "calls": [[c.label, c.argv, c.check] for c in self.calls],
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def write(self, directory: str) -> None:
        if os.path.isdir(directory):
            shutil.rmtree(directory)
        os.makedirs(directory)
        for name, spec in self.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                json.dump(spec, fh, sort_keys=True)


def presentation(weights, x_present, terms) -> dict:
    """A presentation file from (y_exponents, z_exponent, coeff) terms."""
    return {
        "weights": list(weights),
        "x_present": x_present,
        "P": [
            {"y_exponents": list(ye), "z_exponent": ze, "coeff": str(c)}
            for ye, ze, c in terms
        ],
    }


def coeff(rng: random.Random) -> Fraction:
    """A nonzero small rational, so no term vanishes by accident."""
    return Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))


def poly_text(terms) -> str:
    """Render (coefficient, monomial) pairs in the CLI's expression syntax."""
    out = ""
    for c, mono in terms:
        c = Fraction(c)
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out


def weight_monomial(weights) -> str:
    return "*".join(f"y{i+1}^{k}" for i, k in enumerate(weights))


def load_fixtures(root: str) -> dict:
    fixtures = {}
    directory = os.path.join(root, "tests", "fixtures")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                fixtures[name[: -len(".json")]] = json.load(fh)
    if len(fixtures) != 18:
        raise RuntimeError(f"expected 18 fixtures in {directory}, found {len(fixtures)}")
    return fixtures


def generate(workload: str, seed: int, root: str, scale: str = "full") -> Inputs:
    """The workload's inputs; ``scale="tiny"`` keeps only the cheapest calls."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze_corpus":
        inputs = _analyze_corpus(rng, load_fixtures(root))
    elif workload == "group_ladders":
        inputs = _group_ladders(rng)
    elif workload == "automorphism_maps":
        inputs = _automorphism_maps(rng, load_fixtures(root))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if scale == "tiny":
        inputs = _tiny(inputs)
    return inputs


def _tiny(inputs: Inputs) -> Inputs:
    """A few calls of every kind, for the benchmark's own tests."""
    kept, seen = [], {}
    for call in inputs.calls:
        kind = call.check["kind"]
        if call.label == "exp.deg8":
            continue
        if seen.get(kind, 0) < 2:
            seen[kind] = seen.get(kind, 0) + 1
            kept.append(call)
    used = {a for c in kept for a in c.argv if a in inputs.files}
    used |= {c.check["file"] for c in kept if "file" in c.check}
    files = {k: v for k, v in inputs.files.items() if k in used}
    return Inputs(files, kept)


# -- analyze_corpus -----------------------------------------------------------------


def _distinct_roots(rng: random.Random, d: int) -> list:
    """Terms of prod (z - r_i) over d distinct rational roots: P is squarefree."""
    roots = set()
    while len(roots) < d:
        roots.add(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    poly = [Fraction(1)]  # lowest degree first
    for r in sorted(roots):
        nxt = [Fraction(0)] + poly
        for i, a in enumerate(poly):
            nxt[i] -= r * a
        poly = nxt
    return [([0], i, a) for i, a in enumerate(poly) if a != 0]


def _random_shapes(rng: random.Random) -> list:
    """(name, weights, x_present, terms) on a fixed grid of shapes.

    The shapes are the ones the CLI analyzes: Danielewski with all
    weights >= 2, suspensions with one unit weight, and suspensions with
    all weights >= 2 whose P depends on z only.  Coprime weights or a
    squarefree P make every presentation irreducible, and each curve's P
    has distinct roots, so it has a genus.
    """
    c = lambda: coeff(rng)  # noqa: E731
    return [
        ("dan_w2_d3", (2,), True, [([0], 3, 1), ([1], 1, c()), ([0], 0, c())]),
        ("dan_w3_d2", (3,), True, [([0], 2, 1), ([2], 0, c()), ([0], 0, c())]),
        ("dan_w2_d4", (2,), True,
         [([0], 4, 1), ([0], 2, c()), ([1], 0, c()), ([0], 0, c())]),
        ("dan_w22_d3", (2, 2), True,
         [([0, 0], 3, 1), ([0, 0], 1, c()), ([1, 0], 0, c()), ([0, 1], 0, c())]),
        ("dan_w23_d3", (2, 3), True,
         [([0, 0], 3, 1), ([0, 0], 1, c()), ([1, 0], 0, c()), ([0, 1], 0, c())]),
        ("dan_w22_d2", (2, 2), True,
         [([0, 0], 2, 1), ([1, 0], 0, c()), ([0, 1], 0, c()), ([0, 0], 0, c())]),
        ("unit_w12_d3", (1, 2), False, [([0, 0], 3, 1), ([0, 0], 1, c()), ([0, 0], 0, c())]),
        ("unit_w21_d4", (2, 1), False, [([0, 0], 4, 1), ([0, 0], 2, c()), ([0, 0], 0, c())]),
        ("unit_w13_d2", (1, 3), False, [([0, 0], 2, 1), ([0, 0], 0, c())]),
        ("susp_w23_d4", (2, 3), False, [([0, 0], 4, 1), ([0, 0], 1, c()), ([0, 0], 0, c())]),
        ("susp_w42_d6", (4, 2), False, [([0, 0], 6, 1), ([0, 0], 0, c())]),
        ("susp_w22_d3", (2, 2), False, [([0, 0], 3, 1), ([0, 0], 0, c())]),
        ("curve_w2_d3", (2,), False, _distinct_roots(rng, 3)),
        ("curve_w3_d4", (3,), False, _distinct_roots(rng, 4)),
    ]


def genus_of_curve(k: int, d: int) -> int:
    """Riemann-Hurwitz genus of the smooth model of y^k = P(z), P squarefree."""
    return ((d - 1) * (k - 1) + 1 - math.gcd(k, d)) // 2


def _analyze_corpus(rng: random.Random, fixtures: dict) -> Inputs:
    files, calls = {}, []
    for name, spec in fixtures.items():
        fname = f"{name}.json"
        files[fname] = spec
        if name.startswith("s"):
            check = {"kind": "golden", "fixture": name}
        else:
            check = {"kind": "report", "regime": "Danielewski"}
        calls.append(Call(f"analyze.{name}", ["analyze", fname, "--json"], check))
        calls.append(Call(f"irreducible.{name}", ["irreducible", fname, "--json"],
                          {"kind": "irreducible", "file": fname}))
    for r in range(2):
        for shape, weights, x_present, terms in _random_shapes(rng):
            name = f"{shape}_{r}"
            fname = f"{name}.json"
            files[fname] = presentation(weights, x_present, terms)
            kind = shape.split("_")[0]
            check = {"kind": "report", "regime": REGIMES[kind], "irreducible": True}
            if kind == "curve":
                check["genus"] = genus_of_curve(weights[0], max(t[1] for t in terms))
            calls.append(Call(f"analyze.{name}", ["analyze", fname, "--json"], check))
            calls.append(Call(f"irreducible.{name}", ["irreducible", fname, "--json"],
                              {"kind": "irreducible", "file": fname, "expect": True}))
            if kind == "curve":
                calls.append(Call(f"genus.{name}", ["genus", fname, "--json"],
                                  {"kind": "genus", "expect": check["genus"]}))
    return Inputs(files, calls)


# -- group_ladders -----------------------------------------------------------------


def _group_ladders(rng: random.Random) -> Inputs:
    """The three ROADMAP scaling ladders; nonzero coefficients fix the orders."""
    files, calls = {}, []
    for m in LADDER_M:
        a, c = coeff(rng), coeff(rng)
        terms = [([0] * m, 3, 1), ([0] * m, 1, a)]
        terms += [([int(i == j) for j in range(m)], 0, c) for i in range(m)]
        fname = f"ladder_m{m}.json"
        files[fname] = presentation((2,) * m, True, terms)
        calls.append(Call(f"ladder_m.m{m}", ["analyze", fname, "--json"],
                          {"kind": "canonical_order", "order": 2 * math.factorial(m)}))
    for d in LADDER_D:
        a, b, c = coeff(rng), coeff(rng), coeff(rng)
        terms = [([0, 0], d, 1), ([0, 0], 1, a), ([1, 0], 0, b), ([0, 1], 0, c)]
        fname = f"ladder_d{d}.json"
        files[fname] = presentation((2, 2), True, terms)
        calls.append(Call(f"ladder_d.d{d}", ["analyze", fname, "--json"],
                          {"kind": "canonical_order", "order": 2 * (d - 1)}))
    for n in LADDER_N:
        fname = f"ladder_n{n}.json"
        files[fname] = presentation((2, 3), False, [([0, 0], n, 1), ([0, 0], 0, coeff(rng))])
        calls.append(Call(f"ladder_n.n{n}", ["analyze", fname, "--json"],
                          {"kind": "finite_factor", "order": n}))
    return Inputs(files, calls)


# -- automorphism_maps --------------------------------------------------------------

# The ROADMAP degree-8 example: x*y1^2*y2^3 = z^8 + y1*z^3 + y2^2*z + y1 - y2 + 1.
DEG8 = presentation(
    (2, 3), True,
    [([0, 0], 8, 1), ([1, 0], 3, 1), ([0, 2], 1, 1), ([1, 0], 0, 1), ([0, 1], 0, -1),
     ([0, 0], 0, 1)],
)


def _scaling_map(rng: random.Random, weights, d: int) -> dict:
    """A diagonal scaling of y_unit * y_o^k = z^d, over the rationals."""
    u = weights.index(1)
    o = 1 - u
    b, c = coeff(rng), coeff(rng)
    a = c ** d / b ** weights[o]
    return {f"y{o+1}": poly_text([(b, f"y{o+1}")]),
            f"y{u+1}": poly_text([(a, f"y{u+1}")]),
            "z": poly_text([(c, "z")])}


def _automorphism_maps(rng: random.Random, fixtures: dict) -> Inputs:
    files, calls = {"deg8.json": DEG8}, []
    h = poly_text([(coeff(rng), "t*y1*y2"), (coeff(rng), "y1^2"), (coeff(rng), "")])
    calls.append(Call("exp.deg8", ["exp", "deg8.json", h, "--json"],
                      {"kind": "exp", "file": "deg8.json", "h": h}))
    for name in DANIELEWSKI_FIXTURES:
        fname = f"{name}.json"
        spec = fixtures[name]
        files[fname] = spec
        m = len(spec["weights"])
        h = poly_text([(coeff(rng), "y1"), (coeff(rng), f"t*y{m}"), (coeff(rng), "")])
        calls.append(Call(f"exp.{name}", ["exp", fname, h, "--json"],
                          {"kind": "exp", "file": fname, "h": h}))
    for name in DANIELEWSKI_FIXTURES:
        fname = f"{name}.json"
        m = len(fixtures[name]["weights"])
        g = poly_text([(coeff(rng), "x*z"), (coeff(rng), "y1^2"),
                       (coeff(rng), f"y{m}*z^2"), (coeff(rng), "")])
        for i in range(ELEMENT_COUNTS.get(name, 0)):
            calls.append(Call(f"apply_element.{name}.e{i}",
                              ["apply", fname, g, "--element", f"e{i}", "--json"],
                              {"kind": "apply_element", "file": fname, "poly": g,
                               "element": f"e{i}"}))
    for weights, d in (((1, 2), 3), ((3, 1), 4)):
        fname = f"unit_w{weights[0]}{weights[1]}_d{d}.json"
        files[fname] = presentation(weights, False, [([0, 0], d, 1)])
        g = poly_text([(coeff(rng), "y1*z"), (coeff(rng), "y2^2*z"), (coeff(rng), "y1*y2"),
                       (coeff(rng), "")])
        for j in range(4):
            mapping = _scaling_map(rng, weights, d)
            calls.append(Call(f"apply_map.{fname[:-5]}.{j}",
                              ["apply", fname, g, "--map", json.dumps(mapping, sort_keys=True),
                               "--json"],
                              {"kind": "apply_map", "file": fname, "poly": g,
                               "map": mapping}))
    for name in DANIELEWSKI_FIXTURES:
        fname = f"{name}.json"
        weights = fixtures[name]["weights"]
        m = len(weights)
        g = poly_text([(coeff(rng), f"x*{weight_monomial(weights)}*z"),
                       (coeff(rng), "x*z^2"), (coeff(rng), f"y{m}*z^3"), (coeff(rng), "y1")])
        for cmd in ("degree", "gr"):
            calls.append(Call(f"{cmd}.{name}", [cmd, fname, g, "--json"],
                              {"kind": cmd, "file": fname, "poly": g}))
    return Inputs(files, calls)
