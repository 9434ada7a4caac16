"""Untimed output checks.

Reports are checked against the committed goldens, closed-form group
orders and cross-call consistency.  Every ``exp``, ``apply``, ``degree``
and ``gr`` result is recomputed independently of danaut with sympy (used
here only as an oracle): membership in the defining ideal is decided by
reduction modulo F, which is a Groebner basis of the principal ideal it
generates; roots of unity zeta_N become powers of one symbol w reduced
modulo the cyclotomic polynomial Phi_L(w).
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

import sympy

ZETA = re.compile(r"zeta(\d+)(?:\^(\d+))?")


class Ring:
    """The quotient ring of one presentation file, in sympy."""

    def __init__(self, spec: dict):
        self.weights = spec["weights"]
        m = len(self.weights)
        self.x_present = spec["x_present"]
        self.ys = tuple(sympy.Symbol(f"y{i+1}") for i in range(m))
        self.z = sympy.Symbol("z")
        self.x = sympy.Symbol("x")
        self.w = sympy.Symbol("w")
        self.t = sympy.Symbol("t")
        names = {f"y{i+1}": y for i, y in enumerate(self.ys)}
        names.update(z=self.z, x=self.x, w=self.w, t=self.t)
        self.names = names
        P = sum(
            sympy.Rational(str(Fraction(rec["coeff"])))
            * sympy.Mul(*(y**e for y, e in zip(self.ys, rec["y_exponents"])))
            * self.z ** rec["z_exponent"]
            for rec in spec["P"]
        )
        self.P = sympy.expand(P)
        if sympy.Poly(self.P, self.z).coeff_monomial(
            self.z ** (sympy.degree(self.P, self.z) - 1)
        ) != 0:
            raise ValueError("checks need a normalized presentation")
        self.M = sympy.Mul(*(y**k for y, k in zip(self.ys, self.weights)))
        self.F = self.x * self.M - self.P if self.x_present else self.M - self.P
        self.gens = ((self.x,) if self.x_present else ()) + tuple(self.ys) + (self.z,)

    def parse(self, text: str, L: int = 1):
        """A danaut expression, with zeta_N read as w^(L/N)."""
        def root(match):
            n, e = int(match.group(1)), int(match.group(2) or 1)
            if L % n:
                raise ValueError(f"zeta{n} outside the field of order {L}")
            return f"w**{e * (L // n)}"

        return sympy.expand(
            sympy.sympify(ZETA.sub(root, text).replace("^", "**"), locals=self.names)
        )

    def member(self, expr, L: int = 1) -> bool:
        """Whether expr lies in (F) (plus Phi_L(w) when L > 1)."""
        expr = sympy.expand(expr)
        if expr == 0:
            return True
        basis, gens = [self.F], self.gens + (self.t,)
        if L > 1:
            # LT(Phi_L) = w^phi(L) is coprime to LT(F), so this is still a
            # Groebner basis.
            basis.append(sympy.cyclotomic_poly(L, self.w))
            gens += (self.w,)
        _, rem = sympy.reduced(expr, basis, *gens, order="lex")
        return rem == 0


def _sigma_from_cycles(text: str, m: int) -> list:
    sigma = list(range(m))
    for cyc in re.findall(r"\(([\d,]+)\)", text):
        idx = [int(i) - 1 for i in cyc.split(",")]
        for a, b in zip(idx, idx[1:] + idx[:1]):
            sigma[a] = b
    return sigma


def _scalar(entry: dict, w, L: int):
    if "zeta" in entry:
        n, a = entry["zeta"]
        return sympy.Rational(entry.get("rat", "1")) * w ** (a * (L // n))
    if "coords" in entry:
        n = entry["order"]
        return sum(sympy.Rational(c) * w ** (j * (L // n)) for j, c in enumerate(entry["coords"]))
    return sympy.Rational(entry["rat"])


class Checker:
    """Checks outputs of one workload's calls; returns an error string or ''."""

    def __init__(self, root: str, input_dir: str, files: dict, run_cli):
        self.root = root
        self.input_dir = input_dir
        self.files = files
        self.run_cli = run_cli  # argv -> (code, stdout, stderr)
        self.rings: dict = {}
        self.reports: dict = {}

    def ring(self, fname: str) -> Ring:
        if fname not in self.rings:
            self.rings[fname] = Ring(self.files[fname])
        return self.rings[fname]

    def report(self, fname: str) -> dict:
        """The analyze report of a file, taken outside the timed calls."""
        if fname not in self.reports:
            code, out, err = self.run_cli(["analyze", os.path.join(self.input_dir, fname), "--json"])
            if code != 0:
                raise ValueError(f"analyze {fname} exited {code}: {err.strip()}")
            self.reports[fname] = json.loads(out)
        return self.reports[fname]

    def check(self, call, out: str) -> str:
        kind = call.check["kind"]
        try:
            return getattr(self, "_" + kind)(call, out)
        except Exception as exc:  # any failure to verify counts as a failed call
            return f"{kind} check raised {type(exc).__name__}: {exc}"

    # -- analyze_corpus ------------------------------------------------------------

    def _golden(self, call, out):
        path = os.path.join(self.root, "tests", "golden", call.check["fixture"] + ".golden.json")
        with open(path, encoding="utf-8") as fh:
            if fh.read() != out:
                return f"report differs from {os.path.relpath(path, self.root)}"
        return ""

    def _report(self, call, out):
        r = json.loads(out)
        want = call.check
        if r["regime"] != want["regime"]:
            return f"regime {r['regime']} != {want['regime']}"
        if "irreducible" in want and r["invariants"]["irreducible"] != want["irreducible"]:
            return "irreducibility differs from the construction"
        if "genus" in want and r["invariants"]["genus"] != want["genus"]:
            return f"genus {r['invariants']['genus']} != {want['genus']}"
        G = r["groups"].get("G")
        if G and G["elements"] is not None:
            if len(G["elements"]) != G["order"]:
                return "element list length differs from the order"
            if len({e["signature"] for e in G["elements"]}) != G["order"]:
                return "element list has repeats"
        return ""

    def _irreducible(self, call, out):
        got = json.loads(out)["irreducible"]
        want = call.check.get("expect")
        if want is None:
            want = self.report(call.check["file"])["invariants"]["irreducible"]
        return "" if got == want else f"irreducible {got} != {want}"

    def _genus(self, call, out):
        got = json.loads(out)["genus"]
        return "" if got == call.check["expect"] else f"genus {got} != {call.check['expect']}"

    # -- group_ladders -------------------------------------------------------------

    def _canonical_order(self, call, out):
        """Closed-form order; elements listed exactly up to danaut's table bound."""
        from danaut.autgroup import MAX_TABLE_ORDER

        G = json.loads(out)["groups"]["G"]
        want = call.check["order"]
        if G is None or G["order"] != want or G["summary"] != f"finite of order {want}":
            return f"canonical group {G and G['summary']!r}, expected order {want}"
        listed = G["elements"] is not None
        if listed != (want <= MAX_TABLE_ORDER):
            return f"element list {'present' if listed else 'missing'} at order {want}"
        if listed and len(G["elements"]) != want:
            return "element list length differs from the order"
        return ""

    def _finite_factor(self, call, out):
        r = json.loads(out)
        n = call.check["order"]
        s = r["structure"]
        if s.get("factors") != [n] or s.get("rank") != 1:
            return f"structure {r['structure_pretty']!r}, expected K^x x Z{n}"
        return ""

    # -- automorphism_maps -----------------------------------------------------------

    def _exp(self, call, out):
        """z -> z + h*M, y and t fixed, and both maps send F into (F).

        With y and z images fixed, x*M = P pins the x image down, so this
        identifies exp(h*D) and its inverse exp(-h*D) exactly.
        """
        R = self.ring(call.check["file"])
        payload = json.loads(out)
        h = R.parse(call.check["h"])
        for key, sign in (("images", 1), ("inverse_images", -1)):
            img = {name: R.parse(text) for name, text in payload[key].items()}
            for y in R.ys:
                if img[str(y)] != y:
                    return f"{key}: {y} is not fixed"
            if sympy.expand(img["z"] - R.z - sign * h * R.M) != 0:
                return f"{key}: z image is not z {'+' if sign > 0 else '-'} h*M"
            image_of_F = R.F.subs({g: img[str(g)] for g in R.gens}, simultaneous=True)
            if not R.member(image_of_F):
                return f"{key}: the image of F is not in the ideal"
        return ""

    def _apply_element(self, call, out):
        """M(phi y)^a * result == sum_j g_j(phi) * P(phi)^j * M(phi y)^(a-j) mod F."""
        fname = call.check["file"]
        R = self.ring(fname)
        elements = self.report(fname)["groups"]["G"]["elements"]
        entry = next(e for e in elements if e["id"] == call.check["element"])
        orders = [s["zeta"][0] for s in entry["scalars"] if "zeta" in s]
        orders += [s["order"] for s in entry["scalars"] if "coords" in s]
        result_text = json.loads(out)["result"]
        orders += [int(n) for n, _ in ZETA.findall(result_text)]
        L = math.lcm(1, *orders)
        m = len(R.ys)
        sigma = _sigma_from_cycles(entry["sigma"], m)
        t = [_scalar(s, R.w, L) for s in entry["scalars"]]
        phi = {R.ys[i]: t[i] * R.ys[sigma[i]] for i in range(m)}
        phi[R.z] = t[m] * R.z
        M_phi = R.M.subs(phi, simultaneous=True)
        P_phi = R.P.subs(phi, simultaneous=True)
        g = sympy.Poly(R.parse(call.check["poly"]), R.x)
        a = g.degree()
        target = sum(
            coeff.subs(phi, simultaneous=True) * P_phi**j * M_phi ** (a - j)
            for (j,), coeff in g.terms()
        )
        result = R.parse(result_text, L)
        if not R.member(M_phi**a * result - target, L):
            return "result differs from the element applied to the polynomial"
        return ""

    def _apply_map(self, call, out):
        R = self.ring(call.check["file"])
        phi = {R.names[k]: R.parse(v) for k, v in call.check["map"].items()}
        expected = R.parse(call.check["poly"]).subs(phi, simultaneous=True)
        result = R.parse(json.loads(out)["result"])
        if not R.member(result - expected):
            return "result differs from the scaling applied to the polynomial"
        return ""

    def _leading(self, call) -> tuple:
        """(filtration degree, leading form) of the call's polynomial.

        The remainder modulo F under lex with x first is the normal form (no
        monomial divisible by x*M); x weighs d, z weighs 1 and the y's 0.
        """
        R = self.ring(call.check["file"])
        _, rem = sympy.reduced(R.parse(call.check["poly"]), [R.F], *R.gens, order="lex")
        d = sympy.degree(R.P, R.z)
        terms = [(mono[0] * d + mono[-1], mono, c)
                 for mono, c in sympy.Poly(rem, *R.gens).terms()]
        top = max(w for w, _, _ in terms)
        lead = sum(c * sympy.Mul(*(g**e for g, e in zip(R.gens, mono)))
                   for w, mono, c in terms if w == top)
        return top, lead

    def _degree(self, call, out):
        want, _ = self._leading(call)
        got = json.loads(out)["degree"]
        return "" if got == want else f"degree {got} != {want}"

    def _gr(self, call, out):
        _, want = self._leading(call)
        got = self.ring(call.check["file"]).parse(json.loads(out)["leading_form"])
        return "" if sympy.expand(got - want) == 0 else "leading form differs"
