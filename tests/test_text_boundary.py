"""The text boundary of every call: loading a presentation file, classifying
it, and printing polynomials and reports.

Loading reads short coefficients straight to integer ratios and packs each
term once; these tests hold it to the Fraction-based reading it replaced.
The seeded corpus in golden/corpus.json pins `analyze --json` on about a
hundred random presentations of every regime, byte for byte.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import danaut
from danaut import CycElem, MultiPoly, cli, make_variety, poly_str, zeta
from danaut.cli import CliError, coeff_ratio, load_spec_file, parse_coeff
from danaut.fmt import scalar_str
from danaut.varieties import SpecError, VarietySpec, presentation_vars
from conftest import FIXTURES, GOLDEN

CORPUS = GOLDEN / "corpus.json"


def _draw_corpus(n: int = 100) -> list:
    """Presentation files drawn from the metamorphic suite's `_presentations()`.

    Every third one gets a unit first weight, which gives the one-unit,
    degenerate and unsupported regimes; every other one writes its integral
    coefficients as JSON ints.  The drawn stream depends on the hypothesis
    version, so the corpus is committed rather than redrawn by the test:
    `python -c "import test_text_boundary as t; t.write_corpus()"` from tests/
    rewrites it together with its digest.
    """
    from conftest import spec_to_dict
    from test_metamorphic import _presentations

    drawn = []

    @settings(max_examples=n, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(_presentations())
    def collect(case):
        drawn.append(case[0])

    collect()
    files, seen = [], set()
    for i, raw in enumerate(drawn):
        data = spec_to_dict(raw)
        if i % 3 == 2:
            data["weights"][0] = 1
        if i % 2:
            for term in data["P"]:
                if "/" not in term["coeff"]:
                    term["coeff"] = int(term["coeff"])
        text = json.dumps(data, sort_keys=True)
        if text not in seen:
            seen.add(text)
            files.append(data)
    return files


def _analyze_outputs(files: list, directory: Path) -> list:
    """(exit code, stdout, stderr) of `analyze --json` on each presentation, in process."""
    outputs = []
    path = directory / "presentation.json"
    for data in files:
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", str(path), "--json"])
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def _digest(outputs: list) -> str:
    h = hashlib.sha256()
    for code, out, err in outputs:
        h.update(f"{code}\n{out}{err}\x00".encode())
    return h.hexdigest()


def write_corpus(directory: str = ".") -> None:
    files = _draw_corpus()
    digest = _digest(_analyze_outputs(files, Path(directory)))
    CORPUS.write_text(json.dumps({"analyze_json_sha256": digest, "presentations": files},
                                 indent=1, sort_keys=True) + "\n")


def test_seeded_corpus_reports_are_byte_identical(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    outputs = _analyze_outputs(corpus["presentations"], tmp_path)
    regimes = {json.loads(out)["regime"] if code == 0 else code for code, out, _ in outputs}
    assert regimes == {"Danielewski", "LineSuspensionAllGe2", "LineSuspensionOneUnit",
                       "Degenerate", 2}
    assert all(code in (0, 2) for code, _, _ in outputs)
    assert _digest(outputs) == corpus["analyze_json_sha256"]


# -- loading -----------------------------------------------------------------------


def _outcome(read, c):
    """The value read, or the error's type and line."""
    try:
        value = read(c)
    except (CliError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):  # coeff_ratio: int numerator over a positive int
        p, q = value
        assert type(p) is int and type(q) is int and q > 0, value
        value = Fraction(p, q)
    return value


_digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.sampled_from(["0007", "9" * 40, "1" + "0" * 39, "1" * 41, "0" * 41 + "3",
                     "9" * 4300, "1" * 4301]),
)
_spaces = st.sampled_from(["", " ", "\t", "\n ", "\u2003"])


@st.composite
def _coeff_texts(draw):
    text = draw(st.sampled_from(["", "+", "-"])) + draw(_digits)
    tail = draw(st.sampled_from(["", "/", "/", "e", "."]))
    if tail == "/":
        text += "/" + draw(st.one_of(_digits, st.sampled_from(["0", "00", "-0", "-3", "+2", ""])))
    elif tail == "e":
        text += draw(st.sampled_from(["e5", "E-3", "e+0", "e4300", "e4301", "e1_0"]))
    elif tail == ".":
        text += "." + draw(st.text("0123456789", min_size=1, max_size=3))
    if draw(st.booleans()):  # an underscore somewhere, legal between digits only
        i = draw(st.integers(0, len(text)))
        text = text[:i] + "_" + text[i:]
    if draw(st.booleans()):
        text = draw(_spaces) + text + draw(_spaces)
    if draw(st.integers(0, 4)) == 0:  # Arabic-Indic or fullwidth digits
        table = draw(st.sampled_from(["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                                      "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]))
        text = text.translate(str.maketrans("0123456789", table))
    return text


_coeffs = st.one_of(
    _coeff_texts(),
    st.integers(-(10**45), 10**45),
    st.sampled_from([10**40 - 1, 10**40, 1 - 10**40, -(10**40), 10**4299, 10**4300, 0]),
    st.sampled_from([None, [], {}, "", "1/2/3", "0x10", "inf", "nan"]),
)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_coeffs)
@example("3/0")
@example("3/00")
@example("-0/-0")
@example("1" * 40 + "/" + "9" * 40)
@example("1" * 41 + "/1")
def test_coefficient_fast_path_matches_parse_coeff(c):
    """Every coefficient reads to the same value, or fails with the same line."""
    assert _outcome(coeff_ratio, c) == _outcome(parse_coeff, c), c


_file_coeffs = st.one_of(
    st.integers(-4, 4),
    st.sampled_from(["3/4", "-2/6", "0", "-0", "00", "0.5", "1e2", " 7 ", "10/5", "1/0", "2_0"]),
)


@st.composite
def _presentation_files(draw):
    """Presentation files of every regime, monic or not, with repeated and
    cancelling terms and zero coefficients."""
    m = draw(st.integers(1, 3))
    d = draw(st.integers(0, 5))
    lead = draw(st.sampled_from([1, "1", "+1", "01", "2/2", "1/1", 2, "1/2"]))
    records = [{"y_exponents": [0] * m, "z_exponent": d, "coeff": lead}]
    for _ in range(draw(st.integers(0, 6))):
        records.append({
            "y_exponents": [draw(st.integers(0, 2)) for _ in range(m)],
            "z_exponent": draw(st.integers(0, d + 1)),
            "coeff": draw(_file_coeffs),
        })
    return {
        "weights": [draw(st.integers(1, 4)) for _ in range(m)],
        "x_present": draw(st.booleans()),
        "P": draw(st.permutations(records)),
    }


def _reference_outcome(data: dict):
    """(P, d, regime, normalized) read through Fractions and P's terms, as
    loading and classifying did before they read packed keys; or the error."""
    weights, x_present = data["weights"], data["x_present"]
    vars = presentation_vars(len(weights), x_present)
    try:
        terms: dict = {}
        for rec in data["P"]:
            key = (0,) * x_present + tuple(rec["y_exponents"]) + (rec["z_exponent"],)
            terms[key] = terms.get(key, Fraction(0)) + parse_coeff(rec["coeff"])
        P = MultiPoly(vars, terms)
        if P.is_zero():
            raise SpecError("P must be nonzero")
        d = max(e[-1] for e in P.terms)
        lead = (0,) * (len(vars) - 1) + (d,)
        if P.coeff(lead) != 1 or any(e[-1] == d and e != lead for e in P.terms):
            raise SpecError("P must be monic in z (leading z-term with coefficient 1 and no y part)")
        regime = make_variety(weights, x_present, P).regime  # the regime table is unchanged
        if d < 2:
            raise CliError("z-degree must be at least 2")
    except (CliError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return P, d, regime, all(e[-1] != d - 1 for e in P.terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_presentation_files())
def test_loaded_spec_matches_the_fraction_reading(tmp_path, data):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(data))
    try:
        spec = load_spec_file(str(path))
        loaded = spec.P, spec.d, spec.regime, spec.is_normalized()
    except (CliError, ValueError) as exc:
        loaded = type(exc).__name__, str(exc)
    assert loaded == _reference_outcome(data), data


_FLOAT_MATH = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "copysign", "cos",
    "cosh", "degrees", "dist", "e", "erf", "erfc", "exp", "exp2", "expm1", "fabs", "fmod",
    "frexp", "fsum", "gamma", "hypot", "inf", "ldexp", "lgamma", "log", "log10", "log1p",
    "log2", "modf", "nan", "nextafter", "pi", "pow", "radians", "remainder", "sin", "sinh",
    "sqrt", "tan", "tanh", "tau", "ulp",
}


def test_source_has_no_floating_point():
    """No float literal, float() call or float-valued math function in the library."""
    found = []
    for path in sorted(Path(danaut.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(n, 'lineno', 0)}"
            if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex)):
                found.append(where)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "float":
                found.append(where)
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id == "math" and n.attr in _FLOAT_MATH):
                found.append(where)
            elif isinstance(n, ast.ImportFrom) and n.module in ("math", "cmath"):
                found += [where for a in n.names if a.name in _FLOAT_MATH or a.name == "*"]
            elif isinstance(n, ast.Import) and any(a.name == "cmath" for a in n.names):
                found.append(where)
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_private_attributes_are_read_only_where_they_are_set():
    """A single-underscore attribute is read only in a module that defines it
    in a class body (a method, a field or a __slots__ entry) or assigns it.
    So a polynomial's packed keys and numerators (._num, ._den) never leave
    poly, a cyclotomic element's stored forms (._rp, ._coords) never leave
    cyclotomic, and a spec's relations by context never leave varieties."""
    owners, reads = {}, []
    for path in sorted(Path(danaut.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.ClassDef):
                for item in n.body:
                    if isinstance(item, ast.FunctionDef):
                        names = [item.name]
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        names = [item.target.id]
                    elif isinstance(item, ast.Assign):
                        names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                        if names == ["__slots__"]:
                            names = [e.value for e in item.value.elts]
                    else:
                        names = []
                    for name in filter(_private, names):
                        owners.setdefault(name, set()).add(path.stem)
            elif isinstance(n, ast.Attribute) and _private(n.attr):
                if isinstance(n.ctx, ast.Store):
                    owners.setdefault(n.attr, set()).add(path.stem)
                else:
                    reads.append((path.stem, n.lineno, n.attr))
    assert [f"{module}.py:{line} .{name}" for module, line, name in reads
            if module not in owners.get(name, ())] == []
    assert {name: owners[name] for name in ("_num", "_den", "_rp", "_coords", "_relations")} == {
        "_num": {"poly"}, "_den": {"poly"}, "_rp": {"cyclotomic"}, "_coords": {"cyclotomic"},
        "_relations": {"varieties"},
    }


def test_no_module_imports_a_private_name():
    """Underscored names stay in their module: no `from .mod import _name`."""
    found = []
    for path in sorted(Path(danaut.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.ImportFrom) and (n.level or n.module.startswith("danaut")):
                found += [f"{path.name}:{n.lineno} {a.name}" for a in n.names if a.name.startswith("_")]
    assert found == []


def _names_by_function(node, scope, found):
    """(enclosing function, name) of every name and attribute under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            found.append((scope, child.id))
        elif isinstance(child, ast.Attribute):
            found.append((scope, child.attr))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _names_by_function(child, inner, found)
    return found


def test_one_smith_form_reader():
    """Only lattice._smith names smith_normal_form: kernels, group types and
    torus solutions read their diagonal, rank and transforms from it."""
    readers = []
    for path in sorted(Path(danaut.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        readers += [f"{path.stem}.{scope}" for scope, name in _names_by_function(tree, "", [])
                    if name == "smith_normal_form"]
    assert readers == ["lattice._smith"]


def test_every_public_function_is_named_in_the_library():
    """Each public top-level function, and each public method of a public
    class, is named in the library outside its own definition.  The match is
    by name alone; re-exports in __init__ do not count, and main and the
    cmd_* subcommands are reached through the parser's dispatch."""
    defined, named = [], set()
    for path in sorted(Path(danaut.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined.append((path.stem, top.name))
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                defined += [(f"{path.stem}.{top.name}", f.name) for f in top.body
                            if isinstance(f, ast.FunctionDef)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
    unused = [f"{owner}.{name}" for owner, name in defined
              if not name.startswith("_") and name != "main" and not name.startswith("cmd_")
              and name not in named]
    assert unused == []


# -- printing ----------------------------------------------------------------------


def _reference_scalar(x) -> str:
    """scalar_str as it read through Fraction's own printing: r*zeta_N^a
    without a zeta_N^0 factor, and a coordinate vector as a signed sum."""
    if isinstance(x, CycElem):
        def times_root(r, a):
            if a == 0:
                return str(Fraction(r))
            root = f"zeta{x.order}" if a == 1 else f"zeta{x.order}^{a}"
            return root if r == 1 else "-" + root if r == -1 else f"{r}*{root}"

        rp = x.as_root_power()
        if rp is not None:
            return times_root(*rp)
        terms = [times_root(c, j) for j, c in enumerate(x.coords) if c]
        return "(" + " + ".join(terms).replace(" + -", " - ") + ")"
    return str(Fraction(x))


def _reference_poly_str(f: MultiPoly) -> str:
    """poly_str over the Fraction terms, highest total degree first, then lexicographically."""
    if f.is_zero():
        return "0"
    parts = []
    for exps, c in sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(f.vars, exps) if e)
        text = _reference_scalar(c)
        parts.append(text if not mono else mono if text == "1" else
                     f"-{mono}" if text == "-1" else f"{text}*{mono}")
    return parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in parts[1:])


_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4, 6, 12]))
_scalars = st.one_of(
    _rationals,
    st.builds(lambda r, n, a: r * zeta(n, a), _rationals, st.sampled_from([3, 4, 5, 12]),
              st.integers(0, 11)),
    st.builds(lambda r, n: zeta(n) + r, _rationals, st.sampled_from([5, 7])),
)
_VARS = ("x", "y1", "z")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _scalars, max_size=5),
       st.booleans())
@example({(0, 0, 0): Fraction(6, 4), (1, 0, 2): Fraction(-2, 4), (0, 1, 0): Fraction(1)}, False)
@example({(0, 0, 0): Fraction(-3), (0, 0, 1): Fraction(1, 1)}, False)
def test_poly_str_matches_the_fraction_rendering(terms, rational_only):
    """Rational numerators over one denominator, negative and reducible ones,
    a denominator of 1, the constant term, and cyclotomic coefficients."""
    if rational_only:
        terms = {e: c for e, c in terms.items() if not isinstance(c, CycElem)}
    f = MultiPoly(_VARS, terms)
    assert poly_str(f) == _reference_poly_str(f)
    for c in terms.values():
        assert scalar_str(c) == _reference_scalar(c)


# -- counters ----------------------------------------------------------------------


def test_prepare_reads_no_terms_view(monkeypatch):
    """Loading, classifying and normalizing every fixture read P's packed
    keys only; the {exponent tuple: Fraction} view is never built."""
    reads = []
    terms = MultiPoly.terms
    monkeypatch.setattr(MultiPoly, "terms", property(lambda f: reads.append(f) or terms.fget(f)))
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert len(fixtures) == 18
    args = argparse.Namespace(no_normalize=False)
    specs = [cli.prepare(str(fx), args) for fx in fixtures]
    assert reads == []
    assert specs[0][1].P.terms and len(reads) == 1  # the count is live


def test_degree_and_gr_read_no_terms_view(monkeypatch, capsys):
    """degree and gr split the normal form by weight straight from the
    packed keys; walking the terms view, they read it once and twice.
    They build the normal-form rule only: F and the kernel monomial M are
    built in no context."""
    reads = []
    terms = MultiPoly.terms
    monkeypatch.setattr(MultiPoly, "terms", property(lambda f: reads.append(f) or terms.fget(f)))
    specs = []
    prepare = cli.prepare

    def recording(path, args):
        raw, spec = prepare(path, args)
        specs.append(spec)
        return raw, spec

    monkeypatch.setattr(cli, "prepare", recording)
    bf08 = str(FIXTURES / "bf08.json")
    f = "3*x*y1^2*y2^2*z - 1/2*x*z^2 + 2/3*y2*z^3 + y1"
    counts = {}
    for command in ("degree", "gr"):
        reads.clear()
        assert cli.main([command, bf08, f]) == 0
        counts[command] = len(reads)
    assert capsys.readouterr().out == "5\n-1/2*x*z^2\n"
    assert counts == {"degree": 0, "gr": 0}
    for spec in specs:
        assert not {"defining_polynomial", "kernel_monomial"} & vars(spec).keys()
        built = [sorted(vars(r).keys() & {"rule", "F", "M"}) for r in spec._relations.values()]
        assert built == [["rule"]]
    assert MultiPoly.zero(("z",)).terms == {} and len(reads) == 1  # the count is live


def test_normalized_analyze_renders_the_equation_once(monkeypatch, capsys):
    path = str(FIXTURES / "s7_e4.json")
    assert load_spec_file(path).is_normalized()
    calls = []
    render = VarietySpec.equation_str
    monkeypatch.setattr(VarietySpec, "equation_str", lambda spec: calls.append(spec) or render(spec))
    assert cli.main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equation"] == report["normalized_equation"]
    assert len(calls) == 1
