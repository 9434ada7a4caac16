"""Command-line driver.

Subcommands: analyze | exp | apply | degree | gr | irreducible | genus.
Input is a JSON presentation file with exact rational coefficients; output
is a human-readable summary or, with --json, a byte-stable report.

Exit codes: 0 success, 1 parse/validation error, 2 unsupported regime,
3 failed internal check (an AssertionError), 4 any other unexpected error.
Every error exits with one line on stderr, never a traceback.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from types import SimpleNamespace

from .autgroup import aut_structure, canonical_group, group_element_map
from .derivations import GeneratorMap, exp_replica, gr_leading_form, monomial_inverse, tilde_degree
from .poly import MultiPoly, free_symbols, parse_poly, poly_str
from .report import build_report, element_signature
from .varieties import (
    REGIME_DANIELEWSKI,
    REGIME_DEGENERATE,
    REGIME_UNSUPPORTED,
    VarietySpec,
    irreducibility,
    make_variety,
    normalize,
    presentation_vars,
    rigidity,
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


MAX_DECIMAL_EXPONENT = 4300  # CPython's default limit on the digits of an int read from text
_TOO_MANY_DIGITS = 10**MAX_DECIMAL_EXPONENT  # the least int with more than 4300 digits


def parse_coeff(text: str) -> Fraction:
    """An exact rational coefficient with at most 4300 digits in its
    numerator and in its denominator."""
    text = str(text)
    shown = repr(text) if len(text) <= 40 else repr(text[:30]) + "..."
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*$", text)  # Fraction would build 10^exponent
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise CliError(f"coefficient {shown} has a decimal exponent above 4300 in magnitude")
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        runs = re.findall(r"\d+", text.replace("_", ""))
        if max(map(len, runs), default=0) <= MAX_DECIMAL_EXPONENT:  # else int() refused a run
            raise CliError(f"coefficient {shown} is not an exact rational: {exc}")
        c = None
    if c is None or abs(c.numerator) >= _TOO_MANY_DIGITS or c.denominator >= _TOO_MANY_DIGITS:
        raise CliError(f"coefficient {shown} has more than 4300 digits")
    return c


_SHORT = 10**40  # ints and "p" or "p/q" strings of at most 40 digits are read directly
_RATIO = re.compile(r"([-+]?[0-9]{1,40})(?:/(?=0*[1-9])([0-9]{1,40}))?")  # q is nonzero


def coeff_ratio(c) -> tuple:
    """(numerator, positive denominator) of a coefficient read from JSON;
    anything but a short int or a short "p" or "p/q" string goes through
    parse_coeff, with its bounds and messages."""
    if type(c) is int and -_SHORT < c < _SHORT:
        return c, 1
    match = type(c) is str and _RATIO.fullmatch(c)
    if match:
        return int(match[1]), int(match[2] or 1)
    return parse_coeff(c).as_integer_ratio()


def _parse_json(text: str, source: str):
    """The value of a JSON text; every error is one line naming source."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CliError(f"{source} is not valid JSON: {exc}")
    except ValueError:  # the one other error of json.loads: int() refuses the literal
        raise CliError(f"{source} has an integer literal of more than 4300 digits")


def load_spec_file(path: str) -> VarietySpec:
    """Parse and check a presentation file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    data = _parse_json(text, path)
    if not isinstance(data, dict):
        raise CliError("presentation file must be a JSON object")
    if "options" in data:
        raise CliError('presentation files take no "options" key; use the --no-normalize flag')
    weights = data.get("weights")
    # bool is an int subclass: JSON true/false is no weight, exponent or coefficient
    if not isinstance(weights, list) or not all(
        type(k) is int and k >= 1 for k in weights
    ):
        raise CliError("weights must be a list of positive integers")
    x_present = data.get("x_present", False)
    if not isinstance(x_present, bool):
        raise CliError("x_present must be a boolean")
    terms = data.get("P")
    if not isinstance(terms, list) or not terms:
        raise CliError("P must be a nonempty list of term records")
    m = len(weights)
    x_part = (0,) * x_present  # the exponent of x: P is free of x
    ratios = []
    for rec in terms:
        if not isinstance(rec, dict):
            raise CliError("each P term must be an object")
        ye = rec.get("y_exponents")
        ze = rec.get("z_exponent")
        if not isinstance(ye, list) or len(ye) != m or not all(
            type(e) is int and e >= 0 for e in ye
        ):
            raise CliError(
                f"y_exponents must list {m} nonnegative integers (one per weight)"
            )
        if type(ze) is not int or ze < 0:
            raise CliError("z_exponent must be a nonnegative integer")
        c = rec.get("coeff", "1")
        if isinstance(c, (bool, float)):
            raise CliError(
                f"coefficient {c!r} must be an integer or a string such as \"3/4\""
            )
        ratios.append((x_part + tuple(ye) + (ze,), *coeff_ratio(c)))
    P = MultiPoly.from_ratios(presentation_vars(m, x_present), ratios)
    spec = make_variety(weights, x_present, P)
    if spec.d < 2:
        raise CliError("z-degree must be at least 2")
    return spec


def prepare(path: str, args) -> tuple:
    """Load, normalize, and gate on the regime; returns (raw, spec)."""
    raw = load_spec_file(path)
    if args.no_normalize and not raw.is_normalized():
        raise CliError(
            "presentation is not normalized (nonzero z^(d-1) coefficient) and "
            "--no-normalize was given"
        )
    spec = normalize(raw)  # the identity on a normalized presentation
    if spec.regime == REGIME_UNSUPPORTED:
        raise CliError(f"unsupported presentation: {spec.regime_note}", code=2)
    return raw, spec


def _emit(args, payload: dict, text) -> int:
    """A subcommand's one exit: payload under --json, else text (a list is lines)."""
    if args.json:
        emit_json(payload)
    else:
        print("\n".join(text) if isinstance(text, list) else text)
    return 0


def emit_json(payload: dict) -> None:
    """Write payload as json.dumps(sort_keys=True, indent=2, ensure_ascii=False) would."""
    out: list = []
    _json_chunks(payload, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _json_chunks(x, newline: str, out: list) -> None:
    # json.dumps with indent runs its pure-Python encoder; this writer covers
    # the report's types (newline carries the current indentation)
    if isinstance(x, str):
        out.append(encode_basestring(x))
    elif x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring(key) + ": ")
            _json_chunks(x[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def cmd_analyze(args) -> int:
    raw, spec = prepare(args.spec, args)
    report = build_report(raw, spec, aut_structure(spec))
    full = spec.regime != REGIME_DEGENERATE  # the line prints no invariant lines
    if args.json:
        return _emit(args, report, None)  # builds no text lines
    lines = [f"regime: {report['regime']}", f"equation: {report['normalized_equation']}"]
    if full:
        if report["normalization_shift"]:
            lines.append(f"normalized via z -> z - ({report['normalization_shift']})")
        inv, groups = report["invariants"], report["groups"]
        lines.append(f"irreducible: {inv['irreducible']}   rigid: {inv['rigid']}")
        if inv["genus"] is not None:
            lines.append(f"genus: {inv['genus']}")
        lines.append(f"ML generators: {', '.join(inv['ml_generators']) or '(all of the ring)'}")
        lines += [f"{key}: {groups[key]['type']['pretty']}"
                  for key in ("H", "D", "Dbar", "Dhat") if groups.get(key)]
        if groups["S"]:
            lines.append(f"S: {groups['S']['pretty']}")
        G = groups["G"]
        if G:
            lines.append(f"canonical group: {G['summary']}")
            lines += [f"  {e['id']}: {e['signature']}" for e in G["elements"] or ()]
            if G["splits_note"]:
                lines.append(f"  {G['splits_note']}")
    lines.append(f"Aut structure: {report['structure_pretty']}")
    if full:
        verdicts = "verdicts: commutative={commutative} torus={torus} solvable={solvable}"
        lines += [verdicts.format(**report["verdicts"]), f"citations: {', '.join(report['citations'])}"]
    lines += [f"warning: {w}" for w in report["warnings"]]
    return _emit(args, report, lines)


def cmd_exp(args) -> int:
    raw, spec = prepare(args.spec, args)
    extra = free_symbols(args.h) - set(spec.vars)
    h = parse_poly(args.h, spec.vars + tuple(sorted(extra)))
    gm = exp_replica(spec, h)  # verified at construction
    images = {name: poly_str(gm.images[name]) for name in spec.vars}
    inverse = {name: poly_str(gm.inverse_images[name]) for name in spec.vars}
    warnings = _exp_warnings(spec)
    lines = [f"{name} -> {images[name]}" for name in spec.vars] + ["inverse:"]
    lines += [f"{name} -> {inverse[name]}" for name in spec.vars]
    lines += [f"warning: {w}" for w in warnings]
    payload = {"images": images, "inverse_images": inverse, "warnings": warnings}
    return _emit(args, payload, lines)


def _exp_warnings(spec: VarietySpec) -> list:
    # A widely circulated form of the m=1, w=2, d=3 example maps z to z+y*h;
    # that variant does not preserve the defining ideal.  The canonical
    # derivation sends z to the full non-unit weight monomial, and the maps
    # emitted here follow it (ideal preservation is checked above).
    if spec.x_present and spec.weights == (2,) and spec.d == 3:
        return [
            "the emitted map uses the canonical derivation image of z (the "
            "weight monomial y1^2); a commonly printed variant with z -> z + "
            "y1*h does not preserve the defining ideal"
        ]
    return []


def _find_element(elements: list, name: str):
    """The (sigma, scalars) element named by its report id e<i> or its signature."""
    if name[:1] == "e" and name[1:].isdecimal():
        i = int(name[1:])
        if name == f"e{i}" and i < len(elements):
            return elements[i]
    for sigma, t in elements:
        if element_signature(sigma, t) == name:
            return sigma, t
    return None


def cmd_apply(args) -> int:
    raw, spec = prepare(args.spec, args)
    f = parse_poly(args.poly, spec.vars)
    if args.element:
        G = canonical_group(spec) if spec.regime == REGIME_DANIELEWSKI else None
        if G is None or G.elements is None:
            raise CliError("no enumerated elements available for this presentation")
        element = _find_element(G.elements, args.element)
        if element is None:
            raise CliError(f"unknown element identifier {args.element!r}")
        try:
            gm = group_element_map(spec, *element)  # verified at construction
        except ValueError as exc:
            raise CliError(f"element {args.element!r} failed verification: {exc}")
    elif args.map:
        mapping = _parse_json(args.map, "--map")
        if not isinstance(mapping, dict):
            raise CliError("--map must be a JSON object of generator images")
        for name, text in mapping.items():
            if name not in spec.vars:
                raise CliError(f"--map gives an image for unknown generator {name!r}")
            if not isinstance(text, str):
                raise CliError(f"--map image of {name} must be a polynomial string")
        images = {}
        for name in spec.vars:
            if name not in mapping:
                raise CliError(f"--map is missing an image for {name}")
            images[name] = parse_poly(mapping[name], spec.vars)
        rejected = CliError("the supplied map is not a verified automorphism")
        inverse = monomial_inverse(spec, images)
        if inverse is None:
            raise rejected
        try:
            gm = GeneratorMap(spec, images, inverse)  # verified at construction
        except ValueError:
            raise rejected
    else:
        raise CliError("one of --element or --map is required")
    result = poly_str(gm.apply_to(f))
    return _emit(args, {"result": result}, result)


def cmd_degree(args) -> int:
    raw, spec = prepare(args.spec, args)
    f = parse_poly(args.poly, spec.vars)
    deg = tilde_degree(f, spec)
    return _emit(args, {"degree": deg}, deg)


def cmd_gr(args) -> int:
    raw, spec = prepare(args.spec, args)
    f = parse_poly(args.poly, spec.vars)
    lead = poly_str(gr_leading_form(f, spec))
    return _emit(args, {"leading_form": lead}, lead)


def cmd_irreducible(args) -> int:
    raw, spec = prepare(args.spec, args)
    irr = irreducibility(spec)
    payload = {
        "irreducible": not irr.reducible,
        "l": irr.l,
        "Q": poly_str(irr.Q) if irr.Q is not None else None,
        "note": irr.note,
    }
    if irr.reducible:
        text = f"reducible: l={irr.l}, Q = {payload['Q']}"
    else:
        text = f"irreducible ({irr.note})"
    return _emit(args, payload, text)


def cmd_genus(args) -> int:
    raw, spec = prepare(args.spec, args)
    rig = rigidity(spec)  # the genus analyze reports
    if rig.genus is None:
        raise CliError("genus needs a smooth irreducible curve y1^k = P(z) or a line "
                       f"({rig.reason})")
    return _emit(args, {"genus": rig.genus}, rig.genus)


_COMMANDS = {  # command: (positional arguments, options that take a value, what it does)
    "analyze": (("spec",), (), "full invariant and structure report"),
    "exp": (("spec", "h"), (), "exponential automorphism of a kernel element H"),
    "apply": (("spec", "poly"), ("--element", "--map"), "apply a group element or a JSON map to POLY"),
    "degree": (("spec", "poly"), (), "filtration degree of POLY"),
    "gr": (("spec", "poly"), (), "leading form of POLY in the associated graded ring"),
    "irreducible": (("spec",), (), "irreducibility of the presentation"),
    "genus": (("spec",), (), "genus of a smooth curve y1^k = P(z) or a line"),
}
_HELP, _FLAGS = ("-h", "--help"), ("--json", "--no-normalize")  # every command takes these
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _help_text() -> str:
    lines = ["usage:"]
    for command, (positionals, takes_value, what) in _COMMANDS.items():
        words = [p.upper() for p in positionals] + [f"[{o} {o[2:].upper()}]" for o in takes_value]
        lines += [f"  danaut {command} {' '.join(words)} [--json] [--no-normalize]", f"      {what}"]
    lines.append("SPEC is a presentation JSON file; a polynomial that starts with - goes after --.")
    return "\n".join(lines)


def _option(token: str, names: tuple):
    """None for a positional token, else (the option of names it gives or None,
    its attached value or None).  A long option may be cut to a unique prefix;
    a token that starts with - is a positional if it is -, a negative number
    or holds a space."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token in names or (eq and name in names):
        return (token, None) if token in names else (name, value)
    if token[1] != "-" and token[:2] in names:  # a short option with its value attached
        return token[:2], token[2:]
    matches = [n for n in names if token[1] == "-" and n.startswith(name)]
    if len(matches) > 1:
        raise CliError(f"ambiguous option: {token} could match {', '.join(matches)}", 2)
    if matches:
        return matches[0], value if eq else None
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)


def _read_argv(argv: list):
    """The command and its arguments, read in one pass over argv as argparse
    reads them; None after printing help.  A malformed line raises CliError
    with exit code 2: the first error met, else a missing or unused argument."""
    args, command, names = SimpleNamespace(json=False, no_normalize=False), None, _HELP
    todo, unused = ["command"], []
    stop = None  # True for help, or the first error; later tokens are only classified
    last = None  # after a positional token: "taken" if a positional took it, else "left"
    dashes = None  # after --: whether a positional took the --
    tokens = iter(enumerate(argv))
    for j, token in tokens:
        if dashes is None and token == "--" and (command or j + 1 == len(argv)):
            # -- goes with the positional just before it, or else with the next one
            dashes = last == "taken" or (last is None and bool(todo) and j + 1 < len(argv))
            if not dashes:
                unused.append(token)
            continue
        option = None if dashes is not None or token == "--" else _option(token, names)
        if stop is not None:
            continue
        if option is None and command is None:  # before the command, -- is its name
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise CliError(f"argument command: invalid choice: {token!r} "
                               f"(choose from {choices})", 2)
            command = args.command = token
            todo, takes_value = list(_COMMANDS[token][0]), _COMMANDS[token][1]
            names = _HELP + _FLAGS + takes_value
            vars(args).update(dict.fromkeys((o[2:] for o in takes_value), None))
        elif option is None:
            last = "taken" if todo else "left"
            if todo:
                setattr(args, todo.pop(0), token)
            else:
                unused.append(token)
        else:
            (name, value), last = option, None
            if name == "-h" and value:
                value = value.lstrip("h") or None  # -hh is -h -h
            if name is None:
                unused.append(token)
            elif name not in _HELP + _FLAGS:  # an option that takes a value
                if value is None:  # then the next token is its value, if it is a positional
                    ahead = argv[j + 1] if j + 1 < len(argv) else "--"
                    if ahead == "--" or _option(ahead, names) is not None:
                        stop = CliError(f"argument {name}: expected one argument", 2)
                        continue
                    value = next(tokens)[1]
                setattr(args, name[2:], value)
            elif value is not None:
                label = "-h/--help" if name in _HELP else name
                stop = CliError(f"argument {label}: ignored explicit argument {value!r}", 2)
            elif name in _HELP:
                stop = True
            else:
                setattr(args, name[2:].replace("-", "_"), True)
    if isinstance(stop, CliError):
        raise stop
    if stop:
        print(_help_text())
        return None
    if todo:
        raise CliError(f"the following arguments are required: {', '.join(todo)}", 2)
    if unused:
        raise CliError(f"unrecognized arguments: {' '.join(unused)}", 2)
    return args


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        if args is None:  # help was printed
            return 0
        # looked up per call, so rebinding a cmd_* global takes effect
        return globals()["cmd_" + args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # every library error (SpecError is one) ends here
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # the checks that hold under python -O too
        print(f"internal check failed: {_one_line(exc)}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"unexpected error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 4


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
