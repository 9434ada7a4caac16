"""CLI contract: parsing, exit codes, JSON stability, subcommands."""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, GOLDEN, build_parser, fixture_path


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "danaut.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_e4_exit_zero():
    code, out, err = run_cli("analyze", fixture_path("s7_e4.json"))
    assert code == 0, err
    assert "canonical group: finite of order 4" in out
    assert "does not split" in out


def test_analyze_json_byte_stable():
    code1, out1, _ = run_cli("analyze", fixture_path("s7_e4.json"), "--json")
    code2, out2, _ = run_cli("analyze", fixture_path("s7_e4.json"), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["regime"] == "Danielewski"


def test_json_roundtrip_is_identity():
    code, out, _ = run_cli("analyze", fixture_path("s5_y14y22.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_golden_reports_stable():
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert len(fixtures) == 18
    for fx in fixtures:
        golden = GOLDEN / (fx.stem + ".golden.json")
        if not golden.exists():
            pytest.fail(f"missing golden report for {fx.name}; regenerate goldens")
        code, out, err = run_cli("analyze", str(fx), "--json")
        assert code == 0, err
        assert out == golden.read_text(), fx.name


def test_unsupported_exit_two(tmp_path):
    bad = tmp_path / "two_units.json"
    bad.write_text(
        json.dumps(
            {
                "weights": [1, 1],
                "x_present": False,
                "P": [
                    {"y_exponents": [0, 0], "z_exponent": 2, "coeff": "1"},
                    {"y_exponents": [0, 0], "z_exponent": 0, "coeff": "1"},
                ],
            }
        )
    )
    code, out, err = run_cli("analyze", str(bad))
    assert code == 2
    assert "two unit weights" in err


def test_parse_error_exit_one(tmp_path):
    cases = [
        {"weights": [2, "x"], "x_present": False, "P": []},
        {"weights": [2, 2], "x_present": False,
         "P": [{"y_exponents": [0, 0], "z_exponent": 2, "coeff": "0.5"}]},
        {"weights": [2, 2], "x_present": False,
         "P": [{"y_exponents": [0], "z_exponent": 2, "coeff": "1"}]},
        {"weights": [2, 2], "x_present": False,
         "P": [{"y_exponents": [0, 0], "z_exponent": 2, "coeff": "2"}]},
    ]
    for i, data in enumerate(cases):
        f = tmp_path / f"bad{i}.json"
        f.write_text(json.dumps(data))
        code, out, err = run_cli("analyze", str(f))
        assert code == 1, (i, err)
        assert err.startswith("error:")


def _presentation(weights, terms, x_present=False):
    """A presentation file object from (y_exponents, z_exponent, coeff) terms."""
    return {
        "weights": weights,
        "x_present": x_present,
        "P": [{"y_exponents": ye, "z_exponent": ze, "coeff": c} for ye, ze, c in terms],
    }


_NOT_EXACT = 'must be an integer or a string such as "3/4"'


@pytest.mark.parametrize(
    "raw, line",
    [
        # a JSON float goes through a Python float before anything sees it
        ('{"weights": [2, 2], "P": [{"y_exponents": [0, 0], "z_exponent": 3, "coeff": "1"},'
         ' {"y_exponents": [0, 0], "z_exponent": 0, "coeff": 123456789012345678901234567890.5}]}',
         f"coefficient 1.2345678901234568e+29 {_NOT_EXACT}"),
        ('{"weights": [2, 3], "P": [{"y_exponents": [0, 0], "z_exponent": 5, "coeff": 1.0},'
         ' {"y_exponents": [0, 0], "z_exponent": 0}]}',
         f"coefficient 1.0 {_NOT_EXACT}"),
        ('{"weights": [2, 3], "P": [{"y_exponents": [0, 0], "z_exponent": 5, "coeff": 2e3}]}',
         f"coefficient 2000.0 {_NOT_EXACT}"),
        ('{"weights": [2, 3], "P": [{"y_exponents": [0, 0], "z_exponent": 5, "coeff": true}]}',
         f"coefficient True {_NOT_EXACT}"),
        # JSON true and false are no integers, though Python's bool is an int
        ('{"weights": [2, true], "P": [{"y_exponents": [0, 0], "z_exponent": 3}]}',
         "weights must be a list of positive integers"),
        ('{"weights": [2, 3], "P": [{"y_exponents": [true, 0], "z_exponent": 3}]}',
         "y_exponents must list 2 nonnegative integers (one per weight)"),
        ('{"weights": [2, 3], "P": [{"y_exponents": [0, false], "z_exponent": 3}]}',
         "y_exponents must list 2 nonnegative integers (one per weight)"),
        ('{"weights": [2, 3], "P": [{"y_exponents": [0, 0], "z_exponent": true}]}',
         "z_exponent must be a nonnegative integer"),
    ],
)
def test_json_floats_and_booleans_rejected(raw, line, tmp_path, capsys):
    f = tmp_path / "inexact.json"
    f.write_text(raw)
    for argv in (["analyze", str(f)], ["irreducible", str(f), "--json"]):
        assert _main_in_process(argv, capsys) == (1, "", f"error: {line}\n")


def test_exact_coefficient_forms_accepted(tmp_path, capsys):
    """Integers, "num/den" and decimal strings stay exact."""
    f = tmp_path / "exact.json"
    terms = [([0, 0], 5, 1), ([0, 0], 2, "3/4"), ([0, 0], 1, "0.25"), ([0, 0], 0, -7)]
    f.write_text(json.dumps(_presentation([2, 3], terms)))
    code, out, err = _main_in_process(["analyze", str(f)], capsys)
    assert code == 0, err
    assert "equation: y1^2*y2^3 = z^5 + 3/4*z^2 + 1/4*z - 7\n" in out


def test_large_decimal_exponent_rejected_before_it_is_built(tmp_path, capsys):
    """A short coefficient such as 1e10000000 fails at once, with one line,
    instead of building a ten-million-digit integer; 1e300 stays exact."""
    f = tmp_path / "exponent.json"
    for c in ("1e10000000", "-2.5E-0_10000000", "1e4301"):
        f.write_text(json.dumps(_presentation([2, 3], [([0, 0], 4, "1"), ([0, 0], 0, c)])))
        start = time.perf_counter()
        result = _main_in_process(["analyze", str(f)], capsys)
        assert time.perf_counter() - start < 5
        line = f"error: coefficient {c!r} has a decimal exponent above 4300 in magnitude\n"
        assert result == (1, "", line)
    f.write_text(json.dumps(_presentation([2, 3], [([0, 0], 4, "1"), ([0, 0], 0, "1e300")])))
    code, out, err = _main_in_process(["analyze", str(f)], capsys)
    assert code == 0, err
    assert f"equation: y1^2*y2^3 = z^4 + {10**300}\n" in out


def test_coefficient_digits_are_bounded(tmp_path, capsys):
    """A numerator or denominator of more than 4300 digits exits 1 with one
    short line, whether it is written out or made by a decimal exponent
    within bounds; 4300 digits still analyze."""
    f = tmp_path / "digits.json"
    long = "1" * 4301
    for c, shown in (
        ("1e4300", "'1e4300'"),
        ("12e4299", "'12e4299'"),
        ("-3e-4300", "'-3e-4300'"),
        (long, f"{long[:30]!r}..."),
        (f"-{long}", f"{'-' + long[:29]!r}..."),
        (f"3/{long}", f"{'3/' + long[:28]!r}..."),
    ):
        f.write_text(json.dumps(_presentation([2, 3], [([0, 0], 4, "1"), ([0, 0], 0, c)])))
        line = f"error: coefficient {shown} has more than 4300 digits\n"
        assert _main_in_process(["analyze", str(f)], capsys) == (1, "", line)
    f.write_text(json.dumps(_presentation([2, 3], [([0, 0], 4, "1"), ([0, 0], 0, "1e4299")])))
    code, out, err = _main_in_process(["analyze", str(f)], capsys)
    assert code == 0, err
    assert f"equation: y1^2*y2^3 = z^4 + {10**4299}\n" in out


def test_json_integer_literal_digits_are_bounded(tmp_path, capsys):
    """A JSON integer literal of more than 4300 digits, as a coefficient, an
    exponent, a weight or a --map value, exits 1 with one line naming the
    file or --map and the bound, not the interpreter's int-conversion limit."""
    f = tmp_path / "literal.json"
    long = "1" * 4301
    for ye, ze, c, weight in (
        ([0, 0], 0, "BIG", 3),
        ([0, 0], "BIG", 1, 3),
        ([0, 0], 0, 1, "BIG"),
        ([0, 0], 0, "-BIG", 3),
    ):
        spec = _presentation([2, weight], [([0, 0], 4, "1"), (ye, ze, c)])
        f.write_text(json.dumps(spec).replace('"BIG"', long).replace('"-BIG"', f"-{long}"))
        line = f"error: {f} has an integer literal of more than 4300 digits\n"
        assert _main_in_process(["analyze", str(f)], capsys) == (1, "", line)
    images = '{"x": "x", "y1": "y1", "y2": "y2", "z": "z", "w": %s}' % long
    argv = ["apply", fixture_path("bf08.json"), "y1", "--map", images]
    line = "error: --map has an integer literal of more than 4300 digits\n"
    assert _main_in_process(argv, capsys) == (1, "", line)
    # 4300 digits are read, and then rejected or used by the field's own rule
    f.write_text(json.dumps(_presentation([2, 3], [([0, 0], 4, "1"), ([0, 0], 0, "BIG")]))
                 .replace('"BIG"', long[1:]))
    code, out, err = _main_in_process(["analyze", str(f)], capsys)
    assert code == 0, err


@pytest.mark.parametrize("e", [2**31, 2**31 + 1])
def test_exponent_limit_exits_one_with_one_line(tmp_path, capsys, e):
    """Every exponent stays below 2^31: at the limit and above it, in a
    presentation file or in a polynomial argument, the CLI exits 1 with one
    stderr line instead of packing a key that overflows its field."""
    f = tmp_path / "limit.json"
    for ye, ze, name in (([0, 0], e, "z"), ([0, e], 4, "y2")):
        f.write_text(json.dumps(_presentation([2, 3], [([0, 0], 4, "1"), (ye, ze, "1")])))
        line = f"error: exponent {e} of {name} is not below the limit 2^31\n"
        assert _main_in_process(["analyze", str(f)], capsys) == (1, "", line)
    line = f"error: exponent {e} of z is not below the limit 2^31\n"
    for text in (f"z^{e}", f"x*z^{e}", f"3/4*y1*z^{e}"):
        argv = ["degree", fixture_path("bf08.json"), text]
        assert _main_in_process(argv, capsys) == (1, "", line)
    assert run_cli("gr", fixture_path("bf08.json"), f"z^{e}") == (1, "", line)


def test_largest_exponent_still_parses(capsys):
    """2^31 - 1 is the largest exponent, and degree reads it back."""
    argv = ["degree", fixture_path("bf08.json"), f"z^{2**31 - 1}"]
    assert _main_in_process(argv, capsys) == (0, f"{2**31 - 1}\n", "")


_IDENT = {"x": "x", "y1": "y1", "y2": "y2", "z": "z"}
_WRITTEN = {
    "zero.json": _presentation([2], [([0], 2, "0"), ([0], 0, "0")]),
    "non_monic.json": _presentation([2, 2], [([0, 0], 2, "2"), ([0, 0], 0, "1")]),
    "line.json": _presentation([1], [([0], 2, "1"), ([0], 0, "1")]),  # y1 = z^2 + 1
}


@pytest.mark.parametrize(
    "argv, line",
    [
        (["exp", "s7_e2.json", "((y1"], "unexpected end of polynomial expression"),
        (["exp", "s7_e4.json", "h*z"], "h must lie in the kernel; it depends on 'z'"),
        (["exp", "s5_y14y22.json", "y1"], "no canonical derivation in this regime"),
        (["degree", "s7_e4.json", "0"], "the zero class has no degree (sentinel -infinity)"),
        (["gr", "s7_e4.json", "3*(x*y1^2*y2^2 - z^3 - z - y1 + y2)"],
         "the zero class has no leading form"),
        (["degree", "s5_y14y22.json", "y1"],
         "filtration degree needs the canonical derivation"),
        (["analyze", "zero.json"], "P must be nonzero"),
        (["apply", "s7_e4.json", "y1*z", "--map", json.dumps({**_IDENT, "x": "((z"})],
         "unexpected end of polynomial expression"),
        (["analyze", "non_monic.json"],
         "P must be monic in z (leading z-term with coefficient 1 and no y part)"),
        (["exp", "line.json", "z"], "no canonical derivation in this regime"),
    ],
)
def test_library_errors_exit_one_with_their_message(argv, line, tmp_path, capsys):
    """A library ValueError (SpecError is one) becomes one error line and exit 1 in main."""
    spec = argv[1]
    if spec in _WRITTEN:
        (tmp_path / spec).write_text(json.dumps(_WRITTEN[spec]))
        argv = [argv[0], str(tmp_path / spec), *argv[2:]]
    else:
        argv = [argv[0], fixture_path(spec), *argv[2:]]
    for extra in ([], ["--json"]):
        assert _main_in_process(argv + extra, capsys) == (1, "", f"error: {line}\n")


def test_unreadable_file_exit_one():
    code, _, err = run_cli("analyze", "/nonexistent/path.json")
    assert code == 1 and "cannot read" in err


def test_file_that_is_not_utf8_exits_one_naming_it(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b"\xff" + json.dumps({"weights": [2], "P": []}).encode())
    for argv in (["analyze", str(f)], ["apply", str(f), "z", "--element", "e0", "--json"]):
        code, out, err = _main_in_process(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1, err


def test_no_normalize_rejects_shifted(tmp_path, capsys):
    f = tmp_path / "shifted.json"
    f.write_text(
        json.dumps(
            {
                "weights": [2],
                "x_present": False,
                "P": [
                    {"y_exponents": [0], "z_exponent": 2, "coeff": "1"},
                    {"y_exponents": [0], "z_exponent": 1, "coeff": "2"},
                    {"y_exponents": [0], "z_exponent": 0, "coeff": "1"},
                ],
            }
        )
    )
    code, _, err = run_cli("analyze", str(f), "--no-normalize")
    assert code == 1 and "not normalized" in err
    code, out, _ = run_cli("analyze", str(f))
    assert code == 0
    # on a normalized presentation the switch changes nothing
    e4 = fixture_path("s7_e4.json")
    default = _main_in_process(["analyze", e4, "--json"], capsys)
    assert default[0] == 0
    assert _main_in_process(["analyze", e4, "--json", "--no-normalize"], capsys) == default


def test_exp_subcommand():
    code, out, _ = run_cli("exp", fixture_path("s7_e4.json"), "h", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["images"]["y1"] == "y1"
    assert "h" in payload["images"]["z"]
    # exp of zero is the identity
    code, out, _ = run_cli("exp", fixture_path("s7_e4.json"), "0", "--json")
    payload = json.loads(out)
    assert payload["images"]["x"] == "x" and payload["images"]["z"] == "z"


def test_exp_e2_typo_warning():
    code, out, _ = run_cli("exp", fixture_path("s7_e2.json"), "y1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["warnings"], "expected the documented variant-map warning"
    assert "does not preserve" in payload["warnings"][0]


def test_exp_rejects_non_kernel():
    code, _, err = run_cli("exp", fixture_path("s7_e4.json"), "z")
    assert code == 1 and "kernel" in err


def test_exp_reads_juxtaposed_coefficients(capsys):
    from danaut import cli

    e4 = fixture_path("s7_e4.json")
    for short, spelled in (("2h", "2*h"), ("3t*y1", "3*t*y1")):
        outputs = []
        for h in (short, spelled):
            assert cli.main(["exp", e4, h]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1], short
        assert outputs[0].err == ""


def test_apply_element():
    code, out, _ = run_cli(
        "apply", fixture_path("s7_e4.json"), "y1-y2", "--element", "e0"
    )
    assert code == 0
    # e0 is (id; -1,-1,-1): y1-y2 -> -(y1-y2)
    assert out.strip() in ("-y1 + y2", "y2 - y1")


def test_apply_inline_map_and_rejection():
    good = json.dumps({"x": "-x", "y1": "y2", "y2": "y1", "z": "-z"})
    code, out, err = run_cli(
        "apply", fixture_path("s7_e4.json"), "z^2", "--map", good
    )
    assert code == 0 and out.strip() == "z^2"
    bad = json.dumps({"x": "x", "y1": "2*y1", "y2": "y2", "z": "z"})
    code, _, err = run_cli(
        "apply", fixture_path("s7_e4.json"), "z", "--map", bad
    )
    assert code == 1 and "not a verified automorphism" in err
    # not a bijection, a zero image, and a genuine but non-monomial automorphism
    code, out, _ = run_cli("exp", fixture_path("s7_e4.json"), "1", "--json")
    assert code == 0
    for images in (
        {"x": "x", "y1": "y2", "y2": "y2", "z": "z"},
        {"x": "x", "y1": "0", "y2": "y2", "z": "z"},
        json.loads(out)["images"],
    ):
        code, out, err = run_cli(
            "apply", fixture_path("s7_e4.json"), "z", "--map", json.dumps(images)
        )
        assert code == 1 and out == "", images
        lines = err.splitlines()
        assert len(lines) == 1 and "not a verified automorphism" in lines[0], err


def test_apply_defining_polynomial_to_zero():
    code, out, _ = run_cli(
        "apply",
        fixture_path("s7_e4.json"),
        "x*y1^2*y2^2 - (z^3+z+y1-y2)",
        "--element",
        "e0",
    )
    assert code == 0 and out.strip() == "0"


def test_apply_unknown_element():
    code, _, err = run_cli(
        "apply", fixture_path("s7_e4.json"), "z", "--element", "e99"
    )
    assert code == 1 and "unknown element" in err


def test_degree_and_gr():
    code, out, _ = run_cli("degree", fixture_path("s7_e4.json"), "z")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli("degree", fixture_path("s7_e4.json"), "y1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli("degree", fixture_path("s7_e4.json"), "x")
    assert code == 0 and out.strip() == "3"
    code, _, err = run_cli("degree", fixture_path("s7_e4.json"), "0")
    assert code == 1
    code, out, _ = run_cli("gr", fixture_path("s7_e4.json"), "z+y1")
    assert code == 0 and out.strip() == "z"


def test_irreducible_subcommand(tmp_path):
    f = tmp_path / "red.json"
    f.write_text(
        json.dumps(
            {
                "weights": [2, 2],
                "x_present": False,
                "P": [
                    {"y_exponents": [0, 0], "z_exponent": 4, "coeff": "1"},
                    {"y_exponents": [0, 0], "z_exponent": 2, "coeff": "2"},
                    {"y_exponents": [0, 0], "z_exponent": 0, "coeff": "1"},
                ],
            }
        )
    )
    code, out, _ = run_cli("irreducible", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is False and payload["l"] == 2


def test_degenerate_reported_not_rejected(tmp_path):
    f = tmp_path / "degen.json"
    f.write_text(
        json.dumps(
            {
                "weights": [1],
                "x_present": False,
                "P": [
                    {"y_exponents": [0], "z_exponent": 2, "coeff": "1"},
                    {"y_exponents": [0], "z_exponent": 0, "coeff": "1"},
                ],
            }
        )
    )
    code, out, _ = run_cli("analyze", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "Degenerate"
    assert "affine group of the line" in payload["structure_pretty"]
    assert payload["warnings"]
    # x = P(z) is a line too: irreducible agrees with analyze
    f.write_text(json.dumps(_presentation([], [([], 2, "1"), ([], 0, "1")], x_present=True)))
    code, out, err = run_cli("analyze", str(f), "--json")
    assert code == 0, err
    assert json.loads(out)["invariants"]["irreducible"] is True
    code, out, err = run_cli("irreducible", str(f), "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["irreducible"] is True
    assert "affine line" in payload["note"]
    # without x the relation is 1 = P(z), a finite set of points: unsupported
    f.write_text(json.dumps(_presentation([], [([], 2, "1"), ([], 0, "-4")])))
    for command in ("analyze", "irreducible", "genus"):
        code, out, err = run_cli(command, str(f), "--json")
        assert (code, out) == (2, ""), command
        assert err == ("error: unsupported presentation: no x and no y variables: "
                       "1 = P(z) is a finite set of points\n")


def test_specfile_roundtrip():
    """A reloaded spec equals the one it was written from, also after every
    derived attribute of the original has been read: those stay out of ==
    and repr, and a different P still tells two specs apart.  A spec is
    freed as soon as it is dropped."""
    import weakref

    from danaut import MultiPoly, make_variety
    from danaut.cli import load_spec_file
    from conftest import spec_to_dict

    for name in ("s7_e4.json", "s5_y14y22.json", "s7_threevar.json"):
        raw = load_spec_file(fixture_path(name))
        text = repr(raw)
        relation = raw.relation(raw.vars + ("h",))
        assert None not in (raw.s, raw.weight_monomial, raw.kernel_monomial, raw.lead_monomial,
                            raw.defining_polynomial, relation.rule, relation.F, relation.M)
        assert repr(raw) == text and "z_coefficients" not in text
        other = make_variety(raw.weights, raw.x_present, raw.P + MultiPoly.const(raw.vars, 1))
        assert (other.weights, other.x_present, other.d) == (raw.weights, raw.x_present, raw.d)
        assert other != raw
        data = spec_to_dict(raw)
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            json.dump(data, fh)
            path = fh.name
        try:
            again = load_spec_file(path)
        finally:
            os.unlink(path)
        assert again.weights == raw.weights
        assert again.x_present == raw.x_present
        assert again.P == raw.P
        assert again == raw and repr(again) == repr(raw)
        assert spec_to_dict(again) == data
        freed = weakref.ref(raw)
        del raw, relation
        assert freed() is None  # a spec's relations hold no reference cycle back to it


def test_genus_subcommand(tmp_path):
    f = tmp_path / "curve.json"
    f.write_text(
        json.dumps(
            {
                "weights": [2],
                "x_present": False,
                "P": [
                    {"y_exponents": [0], "z_exponent": 3, "coeff": "1"},
                    {"y_exponents": [0], "z_exponent": 1, "coeff": "1"},
                ],
            }
        )
    )
    code, out, _ = run_cli("genus", str(f))
    assert code == 0 and out.strip() == "1"


def test_genus_refusal_gives_the_rigidity_reason(tmp_path, capsys):
    """genus has no genus for what rigidity gives none: one line naming its reason."""
    f = tmp_path / "curve_sq.json"
    f.write_text(json.dumps(_presentation([2], [([0], 4, "1"), ([0], 2, "-2"), ([0], 0, "1")])))
    line = "error: genus needs a smooth irreducible curve y1^k = P(z) or a line (reducible curve)\n"
    for extra in ([], ["--json"]):
        assert _main_in_process(["genus", str(f), *extra], capsys) == (1, "", line)
    f.write_text(json.dumps(_presentation([2], [([0], 3, "1"), ([0], 2, "1")])))  # z^2 (z + 1)
    code, out, err = _main_in_process(["genus", str(f)], capsys)
    assert (code, out) == (1, "") and err.endswith("(singular curve: P has a multiple root)\n")


def _genus_cases():
    """(name, presentation, genus from the formula or None) of the genus/analyze
    differential test: the fixtures, both lines, and derandomized curves y1^k = P(z)
    with P monic of distinct rational roots (smooth) or with one repeated root."""
    cases = [(fx.name, json.loads(fx.read_text()), None)
             for fx in sorted(FIXTURES.glob("*.json")) + sorted((FIXTURES / "maps").glob("*.json"))]
    cases += [
        ("x = z^2 + 1", _presentation([], [([], 2, "1"), ([], 0, "1")], x_present=True), 0),
        ("y1 = z^3 - z", _presentation([1], [([0], 3, "1"), ([0], 1, "-1")]), 0),
    ]
    rationals = sorted({Fraction(n, q) for n in range(-6, 7) for q in (1, 2, 3)})
    rng = random.Random(33)
    for i in range(40):
        k, d = rng.randint(1, 6), rng.randint(2, 6)
        roots = rng.sample(rationals, d)
        smooth = i % 2 == 0
        if not smooth:
            roots[1] = roots[0]
        coeffs = [Fraction(1)]  # low to high
        for r in roots:
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]  # times (z - r)
        terms = [([0], e, str(c)) for e, c in enumerate(coeffs) if c]
        expected = ((d - 1) * (k - 1) + 1 - gcd(k, d)) // 2 if smooth else None
        name = f"y1^{k} = P(z), roots {', '.join(map(str, roots))}"
        cases.append((name, _presentation([k], terms), expected))
    return cases


def test_genus_agrees_with_analyze(tmp_path, capsys):
    """genus prints the genus analyze reports, and refuses in one line where
    analyze reports none; a smooth curve's genus is the Riemann-Hurwitz count."""
    path = tmp_path / "presentation.json"
    for name, data, expected in _genus_cases():
        path.write_text(json.dumps(data))
        code, out, err = _main_in_process(["analyze", str(path), "--json"], capsys)
        assert code == 0, (name, err)
        reported = json.loads(out)["invariants"]["genus"]
        code, out, err = _main_in_process(["genus", str(path), "--json"], capsys)
        if reported is None:
            assert (code, out, err.count("\n")) == (1, "", 1), (name, out, err)
        else:
            assert (code, err) == (0, ""), (name, err)
            assert json.loads(out) == {"genus": reported}, name
        if expected is not None:
            assert reported == expected, name


def test_each_map_verified_exactly_once(monkeypatch, capsys):
    from danaut import cli, derivations

    real = derivations.automorphism_defect
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(derivations, "automorphism_defect", counting)
    e4 = fixture_path("s7_e4.json")
    scaling = json.dumps({"x": "-x", "y1": "y2", "y2": "y1", "z": "-z"})
    for argv, checks in (
        (["exp", e4, "h*y1 + 1", "--json"], 1),
        (["apply", e4, "x*z", "--element", "e0"], 1),
        (["apply", e4, "x*z", "--map", scaling], 1),
        (["analyze", e4, "--json"], 1),  # the report's exponential example
        (["analyze", fixture_path("s5_y14y22.json"), "--json"], 0),
    ):
        calls.clear()
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert len(calls) == checks, argv


def test_element_map_counter_pins(monkeypatch, capsys):
    """apply --element on bf08 checks its map with 2 + (k - 1) substitutions
    (k = 4 variables in the images' context) and no subtraction, and exp
    with a formal symbol t (k = 5) with 6; canonical_group(bf08) builds 66
    Fractions.  The check used to make 1 + 2n substitutions (n = 4
    generators): phi(F), then both composites of every generator.  The
    substitution of F into the inverse images replaces the n composites
    phi(psi(v)) and the unit-weight variable's psi(phi(u)), which follow
    from it in a Noetherian domain.  Before composites were compared by !=
    and the torus solver took integer power products, the check subtracted
    9 times (8 composites and the first build of the defining polynomial)
    and canonical_group built 160 Fractions.  exp_replica(s7_e4, h) with a
    formal h embeds 5 polynomials into the wider context on a fresh spec
    and 1 on a second call (8 and 6 when F and M were embedded per call)."""
    from danaut import autgroup, cli, derivations
    from danaut.poly import MultiPoly, parse_poly

    counts = {"substitute": 0, "__sub__": 0}
    checking = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += bool(checking)
            return real(*args, **kwargs)
        return wrapper

    def defect(*args):
        checking.append(True)
        try:
            return real_defect(*args)
        finally:
            checking.pop()

    real_defect = derivations.automorphism_defect
    monkeypatch.setattr(derivations, "automorphism_defect", defect)
    monkeypatch.setattr(derivations, "substitute", counted("substitute", derivations.substitute))
    monkeypatch.setattr(MultiPoly, "__sub__", counted("__sub__", MultiPoly.__sub__))
    bf08 = fixture_path("bf08.json")
    for argv, calls in (
        (["apply", bf08, "x*z + y1^2", "--element", "e1", "--json"], 2 + 3),
        (["exp", bf08, "t*y1 + 1", "--json"], 2 + 4),
    ):
        counts.update(substitute=0, __sub__=0)
        code, out, err = _main_in_process(argv, capsys)
        assert code == 0, err
        assert counts == {"substitute": calls, "__sub__": 0}, argv

    spec = cli.prepare(bf08, cli._read_argv(["analyze", bf08]))[1]
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: built.append(1) or real_new(cls, *a, **k))
    if hasattr(Fraction, "_from_coprime_ints"):  # what the arithmetic builds with from 3.12 on
        real_coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, n, d: built.append(1) or real_coprime(cls, n, d)))
    group = autgroup.canonical_group(spec)
    monkeypatch.undo()
    assert len(group.elements) == 4
    assert len(built) == 66

    # exp with a formal symbol puts h, and the rule, F and M of the relation
    # once each into the wider context; again on the same spec, h alone.
    # Embedding F and M on each direction took 8, then 6.
    e4_path = fixture_path("s7_e4.json")
    e4 = cli.prepare(e4_path, cli._read_argv(["analyze", e4_path]))[1]
    h = parse_poly("h*y1 + 1", e4.vars + ("h",))
    embeds = []
    real_embed = MultiPoly.embed
    monkeypatch.setattr(MultiPoly, "embed", lambda f, ctx: embeds.append(ctx) or real_embed(f, ctx))
    for expected in (5, 1):
        embeds.clear()
        derivations.exp_replica(e4, h)
        assert len(embeds) == expected


def test_one_smith_form_per_branch(monkeypatch, capsys):
    """analyze --json on s7_e4 and bf08 takes one Smith form per permutation
    branch (two each) and none for the finite part, which only counts its
    closure."""
    from danaut import lattice

    calls = []
    real = lattice.smith_normal_form
    monkeypatch.setattr(lattice, "smith_normal_form", lambda A: calls.append(1) or real(A))
    for name in ("s7_e4.json", "bf08.json"):
        calls.clear()
        code, _, err = _main_in_process(["analyze", fixture_path(name), "--json"], capsys)
        assert code == 0, err
        assert len(calls) == 2, name


def test_coordinate_form_scalars_reach_the_map_goldens(monkeypatch, capsys):
    """The cyc_coords map goldens go through CycElem elements known only by
    their coordinates: the image of x under (id; 1, zeta3^2) carries
    zeta3^2 - 1, which is no rational times a root of unity."""
    from danaut.cyclotomic import CycElem

    built = []
    real = CycElem._trusted.__func__
    monkeypatch.setattr(CycElem, "_trusted",
                        classmethod(lambda cls, order, coords: built.append(1) or real(cls, order, coords)))
    calls = json.loads((GOLDEN / "maps" / "calls.json").read_text())
    argv = [str(GOLDEN.parent.parent / a) if a.startswith("tests/") else a
            for a in calls["cyc_coords.apply_e1.json"]]
    code, out, err = _main_in_process(argv, capsys)
    assert code == 0, err
    assert out == (GOLDEN / "maps" / "cyc_coords.apply_e1.json").read_text()
    assert built


def test_tampered_maps_exit_one_without_traceback(monkeypatch, capsys):
    from danaut import autgroup, cli, derivations

    real_images = autgroup._element_images
    real_divide = derivations.divide_by_monomial

    def wrong_x(spec, sigma, scalars):
        images = real_images(spec, sigma, scalars)
        images["x"] = images["x"] + 1
        return images

    e4 = fixture_path("s7_e4.json")
    for target, attr, fake, argv in (
        (autgroup, "_element_images", wrong_x, ["apply", e4, "z", "--element", "e0"]),
        # an offset quotient (P(z + h*M) + F)/M gives a wrong x image
        (derivations, "divide_by_monomial", lambda f, m: real_divide(f, m) + 1,
         ["exp", e4, "h"]),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, attr, fake)
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "preserve the defining ideal" in err


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (AssertionError("weight-monomial stabilizer\nhas the wrong type"), 3,
         "internal check failed: weight-monomial stabilizer has the wrong type"),
        (KeyError("y9"), 4, "unexpected error: KeyError: 'y9'"),
    ],
)
def test_unexpected_errors_exit_with_one_line(exc, code, line, monkeypatch, capsys):
    """main is the last resort: no traceback, one stderr line and a stated code."""
    from danaut import cli

    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", failing)
    argv = ["analyze", fixture_path("s7_e4.json")]
    assert _main_in_process(argv, capsys) == (code, "", line + "\n")


def test_keyboard_interrupt_is_not_swallowed(monkeypatch):
    from danaut import cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_genus", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["genus", fixture_path("s7_e4.json")])


def test_huge_coefficient_has_no_float_overflow(tmp_path):
    f = tmp_path / "big.json"
    f.write_text(
        json.dumps(
            {
                "weights": [2, 2],
                "x_present": True,
                "P": [
                    {"y_exponents": [0, 0], "z_exponent": 3, "coeff": "1"},
                    {"y_exponents": [1, 0], "z_exponent": 0, "coeff": "1"},
                    {"y_exponents": [0, 1], "z_exponent": 0, "coeff": str(10**400)},
                ],
            }
        )
    )
    code, out, err = run_cli("analyze", str(f))
    assert code == 0 and "Traceback" not in err, err
    assert "regime: Danielewski" in out


def test_in_process_calls_do_not_share_options(capsys):
    """Each in-process call reads its own argv: --json and --element of
    earlier calls do not leak into later ones, and every call prints what a
    fresh process prints."""
    e4 = fixture_path("s7_e4.json")
    codes = []
    for argv in (
        ["analyze", e4, "--json"],
        ["analyze", "--no-such-option", e4],
        ["exp", e4, "h*y1 + 1"],
        ["apply", e4, "y1-y2", "--element", "e0", "--json"],
        ["analyze", e4],
    ):
        code, out, _ = _main_in_process(argv, capsys)
        fresh_code, fresh_out, _ = run_cli(*argv)
        assert (code, out) == (fresh_code, fresh_out), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 0]


def _main_in_process(argv, capsys):
    """(exit code, stdout, stderr) of one in-process CLI call; main returns
    its exit code, and raises no SystemExit, for every command line."""
    from danaut import cli

    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


_COMMAND_NAMES = ["analyze", "exp", "apply", "degree", "gr", "irreducible", "genus"]
_argv_tokens = st.sampled_from(_COMMAND_NAMES + [
    "bogus", "--json", "--js", "--j", "--no-normalize", "--no", "--element", "--el", "--map",
    "--ma", "--help", "--he", "-h", "--", "--json=", "--json=1", "--no=x", "--help=x",
    "--element=e1", "--el=e1", "--el=", "--map={}", "--ma=-2", "--=x", "-2", "-2*y1",
    "-2*y1 + 1", "-x", "--x", "e1", "x*z + 1", "", "spec.json", fixture_path("s7_e4.json"),
])
_argv_lines = st.one_of(
    st.lists(_argv_tokens, max_size=6),
    st.builds(lambda c, rest: [c, *rest], st.sampled_from(_COMMAND_NAMES),
              st.lists(_argv_tokens, max_size=6)),
)
_ORACLE = build_parser()


@settings(max_examples=2000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv_lines)
@example(argv=["exp", "spec.json", "--", "--"])
@example(argv=["degree", "spec.json", "--json", "--", "--"])
@example(argv=["analyze", "spec.json", "--json", "--"])
@example(argv=["exp", "--", "spec.json", "-2*y1"])
@example(argv=["apply", "spec.json", "--el", "-2", "-2*y1 + 1", "--ma=-2"])
def test_reader_reads_argv_as_argparse(argv, capsys):
    """The one-pass reader against the argparse parser it replaced: the same
    lines accepted, the same arguments read from them, help (exit 0) on the
    same lines, and exit 2 with one stderr line on the rest.  One reading
    differs on purpose: argparse turns a positional that is a second -- into
    an empty list, which no command can use; the reader keeps it "--".
    Budget: 2000 derandomized examples, about 3 s on a 2-vCPU host."""
    from danaut import cli

    try:
        expected = vars(_ORACLE.parse_args(argv))
    except SystemExit as exc:
        expected = exc.code
    capsys.readouterr()
    if isinstance(expected, dict):
        expected = {k: "--" if v == [] else v for k, v in expected.items()}
        assert vars(cli._read_argv(argv)) == expected, argv
        return
    code, out, err = _main_in_process(argv, capsys)
    assert code == expected, (argv, out, err)
    if code == 0:
        assert out.startswith("usage:") and err == "", argv
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


_CHOICES = "(choose from 'analyze', 'exp', 'apply', 'degree', 'gr', 'irreducible', 'genus')"


@pytest.mark.parametrize("argv, line", [
    ([], "the following arguments are required: command"),
    (["--json", "--"], "the following arguments are required: command"),
    (["exp", "spec.json", "-2*y1"], "the following arguments are required: h"),
    (["apply"], "the following arguments are required: spec, poly"),
    (["analyze", "spec.json", "--max-enum-order", "4"], "unrecognized arguments: --max-enum-order 4"),
    (["--json", "analyze", "spec.json", "x"], "unrecognized arguments: --json x"),
    (["analyze", "spec.json", "--json", "--"], "unrecognized arguments: --"),
    (["bogus", "spec.json"], f"argument command: invalid choice: 'bogus' {_CHOICES}"),
    (["--", "analyze", "spec.json"], f"argument command: invalid choice: '--' {_CHOICES}"),
    (["-2", "analyze"], f"argument command: invalid choice: '-2' {_CHOICES}"),
    (["apply", "spec.json", "z", "--element"], "argument --element: expected one argument"),
    (["apply", "spec.json", "z", "--map", "--json"], "argument --map: expected one argument"),
    (["apply", "spec.json", "--el", "--", "z"], "argument --element: expected one argument"),
    (["analyze", "spec.json", "--js=1"], "argument --json: ignored explicit argument '1'"),
    (["analyze", "spec.json", "--=x"],
     "ambiguous option: --=x could match --help, --json, --no-normalize"),
    (["analyze", "-h", "--=x"], "ambiguous option: --=x could match --help, --json, --no-normalize"),
    (["analyze", "-hhx", "spec.json"], "argument -h/--help: ignored explicit argument 'x'"),
    (["-h=", "analyze"], "argument -h/--help: ignored explicit argument ''"),
])
def test_malformed_command_lines_keep_the_argparse_wording(argv, line, capsys):
    """Exit 2 and one line, worded as argparse worded it; -h with letters
    attached reads as Python 3.10-3.12 read it."""
    assert _main_in_process(argv, capsys) == (2, "", f"error: {line}\n")


def test_help_lists_every_command_and_exits_zero(capsys):
    for argv in (["-h"], ["--help"], ["--he", "bogus"], ["--json", "-h"], ["apply", "--he"],
                 ["exp", "spec.json", "-hh", "--bogus"], ["-h=hh"]):
        code, out, err = _main_in_process(argv, capsys)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage:\n") and out.count("\n  danaut ") == 7, out
        assert all(f"  danaut {c} SPEC" in out for c in _COMMAND_NAMES)
    assert "  danaut apply SPEC POLY [--element ELEMENT] [--map MAP] [--json] [--no-normalize]\n" in out


def test_second_double_dash_is_a_polynomial_argument(capsys):
    """argparse read a second -- after the first as an empty list, and exp
    and degree stopped with "unexpected error" (exit 4); it is the text --."""
    e4 = fixture_path("s7_e4.json")
    for argv in (["exp", e4, "--", "--"], ["degree", e4, "--", "--"]):
        code, out, err = _main_in_process(argv, capsys)
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err


def test_importing_the_cli_leaves_argparse_out():
    proc = subprocess.run([sys.executable, "-c", "import sys, danaut.cli; print(sorted("
                           "m for m in sys.modules if m.partition('.')[0] == 'argparse'))"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_malformed_cli_input_exits_one_with_one_line(capsys):
    e2, e4 = fixture_path("s7_e2.json"), fixture_path("s7_e4.json")
    ident = {"x": "x", "y1": "y1", "y2": "y2", "z": "z"}
    for argv, message in (
        (["exp", e2, "((y1"], "unexpected end"),
        (["exp", e2, "y1^"], "unexpected end"),
        (["degree", e4, "x*(z+"], "unexpected end"),
        (["apply", e4, "z", "--map", json.dumps({**ident, "x": 1})], "string"),
        (["apply", e4, "z", "--map", json.dumps({**ident, "w": "w"})], "'w'"),
    ):
        code, out, err = _main_in_process(argv, capsys)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err


def test_deeply_nested_input_exits_one_with_one_line(tmp_path, capsys):
    """JSON or a polynomial nested past the recursion limit is a parse error."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    e4 = fixture_path("s7_e4.json")
    for argv, message in (
        (["analyze", str(deep)], f"error: {deep} is not valid JSON: "),
        (["apply", e4, "z", "--map", "[" * 100000], "error: --map is not valid JSON: "),
        (["degree", e4, "(" * 3000 + "z" + ")" * 3000], "error: polynomial expression is nested too deeply"),
        (["degree", e4, "--", "-" * 3000 + "z"], "error: polynomial expression is nested too deeply"),
        (["exp", e4, "(" * 3000 + "y1" + ")" * 3000], "error: polynomial expression is nested too deeply"),
    ):
        code, out, err = _main_in_process(argv, capsys)
        assert (code, out) == (1, ""), argv[:3]
        assert err.startswith(message) and err.count("\n") == 1, err


def test_presentation_options_are_rejected(tmp_path, capsys):
    """Normalization has one switch, --no-normalize, and the enumeration
    bound is the constant ENUM_ORDER_BOUND: a file with an "options" key
    exits 1, so one that asked for no normalization is never shifted."""
    with open(fixture_path("s7_e4.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    f = tmp_path / "opts.json"
    for options in (
        {"normalize": "no"},
        {"normalize": 1},
        {"enum_order_bound": "abc"},
        {"enum_order_bound": 0},
        {"enum_order_bound": True},
        {},
        {"normalize": False, "enum_order_bound": 12},
    ):
        f.write_text(json.dumps({**spec, "options": options}))
        code, out, err = _main_in_process(["analyze", str(f)], capsys)
        assert code == 1 and out == "", options
        assert err.startswith("error: ") and err.count("\n") == 1, (options, err)
        assert "--no-normalize" in err, err
    code, out, err = _main_in_process(
        ["analyze", fixture_path("s7_e4.json"), "--max-enum-order", "4"], capsys
    )
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_enumeration_bound_reaches_the_report(tmp_path, capsys):
    """Branch (1,2) of x*y1^182*y2^182 = z^3 + y1^181 - y2^181 needs a root
    of unity of order 362, above ENUM_ORDER_BOUND; branch id needs none."""
    f = tmp_path / "w182.json"
    f.write_text(json.dumps({
        "weights": [182, 182],
        "x_present": True,
        "P": [
            {"y_exponents": [0, 0], "z_exponent": 3, "coeff": "1"},
            {"y_exponents": [181, 0], "z_exponent": 0, "coeff": "1"},
            {"y_exponents": [0, 181], "z_exponent": 0, "coeff": "-1"},
        ],
    }))
    code, out, err = _main_in_process(["analyze", str(f), "--json"], capsys)
    assert code == 0, err
    notes = {b["sigma"]: b["coset_note"] for b in json.loads(out)["groups"]["G"]["branches"]}
    assert notes == {
        "id": "",
        "(1,2)": "root order 362 exceeds enumeration bound 360; "
                 "solution set described structurally only",
    }


def test_failed_closure_check_exits_three(monkeypatch, capsys):
    """A canonical element list that closes to more elements than its branches
    count is an internal fault, not a warning."""
    import dataclasses

    from danaut import autgroup

    real = autgroup.canonical_group

    def three_of_four(spec):
        G = real(spec)
        return dataclasses.replace(G, elements=G.elements[:3], order=3)

    monkeypatch.setattr(autgroup, "canonical_group", three_of_four)
    code, out, err = _main_in_process(["analyze", fixture_path("s7_e4.json")], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal check failed: ") and err.count("\n") == 1, err


def test_canonical_elements_that_do_not_close_exit_three(monkeypatch, capsys):
    """A listed element of infinite order is a solver fault: the closure
    stops just past the branch count and exits 3, not with a bound error."""
    import dataclasses

    from danaut import autgroup

    real = autgroup.canonical_group

    def infinite_order(spec):
        G = real(spec)
        g = ((0, 1), (Fraction(2), Fraction(1), Fraction(1)))
        return dataclasses.replace(G, elements=[g], order=1)

    monkeypatch.setattr(autgroup, "canonical_group", infinite_order)
    code, out, err = _main_in_process(["analyze", fixture_path("s7_e4.json")], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal check failed: canonical-group elements do not close: "), err
    assert err.count("\n") == 1, err


_OFFSET_DERIVATIVE = (
    "import sys\n"
    "import danaut.derivations as D\n"
    "from danaut import cli\n"
    "real = D.derivative\n"
    "D.derivative = lambda f, name: real(f, name) + 1\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_corrupt_canonical_derivation_exits_three(monkeypatch, capsys):
    """A canonical derivation that does not kill the defining relation is an
    internal fault: analyze exits 3 with one line, also under python -O."""
    from danaut import derivations

    argv = ["analyze", fixture_path("s7_e4.json")]
    real = derivations.derivative
    monkeypatch.setattr(derivations, "derivative", lambda f, name: real(f, name) + 1)
    code, out, err = _main_in_process(argv, capsys)
    monkeypatch.undo()
    proc = subprocess.run([sys.executable, "-O", "-c", _OFFSET_DERIVATIVE, *argv],
                          capture_output=True, text=True)
    for code, out, err in ((code, out, err), (proc.returncode, proc.stdout, proc.stderr)):
        assert (code, out) == (3, "")
        assert err == ("internal check failed: "
                       "the canonical derivation does not kill the defining relation\n")


def test_source_has_no_assert_statements():
    """Every correctness check raises AssertionError itself, so none
    vanishes under python -O."""
    import ast
    from pathlib import Path

    import danaut

    found = []
    for path in sorted(Path(danaut.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Assert):
                found.append(f"{path.name}:{n.lineno}")
    assert found == []


def test_text_goldens_stable(capsys):
    """The text form of analyze, byte for byte, for every fixture."""
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert len(fixtures) == 18
    for fx in fixtures:
        code, out, err = _main_in_process(["analyze", str(fx)], capsys)
        assert code == 0, err
        assert out == (GOLDEN / (fx.stem + ".golden.txt")).read_text(), fx.name


def test_map_goldens_stable(capsys):
    """Subcommand outputs, --json and text, byte for byte (see golden/maps/calls.json)."""
    root = GOLDEN.parent.parent
    calls = json.loads((GOLDEN / "maps" / "calls.json").read_text())
    assert len(calls) == 40
    for name, argv in calls.items():
        argv = [str(root / a) if a.startswith("tests/") else a for a in argv]
        code, out, err = _main_in_process(argv, capsys)
        assert code == 0, err
        assert out == (GOLDEN / "maps" / name).read_text(), name


def test_large_order_suspension_stays_in_exponents(capsys, monkeypatch):
    """y1^2 y2^3 = z^2000 + 1 has a Z2000 finite part, and D reads Z4000.

    Its scalars are roots of unity of order 4000; the report is unchanged
    and no cyclotomic polynomial of that size is ever built for it.  P is
    stored once, so the analysis builds a handful of polynomials, not one
    per power of z.
    """
    from danaut import cyclotomic
    from danaut.poly import MultiPoly

    orders = []
    original = cyclotomic.cyclotomic_polynomial

    def recording(n):
        orders.append(n)
        return original(n)

    built = []
    init, canonical = MultiPoly.__init__, MultiPoly._canonical.__func__

    def counting_init(self, vars, terms):
        built.append(1)
        init(self, vars, terms)

    def counting_canonical(cls, vars, num, den=1):
        built.append(1)
        return canonical(cls, vars, num, den)

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", recording)
    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    monkeypatch.setattr(MultiPoly, "_canonical", classmethod(counting_canonical))
    name = "large/susp_z2000"
    code, out, err = _main_in_process(
        ["analyze", fixture_path(f"{name}.json"), "--json"], capsys
    )
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.golden.json").read_text()
    assert not [n for n in orders if n >= 2000]
    assert len(built) < 50, len(built)


def test_exponential_family_memory_follows_the_result(tmp_path, capsys):
    """x*y1^2*y2^3 = z^200 + 3/2*z + y1 - 2*y2: the report's exponential
    family substitutes z -> z + h*M into P and into the degree-199 x image.
    Horner's rule keeps one running sum, so the traced peak of the whole
    analysis stays near the size of the result (1.9 MiB) instead of holding
    every power of the image at once (6 MiB)."""
    import tracemalloc

    f = tmp_path / "d200.json"
    terms = [([0, 0], 200, "1"), ([0, 0], 1, "3/2"), ([1, 0], 0, "1"), ([0, 1], 0, "-2")]
    f.write_text(json.dumps(_presentation([2, 3], terms, x_present=True)))
    tracemalloc.start()
    try:
        code, out, err = _main_in_process(["analyze", str(f), "--json"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert json.loads(out)["regime"] == "Danielewski"
    assert peak < 3 * 2**20, f"{peak / 2**20:.2f} MiB"


# the ladder presentation with m = 5 equal weights: a canonical group of order
# 2 * 5! = 240, small enough to be listed element by element
_LADDER_M5 = {
    "weights": [2] * 5,
    "x_present": True,
    "P": [{"y_exponents": [0] * 5, "z_exponent": 3, "coeff": "1"},
          {"y_exponents": [0] * 5, "z_exponent": 1, "coeff": "-2/3"}]
    + [{"y_exponents": [int(i == j) for j in range(5)], "z_exponent": 0, "coeff": "5/2"}
       for i in range(5)],
}
# sha256 of its analyze --json report (410188 bytes), recorded before the
# finite part stopped building its Cayley table
_LADDER_M5_SHA256 = "b7928e271b1d73fb05e5e5065c5e14e7c0a800f70002f968fbd2576cb5fa4350"


def test_report_never_builds_a_cayley_table(capsys, tmp_path):
    """analyze reads only the closure's order of the finite part; no composition table is built."""
    spec = tmp_path / "ladder_m5.json"
    spec.write_text(json.dumps(_LADDER_M5))
    code, out, err = _main_in_process(["analyze", str(spec), "--json"], capsys)
    assert code == 0, err
    G = json.loads(out)["groups"]["G"]
    assert G["order"] == len(G["elements"]) == 240
    assert hashlib.sha256(out.encode()).hexdigest() == _LADDER_M5_SHA256
    code, out, err = _main_in_process(["analyze", fixture_path("s7_e4.json"), "--json"], capsys)
    assert code == 0, err
    assert out == (GOLDEN / "s7_e4.golden.json").read_text()


# ASCII (quotes, backslash, control characters), non-ASCII text, the line and
# paragraph separators and a lone surrogate
_json_text = st.text(
    st.sampled_from([chr(i) for i in range(128)] + list("\u00e9\u4e2d\U0001f600\u2028\u2029\ufeff\ud800")),
    max_size=8,
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**30) | st.integers(max_value=-(10**30)),
    _json_text,
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_json_text, _json_payloads, max_size=5))
@example({"a": [], "b": {}, "c": [[], {}], "d": [True, False, None, 0, -1]})
def test_emit_json_matches_json_dumps(payload):
    from danaut.cli import emit_json

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_json(payload)
    expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert out.getvalue() == expected


def test_emit_json_rejects_other_types():
    from danaut.cli import emit_json

    for bad in ({"x": 1.5}, {"x": [Fraction(1, 2)]}, {"x": {1: "a"}}, {"x": {"y"}}):
        with pytest.raises(TypeError), contextlib.redirect_stdout(io.StringIO()):
            emit_json(bad)


def test_apply_element_by_id_or_signature(tmp_path, capsys):
    """Ids and signatures from the report pick the same element; other regimes keep their errors."""
    bf03 = fixture_path("bf03.json")
    code, out, _ = _main_in_process(["analyze", bf03, "--json"], capsys)
    elements = json.loads(out)["groups"]["G"]["elements"]
    assert code == 0 and len(elements) == 3
    for entry in elements:
        by_id = _main_in_process(["apply", bf03, "x*z + y1^2 - 3*y1", "--element", entry["id"]], capsys)
        by_signature = _main_in_process(
            ["apply", bf03, "x*z + y1^2 - 3*y1", "--element", entry["signature"]], capsys
        )
        assert by_id == by_signature and by_id[0] == 0
    for name in ("e3", "e01", "e\u0661", "E1", "e", "(id; 1)"):
        code, _, err = _main_in_process(["apply", bf03, "z", "--element", name], capsys)
        assert code == 1 and err == f"error: unknown element identifier {name!r}\n"
    code, _, err = _main_in_process(
        ["apply", fixture_path("s5_y14y22.json"), "z", "--element", "e0"], capsys
    )
    assert (code, err) == (1, "error: no enumerated elements available for this presentation\n")
    degenerate = tmp_path / "degen.json"
    degenerate.write_text(
        json.dumps(
            {
                "weights": [1],
                "P": [
                    {"y_exponents": [0], "z_exponent": 2, "coeff": "1"},
                    {"y_exponents": [0], "z_exponent": 0, "coeff": "1"},
                ],
            }
        )
    )
    code, _, err = _main_in_process(["apply", str(degenerate), "z", "--element", "e0"], capsys)
    assert (code, err) == (1, "error: no enumerated elements available for this presentation\n")


def test_apply_element_outside_danielewski_builds_no_analysis(monkeypatch, capsys):
    """Only Danielewski presentations enumerate elements; every other regime
    is refused before any automorphism-group analysis is built."""
    from danaut import cli

    def refuse(spec):
        raise AssertionError("apply --element built an analysis")

    monkeypatch.setattr(cli, "aut_structure", refuse)
    for name in ("unit_y1.json", "line.json"):
        code, out, err = _main_in_process(
            ["apply", fixture_path("maps/" + name), "z", "--element", "e0"], capsys
        )
        assert (code, out, err) == (1, "", "error: no enumerated elements available for this presentation\n")


_fuzz_coeffs = st.sampled_from(["1", "-1", "2", "-3", "1/2", "-2/3"])


def _fuzz_poly(draw, names, max_terms=3):
    """Text of a small polynomial in the given names."""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        factors = [draw(_fuzz_coeffs)]
        for name in names:
            e = draw(st.integers(0, 2))
            if e:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@st.composite
def _fuzz_calls(draw):
    """A presentation (P monic, m <= 3, weights <= 4, z-degree <= 6) and the
    argument tail of one subcommand on it."""
    m = draw(st.integers(1, 3))
    weights = [draw(st.integers(1, 4)) for _ in range(m)]
    x_present = draw(st.booleans())
    d = draw(st.integers(2, 6))
    terms = [([0] * m, d, "1")]
    for _ in range(draw(st.integers(0, 3))):
        ye = [draw(st.integers(0, 2)) if x_present else 0 for _ in range(m)]
        terms.append((ye, draw(st.integers(0, d - 1)), draw(_fuzz_coeffs)))
    spec = _presentation(weights, terms, x_present)
    names = (["x"] if x_present else []) + [f"y{i+1}" for i in range(m)] + ["z"]
    command = draw(st.sampled_from(["analyze", "exp", "apply", "degree", "gr", "irreducible", "genus"]))
    tail = []
    if command == "exp":
        free = ["t"] if draw(st.booleans()) else []
        tail = [_fuzz_poly(draw, [f"y{i+1}" for i in range(m)] + free)]
    elif command == "apply":
        tail = [_fuzz_poly(draw, names)]
        if draw(st.booleans()):
            tail += ["--element", f"e{draw(st.integers(0, 3))}"]
        else:
            images = {n: f"{draw(_fuzz_coeffs)}*{n}" if draw(st.booleans()) else n for n in names}
            tail += ["--map", json.dumps(images)]
    elif command in ("degree", "gr"):
        tail = [_fuzz_poly(draw, names)]
    return spec, command, tail, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_calls())
def test_cli_fuzz_exits_cleanly(tmp_path, capsys, case):
    """Random presentations through every subcommand, in process: exit 0, 1
    or 2, one stderr line and no stdout on failure, --json output that
    parses, and a text Aut structure line equal to the JSON one.  Budget:
    150 derandomized examples, about 2 s on a 2-vCPU host; keep it under 5 s."""
    spec, command, tail, as_json = case
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [command, str(path), *tail] + (["--json"] if as_json else [])
    code, out, err = _main_in_process(argv, capsys)
    assert code in (0, 1, 2), (argv, spec, err)
    if code:
        assert out == "" and err.count("\n") == 1, (argv, spec, err)
        return
    if as_json:
        json.loads(out)
    code, text, _ = _main_in_process(["analyze", str(path)], capsys)
    if code == 0:
        _, out, _ = _main_in_process(["analyze", str(path), "--json"], capsys)
        line = f"Aut structure: {json.loads(out)['structure_pretty']}"
        assert line in text.splitlines(), (spec, text)
