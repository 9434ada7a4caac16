"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import os
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

RUN = os.path.join(run.HERE, "run.py")


def run_tiny(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def benchmark_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_and_checks(workload):
    result, out = run_tiny(workload, 0)
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_declared_per_layer_metrics():
    result, out = run_tiny("automorphism_maps", 1)
    assert result["correct"], out
    declared = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["cli.main.calls"]["value"] > 0


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 3, run.ROOT)
        b = workloads.generate(workload, 3, run.ROOT)
        c = workloads.generate(workload, 4, run.ROOT)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


def test_wrappers_cover_every_binding_and_are_removed():
    cli = run.load_cli()
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        import danaut.autgroup
        import danaut.derivations
        import danaut.poly
        import danaut.varieties

        for mod in (danaut.poly, danaut.varieties, danaut.derivations, danaut.autgroup):
            assert getattr(mod.substitute, spans.MARK) == "poly.substitute"
        assert getattr(danaut.poly.MultiPoly.__mul__, spans.MARK) == "poly.MultiPoly.mul"
        installed = spans.installed_wrappers()
        assert "derivations.GeneratorMap.validate" in installed
        assert "cli.main" in installed
        code, _, _, _ = run.run_call(cli.main, ["analyze", os.path.join(
            run.ROOT, "tests", "fixtures", "s7_e4.json"), "--json"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    table = tracer.table()
    assert table["cli.main"]["calls"] == 1
    assert table["autgroup.canonical_group"]["calls"] == 1
    assert tracer.counters["autgroup.branches_tried"] == 2


def test_checks_reject_wrong_outputs(tmp_path):
    cli = run.load_cli()
    inputs, argvs = run.prepare_inputs("automorphism_maps", 5, "tiny", str(tmp_path))
    checker = checks.Checker(run.ROOT, str(tmp_path), inputs.files,
                             lambda argv: run.run_call(cli.main, argv)[:3])
    for call, argv in zip(inputs.calls, argvs):
        code, out, _, _ = run.run_call(cli.main, argv)
        assert code == 0
        assert checker.check(call, out) == "", call.label
        payload = json.loads(out)
        key = next(iter(payload))
        if key == "images":
            payload["images"]["z"] += " + 1"
        elif key == "degree":
            payload["degree"] += 1
        else:
            payload[key] += " + y1"
        assert checker.check(call, json.dumps(payload)) != "", call.label


def test_golden_check_is_byte_exact():
    call = workloads.Call("analyze.s7_e4", [], {"kind": "golden", "fixture": "s7_e4"})
    checker = checks.Checker(run.ROOT, "", {}, None)
    path = os.path.join(run.ROOT, "tests", "golden", "s7_e4.golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = fh.read()
    assert checker.check(call, golden) == ""
    assert checker.check(call, golden.rstrip("\n")) != ""
