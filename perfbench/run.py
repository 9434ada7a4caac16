"""Closed-loop benchmark of the danaut CLI.

One client calls ``danaut.cli.main(argv)`` in-process, waits for each call
to return, and repeats the workload's call list (a "pass") until
``--seconds`` have elapsed; every run starts in a fresh interpreter.
Outputs are checked after the timed passes.  With ``--trace 1`` the run
alternates untraced passes with passes under span wrappers and reports
per-layer metrics instead of end-to-end ones.  See README.md.

    python3 perfbench/run.py --workload analyze_corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170

import spans  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics of the result line, gated by BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "pass_s.p90": "s",
    "peak_rss_mib": "MiB",
}
# Printed, not gated: between runs on a host whose CPU speed drifts, these
# moved by more than any allowed bound (see README.md).
PRINTED_ONLY = {"pass_s": "s", "call_ms.p50": "ms", "call_ms.max": "ms"}

# Spans reported per layer: (name, with total time).
SPANS = (
    ("cli.main", True), ("cli.prepare", True), ("cli.load_spec_file", False),
    ("cli.emit_json", False),
    ("autgroup.aut_structure", True), ("autgroup.canonical_group", True),
    ("autgroup.finite_part_from_elements", True), ("autgroup.compose_elements", False),
    ("autgroup.verify_automorphism", True), ("autgroup.group_element_map", True),
    ("cyclotomic.cyc_root_of_unity", False), ("cyclotomic.CycElem.mul", False),
    ("cyclotomic.CycElem.lift", False),
    ("lattice.solve_torus_system", False), ("lattice.smith_normal_form", False),
    ("lattice.hermite_normal_form", False), ("lattice.diag_group_quotient", False),
    ("poly.MultiPoly.mul", False), ("poly.substitute", False),
    ("poly.reduce_by_rule", False), ("poly.parse_poly", False), ("poly.poly_str", False),
    ("poly.univar_gcd", False),
    ("derivations.exp_replica", True), ("derivations.GeneratorMap.validate", True),
    ("derivations.GeneratorMap.apply_to", True), ("derivations.apply_derivation", False),
    ("varieties.normalize", False), ("varieties.normal_form", False),
    ("varieties.ideal_member", False), ("varieties.irreducibility", False),
    ("varieties.rigidity", False), ("varieties.proper_quasitorus", False),
    ("varieties.additional_quasitorus", False),
    ("report.build_report", True), ("report.canonical_dict", False),
    ("fmt.scalar_str", False), ("fmt.scalar_json", False),
)
# Spans that some workload never calls.  Their times would read 0 on every
# run of that workload, so the result line carries only their call counts;
# the printed summary has their times too.
PARTIAL_SPANS = {
    "autgroup.verify_automorphism", "autgroup.group_element_map", "poly.parse_poly",
    "derivations.GeneratorMap.apply_to", "poly.univar_gcd", "lattice.hermite_normal_form",
    "lattice.diag_group_quotient", "varieties.irreducibility", "varieties.rigidity",
    "varieties.proper_quasitorus", "varieties.additional_quasitorus", "report.build_report",
}
COUNTERS = (
    "autgroup.table_order_sum", "autgroup.tables_skipped", "autgroup.branches_tried",
    "autgroup.branches_feasible", "cyclotomic.max_order", "poly.mul.term_products",
)


def per_layer_names(everything: bool = False) -> dict:
    """The per-layer metrics of the result line (or all printed ones), with units."""
    names = {}
    for span, with_total in SPANS:
        names[f"{span}.calls"] = "count"
        if span in PARTIAL_SPANS and not everything:
            continue
        names[f"{span}.self_s"] = "s"
        if with_total:
            names[f"{span}.total_s"] = "s"
    for c in COUNTERS:
        names[c] = "count"
    names.update({
        "autgroup.compose_per_element": "1",
        "autgroup.branch_yield": "1",
        "poly.mul.terms_per_call": "1",
        "derivations.ideal_checks_per_map": "1",
        "trace.overhead_s": "s",
        "trace.coverage": "1",
    })
    return names


# -- calls ---------------------------------------------------------------------------


def run_call(main, argv):
    """(exit code or None on a traceback, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "danaut", "__init__.py")):
        raise SystemExit(f"error: no danaut sources under {SRC}")
    sys.path.insert(0, SRC)
    import danaut.cli

    return danaut.cli


def prepare_inputs(workload: str, seed: int, scale: str, directory: str):
    inputs = workloads.generate(workload, seed, ROOT, scale)
    inputs.write(directory)
    argvs = [
        [os.path.join(directory, a) if a in inputs.files else a for a in call.argv]
        for call in inputs.calls
    ]
    return inputs, argvs


def measure_setup(args, directory: str) -> tuple:
    """Wall time of fresh interpreters that import danaut and write the inputs."""
    samples, digests = [], set()
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", directory,
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        digests.add(proc.stdout.strip())
    return samples, digests


# -- passes --------------------------------------------------------------------------


class Run:
    def __init__(self, cli, inputs, argvs, output_dir: str):
        self.cli = cli  # main is looked up per call, so installed spans take effect
        self.inputs = inputs
        self.argvs = argvs
        # Outputs of the first pass go to disk and only their digests stay in
        # memory, so peak_rss_mib does not grow with the number of passes.
        self.output_dir = output_dir
        os.makedirs(output_dir, exist_ok=True)
        self.first: list = [None] * len(argvs)  # (code, stdout digest, stderr) of pass 1
        self.mismatched: set = set()  # call indices whose output changed between passes
        self.pass_s: list = []
        self.call_s: list = []  # (call index, seconds) over all passes
        self.pass_max_s: list = []

    def output(self, i: int) -> str:
        with open(os.path.join(self.output_dir, f"{i}.out"), encoding="utf-8") as fh:
            return fh.read()

    def one_pass(self) -> float:
        gc.collect()
        start = time.perf_counter()
        slowest = 0.0
        for i, argv in enumerate(self.argvs):
            code, out, err, seconds = run_call(self.cli.main, argv)
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self.first[i] is None:
                self.first[i] = (code, digest, err)
                with open(os.path.join(self.output_dir, f"{i}.out"), "w", encoding="utf-8") as fh:
                    fh.write(out)
            elif self.first[i][:2] != (code, digest):
                self.mismatched.add(i)
            del out
            self.call_s.append((i, seconds))
            slowest = max(slowest, seconds)
        elapsed = time.perf_counter() - start
        self.pass_max_s.append(slowest)
        return elapsed


def check_outputs(run: Run, input_dir: str) -> dict:
    """Call index -> failure message, for every call whose output is wrong."""
    import checks

    checker = checks.Checker(
        ROOT, input_dir, run.inputs.files, lambda argv: run_call(run.cli.main, argv)[:3]
    )
    failures = {}
    for i, call in enumerate(run.inputs.calls):
        code, _, err = run.first[i]
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            failures[i] = f"exit {code}: {last[0]}"
        elif i in run.mismatched:
            failures[i] = "output changed between passes"
        else:
            msg = checker.check(call, run.output(i))
            if msg:
                failures[i] = msg
    return failures


def tail(values: list):
    """Highest whole percentile with at least ten values beyond it."""
    n = len(values)
    if n < 100:
        return None
    xs = sorted(values)
    p = math.floor(100 * (n - 10) / n)
    k = math.ceil(p * n / 100)
    return p, xs[k - 1], n


def upper_decile(values: list) -> float:
    """The 90th percentile, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def rung_times(run: Run) -> dict:
    times: dict = {}
    for i, seconds in run.call_s:
        times.setdefault(run.inputs.calls[i].label, []).append(seconds)
    return {label: statistics.median(v) for label, v in times.items()}


# -- the two kinds of run -------------------------------------------------------------


def measure(args, run: Run) -> dict:
    if spans.installed_wrappers():
        raise RuntimeError("span wrappers are installed in an untraced run")
    start = time.perf_counter()
    while True:
        run.pass_s.append(run.one_pass())
        if time.perf_counter() - start >= args.seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans.installed_wrappers():
        raise RuntimeError("span wrappers appeared during an untraced run")
    ms = [s * 1000 for _, s in run.call_s]
    return {
        "pass_s": statistics.median(run.pass_s),
        "pass_s.p90": upper_decile(run.pass_s),
        "call_ms.p50": statistics.median(ms),
        "call_ms.max": statistics.median(run.pass_max_s) * 1000,
        "peak_rss_mib": rss_mib,
    }


def measure_traced(args, run: Run, spans_path: str) -> tuple:
    """Alternate untraced and traced passes; layer numbers come from the first traced one."""
    tracer = spans.Tracer()
    plain, traced, snapshot = [], [], None
    start = time.perf_counter()
    while True:
        run.pass_s.append(run.one_pass())
        plain.append(run.pass_s[-1])
        tracer.reset()
        tracer.install()
        try:
            elapsed = run.one_pass()
        finally:
            tracer.uninstall()
        run.pass_s.append(elapsed)
        traced.append(elapsed)
        if snapshot is None:
            snapshot = (tracer.table(), dict(tracer.counters), elapsed)
            tracer.write(spans_path)
        if time.perf_counter() - start >= args.seconds:
            break
    if spans.installed_wrappers():
        raise RuntimeError("span wrappers left installed after the traced run")
    table, counters, traced_pass_s = snapshot
    metrics = {}
    for span, with_total in SPANS:
        row = table.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{span}.calls"] = row["calls"]
        metrics[f"{span}.self_s"] = row["self_s"]
        if with_total:
            metrics[f"{span}.total_s"] = row["total_s"]
    for c in COUNTERS:
        metrics[c] = counters.get(c, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    maps = sum(1 for argv in run.argvs if argv[0] in ("exp", "apply"))
    metrics["autgroup.compose_per_element"] = ratio(
        metrics["autgroup.compose_elements.calls"], metrics["autgroup.table_order_sum"])
    metrics["autgroup.branch_yield"] = ratio(
        metrics["autgroup.branches_feasible"], metrics["autgroup.branches_tried"])
    metrics["poly.mul.terms_per_call"] = ratio(
        metrics["poly.mul.term_products"], metrics["poly.MultiPoly.mul.calls"])
    metrics["derivations.ideal_checks_per_map"] = ratio(
        metrics["varieties.ideal_member.calls"], maps)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.coverage"] = ratio(metrics["cli.main.total_s"], traced_pass_s)
    return metrics, table, {"maps": maps, "plain_pass_s": plain, "traced_pass_s": traced}


# -- reporting -----------------------------------------------------------------------


def print_summary(args, run, metrics, extra, failures, digest, setup_samples):
    calls = len(run.call_s)
    print(f"# danaut benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(run.pass_s)} calls={calls} "
          f"inputs_sha256={digest}")
    if args.trace == 0:
        counts = {"setup_s": f"n={len(setup_samples)} set-ups", "pass_s": f"median of n={len(run.pass_s)} passes",
                  "pass_s.p90": f"upper decile of n={len(run.pass_s)} passes",
                  "call_ms.p50": f"n={calls} calls", "call_ms.max": f"median of n={len(run.pass_s)} pass maxima",
                  "peak_rss_mib": "ru_maxrss of this process"}
        for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
            print(f"{name:<28} {metrics[name]:>14.4f} {unit:<5} ({counts[name]})")
        t = tail([s * 1000 for _, s in run.call_s])
        if t:
            p, value, n = t
            print(f"{'call_ms.tail':<28} {value:>14.4f} ms    (p{p}, {n - math.ceil(p * n / 100)} "
                  f"of n={n} calls beyond it)")
        if args.workload == "group_ladders":
            rungs = rung_times(run)
            for ladder, values in (("m", workloads.LADDER_M), ("d", workloads.LADDER_D),
                                   ("n", workloads.LADDER_N)):
                present = [v for v in values if f"ladder_{ladder}.{ladder}{v}" in rungs]
                for v in present:
                    print(f"{f'ladder_{ladder}.{ladder}{v}_s':<28} "
                          f"{rungs[f'ladder_{ladder}.{ladder}{v}']:>14.4f} s")
                if present:
                    print(f"{f'ladder_{ladder}.top_s':<28} "
                          f"{rungs[f'ladder_{ladder}.{ladder}{present[-1]}']:>14.4f} s     "
                          f"(largest rung {ladder}={present[-1]}, n={len(run.pass_s)} passes)")
    else:
        for name, unit in per_layer_names(everything=True).items():
            print(f"{name:<44} {metrics[name]:>16.6f} {unit}")
        print(f"# untraced passes {extra['plain_pass_s']}, traced passes {extra['traced_pass_s']}, "
              f"exp/apply calls per pass {extra['maps']}")
        print("# top spans by self time in the first traced pass:")
        table = extra["table"]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
            print(f"#   {name:<44} calls={row['calls']:<9} self_s={row['self_s']:.4f} "
                  f"total_s={row['total_s']:.4f}")
    attempted = calls
    print(f"{'error_ratio':<28} {(extra['failed'] / attempted):>14.4f} 1     "
          f"({extra['failed']} failed of {attempted} attempted)")
    for i, msg in sorted(failures.items()):
        print(f"# FAILED {run.inputs.calls[i].label}: {msg}")


def run_workload(args) -> int:
    name = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.scale == "tiny" else "")
    work = os.path.join(WORK, name)
    os.makedirs(work, exist_ok=True)
    cli = load_cli()
    setup_samples, child_digests = measure_setup(args, os.path.join(work, "setup"))
    input_dir = os.path.join(work, "inputs")
    inputs, argvs = prepare_inputs(args.workload, args.seed, args.scale, input_dir)
    digest = inputs.digest()
    run = Run(cli, inputs, argvs, os.path.join(work, "outputs"))
    if args.trace:
        metrics, table, extra = measure_traced(args, run, os.path.join(work, "spans.jsonl"))
        extra["table"] = table
        units = per_layer_names()
    else:
        metrics, extra = measure(args, run), {}
        metrics["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END
    failures = check_outputs(run, input_dir)
    failed = sum(1 for i, _ in run.call_s if i in failures)
    extra["failed"] = failed
    correct = not failures and child_digests == {digest}
    print_summary(args, run, metrics, extra, failures, digest, setup_samples)
    if child_digests != {digest}:
        print(f"# FAILED set-up digests {sorted(child_digests)} differ from {digest}")
    result = {
        "correct": correct,
        "attempted": len(run.call_s),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, inputs_sha256=digest, seed=args.seed,
                       workload=args.workload, trace=args.trace), fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few calls of each kind (self-tests)")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        load_cli()
        inputs, _ = prepare_inputs(args.workload, args.seed, args.scale, args.setup_only)
        print(inputs.digest())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
