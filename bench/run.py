#!/usr/bin/env python3
"""parafock benchmark: cold-process CLI sweeps, layer-traced from outside.

Run from the repository root::

    python3 bench/run.py --workload jt-identities --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ``parafock.cli.main(argv)`` calls; the
CLI's ``--n 1..4``-style ranges are expanded to one call per case so that
``--seed`` can permute their order: each sample of a run takes the next
shuffle of a generator seeded with it (the set of cases and the expected
outputs do not depend on the seed).  A sample is one fresh, single-threaded
interpreter (``sample.py``) that runs the whole sweep, one call after the
other: a closed loop with one client and nothing concurrent.  A CLI user
starts cold on every invocation, so nothing cached in one sample can help
the next.  The sweep clock starts after ``import parafock.cli`` and stops
after the last report is written.

A run takes samples until the next one would overrun ``--seconds`` (at
least one; a traced run takes at least two traced samples and one plain
one).  Start-up is timed on every spawn, plus five spawns that only import
the CLI.  Every call's stdout and exit code are compared byte for byte with
``expected/<workload>.json``, which holds the outputs of the same calls
recorded from separate ``python -m parafock`` processes: one line per
operation (one verify report, or one cohomology/w1 command).

``--trace 0`` reports the end-to-end metrics: medians of the times over
the run, and the highest peak RSS of its samples, since the peak of a
process depends on the order of its calls;
``--trace 1`` alternates traced and plain samples and reports per-layer
metrics from the traced ones (see ``spans.py``), the tracing overhead
against the plain ones, and fails the correctness check unless the exact
counts of every traced sample agree.  The last stdout line is the JSON
result; the lines before it name every metric with its unit, the quartiles
and the environment.  A full record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_SPAWNS = 5
# Reference speed: the calibration kernel in sample.py takes this long on an
# unloaded core of a 2-core Intel Xeon (Python 3.11); loaded, about 1.8 ms.
PROBE_REF_S = 0.001
RUN_LIMIT_S = 170.0  # every child is killed before the run could pass this


def _verify(identity, extra=(), *, n, p, m=(None,)):
    """One verify call per case, in the CLI's own sweep order (n, m, p)."""
    return [
        ["verify", "--identity", identity, "--n", str(nn)]
        + ([] if mm is None else ["--m", str(mm)])
        + ["--p", str(pp), *extra]
        for nn in n
        for mm in m
        for pp in p
    ]


WORKLOADS = {
    # Exact Jacobi-Trudi minors: MultiPoly.__mul__ is ~93% of the time.
    # Includes the symmetric-denominator paraboson variant, a known failure.
    "jt-identities": _verify("parafermion", n=range(1, 5), p=range(0, 4))
    + _verify("paraboson", ("--degree", "10", "--alt-denominator"), n=[4], p=range(1, 4)),
    # Truncated hook-Schur series: self-conjugate enumeration is ~89%.
    "hook-series": _verify("parastat", ("--degree", "8"), n=(1, 2), m=(1, 2), p=(1, 2))
    + _verify("parastat", ("--degree", "14"), n=[1], m=[1], p=(1, 2)),
    # Laurent alternants, coset walk and both cohomology routes.
    "weyl-laurent": _verify("weyl-character", n=range(1, 6), p=range(0, 3))
    + [
        ["cohomology", "--route", "w1", "--n", "8", "--p", "2", "--force"],
        ["cohomology", "--route", "partitions", "--n", "8", "--p", "2", "--force"],
        ["w1", "--n", "6"],
    ],
}


COUNT_METRICS = (
    "polyring.mul.calls",
    "polyring.mul.term_pairs",
    "polyring.mul.terms_out",
    "polyring.add.calls",
    "polyring.series_mul.calls",
    "polyring.series_mul.terms_out",
    "schur.schur.calls",
    "schur.schur_sum.calls",
    "schur.h.calls",
    "schur.hook_schur.calls",
    "partitions.self_conjugate_yielded",
    "partitions.augment_arms.calls",
    "partitions.frobenius_decompose.calls",
    "weyl.alternant.calls",
    "weyl.alternant.terms_out",
    "weyl.phi_sigma.calls",
    "weyl.w1_element.calls",
    "kostant.verify.calls",
    "kostant.cohomology.calls",
    "kostant.compare.terms_scanned",
    "cli.main.calls",
    "cli.output_bytes",
    "trace.spans",
)
# metric -> (span name, field); "partitions" sums every partitions.* span
TIME_METRICS = {
    "polyring.mul.self_s": ("polyring.mul", "self_s"),
    "polyring.add.self_s": ("polyring.add", "self_s"),
    "polyring.series_mul.self_s": ("polyring.series_mul", "self_s"),
    "schur.schur.self_s": ("schur.schur", "self_s"),
    "schur.schur.incl_s": ("schur.schur", "incl_s"),
    "schur.schur_sum.incl_s": ("schur.schur_sum", "incl_s"),
    "schur.hook_schur.self_s": ("schur.hook_schur", "self_s"),
    "schur.hook_schur.incl_s": ("schur.hook_schur", "incl_s"),
    "partitions.self_s": ("partitions", "self_s"),
    "weyl.alternant.self_s": ("weyl.alternant", "self_s"),
    "weyl.phi_sigma.self_s": ("weyl.phi_sigma", "self_s"),
    "kostant.verify.self_s": ("kostant.verify", "self_s"),
    "kostant.cohomology.self_s": ("kostant.cohomology", "self_s"),
    "kostant.branching_character.incl_s": ("kostant.branching_character", "incl_s"),
    "kostant.compare.self_s": ("kostant.compare", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def _spawn(ops, *, trace=False, spans=None, timeout):
    """Run one sample process; return its report with the derived timings."""
    plan = json.dumps({"ops": ops, "trace": trace, "spans": spans})
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py")],
        input=plan,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )
    t_exit = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    if not Path(report["module"]).resolve().is_relative_to(SRC):
        raise SetupError(f"parafock imported from {report['module']}, not from {SRC}")
    # Interval k runs from probe k to probe k + 1 (probe 0 just before the
    # sweep); its work, minus the probe itself, is rescaled by probe k.
    ticks = report["ticks"]
    bounds = [report["start"]] + [t for t, _ in ticks[1:]] + [report["end"]]
    sweep_s = 0.0
    for k, (_, probe_s) in enumerate(ticks):
        work = bounds[k + 1] - bounds[k] - (probe_s if k else 0.0)
        sweep_s += work * PROBE_REF_S / probe_s
    report["sweep_s"] = sweep_s
    report["sweep_wall_s"] = report["end"] - report["start"]
    report["setup_wall_s"] = report["ready"] - t_spawn
    report["setup_s"] = report["setup_wall_s"] * PROBE_REF_S / report["setup_probe_s"]
    report["process_s"] = t_exit - t_spawn
    return report


def _load_expected(workload):
    path = BENCH / "expected" / f"{workload}.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    by_argv = {json.dumps(c["argv"]): c for c in expected["calls"]}
    if sorted(by_argv) != sorted(json.dumps(a) for a in WORKLOADS[workload]):
        raise SetupError(f"{path} does not list exactly the calls of {workload}")
    return by_argv


def _failed_ops(expected, got):
    """Operations of one call whose output differs from the recorded one."""
    reports = expected["reports"]
    if got["error"] is not None or got["exit"] != expected["exit"]:
        return len(reports)
    lines = got["stdout"].split("\n")
    bad = sum(1 for i, r in enumerate(reports) if i >= len(lines) or lines[i] != r)
    if bad == 0 and lines != reports + [""]:
        bad = 1  # trailing output beyond the recorded reports
    return bad


def _exact_counts(report):
    spans = report["spans"]
    counts = dict(report["counts"])
    for name, agg in spans.items():
        counts[f"{name}.calls"] = agg["calls"]
    counts["cli.output_bytes"] = sum(len(c["stdout"].encode()) for c in report["calls"])
    counts["trace.spans"] = report["span_count"]
    return counts


def _span_time(report, name, field):
    """Span seconds rescaled to the reference speed like the sample's sweep.

    Probes interrupt whichever span is open, in proportion to its wall time,
    so one factor per sample removes them along with the speed changes.
    """
    spans = report["spans"]
    if name == "partitions":
        raw = sum(v[field] for k, v in spans.items() if k.startswith("partitions."))
    else:
        raw = spans[name][field]
    return raw * report["sweep_s"] / report["sweep_wall_s"]


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(traced, plain):
    counts = _exact_counts(traced[0])
    metrics = {name: (counts.get(name, 0), "count") for name in COUNT_METRICS}
    for name, (span, field) in TIME_METRICS.items():
        metrics[name] = (statistics.median(_span_time(r, span, field) for r in traced), "s")
    metrics["schur.h.cache_hit_ratio"] = (
        _ratio(counts.get("schur.h.hits", 0), counts.get("schur.h.cacheable", 0)),
        "ratio",
    )
    metrics["kostant.compare.in_bound_ratio"] = (
        _ratio(counts.get("kostant.compare.in_bound", 0), counts.get("kostant.compare.terms_scanned", 0)),
        "ratio",
    )
    traced_sweep = statistics.median(r["sweep_s"] for r in traced)
    plain_sweep = statistics.median(r["sweep_s"] for r in plain)
    metrics["trace.overhead_ratio"] = (traced_sweep / plain_sweep - 1.0, "ratio")
    return metrics


def _environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload, seed, seconds, trace):
    if not (SRC / "parafock" / "cli.py").is_file():
        raise SetupError(f"no parafock sources under {SRC}")
    expected = _load_expected(workload)
    ops = [list(a) for a in WORKLOADS[workload]]
    shuffler = random.Random(seed)
    n_ops = sum(len(c["reports"]) for c in expected.values())
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.jsonl"

    began = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - began)

    try:
        _spawn([], timeout=remaining())  # fills __pycache__; not timed
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        raise SetupError(f"the CLI does not start: {exc}") from exc
    t0 = time.perf_counter()
    spawns = [_spawn([], timeout=remaining()) for _ in range(IMPORT_SPAWNS)]
    plain, traced = [], []
    attempted = failed = 0
    problems = []
    while True:
        traced_turn = trace and len(traced) <= len(plain)
        shuffler.shuffle(ops)
        attempted += n_ops
        try:
            report = _spawn(
                ops,
                trace=traced_turn,
                spans=str(spans_path) if traced_turn else None,
                timeout=remaining(),
            )
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            failed += n_ops
            problems.append(f"sample failed: {exc}")
            break
        failed += sum(_failed_ops(expected[json.dumps(a)], c) for a, c in zip(ops, report["calls"]))
        spawns.append(report)
        (traced if traced_turn else plain).append(report)
        enough = len(traced) >= 2 and len(plain) >= 1 if trace else len(plain) >= 1
        next_s = statistics.median(r["process_s"] for r in plain + traced)
        if enough and time.perf_counter() - t0 + next_s > seconds:
            break

    if not plain or (trace and len(traced) < 2):
        raise SetupError("; ".join(problems) or "no sample completed")
    if trace:
        first = _exact_counts(traced[0])
        for other in traced[1:]:
            if _exact_counts(other) != first:
                problems.append("exact counts differ between traced samples")
        metrics = _layer_metrics(traced, plain)
    else:
        metrics = {
            "sweep_s": (statistics.median(r["sweep_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in spawns), "s"),
            "peak_rss_mib": (max(r["maxrss_kib"] / 1024 for r in plain), "MiB"),
        }

    env = _environment(seed)
    series = {
        "sweep_s": [r["sweep_s"] for r in plain],
        "sweep_wall_s": [r["sweep_wall_s"] for r in plain],
        "sweep_cpu_s": [r["cpu_s"] for r in plain],
        "traced_sweep_s": [r["sweep_s"] for r in traced],
        "setup_s": [r["setup_s"] for r in spawns],
        "setup_wall_s": [r["setup_wall_s"] for r in spawns],
    }
    summary = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "env": env,
        "operations_per_sample": n_ops,
        "samples": series,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  seconds {seconds}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, values in series.items():
        if values:
            p25, p75 = _quartiles(values)
            print(
                f"samples {name}: n {len(values)}  p25 {p25:.4f}  "
                f"median {statistics.median(values):.4f}  p75 {p75:.4f} s"
            )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_ratio {_ratio(failed, attempted)} ratio ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record {record.relative_to(ROOT)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="permutes the order of the calls")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
