"""One timed sample: a fresh interpreter that imports the CLI and runs a sweep.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Reads a JSON plan on
stdin::

    {"ops": [argv, ...], "trace": false, "spans": null}

runs each argv through ``parafock.cli.main`` in order with stdout captured,
and prints one JSON object on stdout: clock stamps (``time.perf_counter``,
which is CLOCK_MONOTONIC and so comparable with the parent's stamps), the
captured output and exit code of every call, the speed probes, peak RSS,
and, when traced, the span summary and exact counts.  An empty ``ops`` list
only measures start-up.

The cores of a shared machine change speed by up to 2x within seconds, as
neighbouring load comes and goes.  So a fixed calibration kernel is timed
after the import, and then every ``PROBE_INTERVAL_S`` of wall time during
the sweep from a SIGALRM handler; ``run.py`` uses these probes to rescale
the sweep to one reference speed.  The probes take about 2-4% of the time.
"""

import time

import parafock.cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

PROBE_INTERVAL_S = 0.05
SETUP_PROBES = 5

_A = {(i, j, 0, 0): i - j + 1 for i in range(6) for j in range(5)}
_B = {(0, 0, i, j): i * j + 1 for i in range(6) for j in range(5)}


def probe() -> tuple[float, float]:
    """Start and duration of a fixed sparse dict-of-tuples product (900 pairs)."""
    start = time.perf_counter()
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return start, time.perf_counter() - start


def main() -> None:
    setup_probe_s = statistics.median(probe()[1] for _ in range(SETUP_PROBES))
    plan = json.load(sys.stdin)
    recorder = None
    if plan["trace"]:
        import spans

        recorder = spans.install()
    cli = sys.modules["parafock.cli"]
    calls = []
    ticks = [probe()]

    def tick(signum, frame):
        # One-shot timer re-armed after the probe, so probes never nest.
        ticks.append(probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    signal.signal(signal.SIGALRM, tick)
    cpu0 = time.process_time()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
    try:
        for argv in plan["ops"]:
            buf = io.StringIO()
            error = None
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # reported as a failed operation, never fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            calls.append({"exit": code, "stdout": buf.getvalue(), "error": error})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    out = {
        "module": parafock.cli.__file__,
        "ready": READY,
        "setup_probe_s": setup_probe_s,
        "start": start,
        "end": end,
        "ticks": ticks,
        "cpu_s": time.process_time() - cpu0,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
    }
    if recorder is not None:
        out["spans"] = recorder.summary()
        out["counts"] = recorder.counts
        out["span_count"] = len(recorder.start)
        if plan["spans"]:
            recorder.write(plan["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
