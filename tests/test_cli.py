"""Command-line interface: output contracts, determinism, exit codes."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from parafock.cli import COMMANDS, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- polynomial commands ----------------------------------------------------------

def test_schur_json(capsys):
    code, out, err = run(capsys, "schur", "--lambda", "2,1", "--n", "2")
    assert code == 0 and err == ""
    assert json.loads(out) == [
        {"exp": [2, 4], "coef": "1"},
        {"exp": [4, 2], "coef": "1"},
    ]


def test_schur_tsv(capsys):
    code, out, _ = run(capsys, "schur", "--lambda", "1", "--n", "2", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["exp\tcoef", "0,2\t1", "2,0\t1"]
    code, out, _ = run(
        capsys, "hook-schur", "--lambda", "2,1", "--n", "1", "--m", "1", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == ["exp\tcoef", "2,4\t1", "4,2\t1"]


def test_schur_empty_partition_spellings(capsys):
    for spelling in ("", "0"):
        code, out, _ = run(capsys, "schur", "--lambda", spelling, "--n", "2")
        assert code == 0
        assert json.loads(out) == [{"exp": [0, 0], "coef": "1"}]


def test_schur_algorithms_agree_through_cli(capsys):
    outputs = set()
    for algorithm in ("gt", "jt", "alt", "tab"):
        code, out, _ = run(
            capsys, "schur", "--lambda", "3,1", "--n", "3", "--algorithm", algorithm
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_hook_schur_json(capsys):
    code, out, _ = run(capsys, "hook-schur", "--lambda", "1", "--n", "1", "--m", "1")
    assert code == 0
    assert json.loads(out) == [
        {"exp": [0, 2], "coef": "1"},
        {"exp": [2, 0], "coef": "1"},
    ]


def test_branch_json(capsys):
    code, out, _ = run(capsys, "branch", "--n", "1", "--p", "2")
    assert code == 0
    assert json.loads(out) == [
        {"exp": [0], "coef": "1"},
        {"exp": [2], "coef": "1"},
        {"exp": [4], "coef": "1"},
    ]


# -- table commands ------------------------------------------------------------------

def test_w1_tsv(capsys):
    code, out, _ = run(capsys, "w1", "--n", "2", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "I\tword\tsigns\tnum_phi\tmu",
        "\t1,2\t1,1\t0\t",
        "1\t2,1\t-1,1\t2\t2,1",
        "2\t1,2\t1,-1\t1\t1",
        "1,2\t2,1\t-1,-1\t3\t2,2",
    ]


def test_w1_json_row_shape(capsys):
    code, out, _ = run(capsys, "w1", "--n", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[0] == {"I": [], "word": [1, 2, 3], "signs": [1, 1, 1], "num_phi": 0, "mu": []}
    by_subset = {tuple(r["I"]): r for r in rows}
    assert by_subset[(1, 3)]["word"] == [3, 1, 2]
    assert by_subset[(1, 3)]["num_phi"] == 4


# sha256 and line count of the whole stdout of ``w1 --n k``, k = 1..8,
# recorded when the route still counted Phi_sigma by a scan over every root
W1_OUTPUT_PINS = {
    "json": {
        1: (1, "2114a80f5aaeed4c7d9b8898921b19b717715a8892473b268b1966e2293fc2a7"),
        2: (1, "0a3f36020778db77e12981122172adceb5beff4f1757d9d0fc650ce1fcc5dad7"),
        3: (1, "3d1f7006f14cde64b4515727467a6736fd100248164428b1877c29c482704f98"),
        4: (1, "f48b347d0ca11b80b3bf30d5d40dcd5481b7e5bc7be170bfb2fe999768f2a87c"),
        5: (1, "dbae2b7bf5076802045bbee61f4328664ce786ec2183be7305908897988b2782"),
        6: (1, "8da204d7d6d5c129b269c58675bf0a427966259f066e3d0d3a43d58beae5da65"),
        7: (1, "c0caf7216f341452fb1e59e5636449dce9cddbbe18d7ac69f057923c1c75b8a4"),
        8: (1, "241f00f5d82590f31a4e2bc19a7925ea27f5b443a31ff2d74a8742b7d502d422"),
    },
    "tsv": {
        1: (3, "9c365b93c34f8dd7e25972e97cb5b605d941ddd605098eb36e56e74d9a7557bd"),
        2: (5, "adc974eac51ca98840545a7abd07f205768abd7ffb535ff5b200bac27198d191"),
        3: (9, "a3eee373f3f95433f4597df753949946664dfffc0986a62b86cad15fae41571f"),
        4: (17, "a9721d7200670d6a52235f17cdebbdb0312973067778935d2d8219eefa85ba2f"),
        5: (33, "e1e3dd7912b77307a501c7a455b8f3d6f50491e28e500c86ffe092a2fc9a0a0c"),
        6: (65, "56fefb024a64364266c59a20b5c68bc241929ffded04e58016ca9796565e2a4c"),
        7: (129, "ee6190e89913794df5f25a23cc4d103f0220bd0ec209722f86b928988b7b0cb3"),
        8: (257, "5b9b814bf44148099072ea7c944a9b21e2c634b66bb841ecff3edc181e23878e"),
    },
}


@pytest.mark.parametrize("fmt", sorted(W1_OUTPUT_PINS))
def test_w1_output_is_pinned(capsys, fmt):
    for k, (lines, digest) in W1_OUTPUT_PINS[fmt].items():
        force = ("--force",) if k > 6 else ()
        code, out, err = run(capsys, "w1", "--n", str(k), "--format", fmt, *force)
        assert code == 0 and err == ""
        assert len(out.splitlines()) == lines, (fmt, k)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, k)


def test_cohomology_json_both_routes(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "2", "--p", "1")
    assert code == 0
    assert json.loads(out) == [
        {"k": 0, "mu": [], "source": {"mu": []}},
        {"k": 1, "mu": [2], "source": {"mu": [1]}},
        {"k": 2, "mu": [3, 1], "source": {"mu": [2, 1]}},
        {"k": 3, "mu": [3, 3], "source": {"mu": [2, 2]}},
    ]
    code, out, _ = run(capsys, "cohomology", "--n", "2", "--p", "1", "--route", "w1")
    assert code == 0
    assert json.loads(out) == [
        {"k": 0, "mu": [], "source": {"I": []}},
        {"k": 1, "mu": [2], "source": {"I": [2]}},
        {"k": 2, "mu": [3, 1], "source": {"I": [1]}},
        {"k": 3, "mu": [3, 3], "source": {"I": [1, 2]}},
    ]


def test_cohomology_tsv(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--n", "1", "--p", "2", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == [
        "k\tmu\tsource_kind\tsource",
        "0\t\tmu\t",
        "1\t3\tmu\t1",
    ]
    code, out, _ = run(
        capsys, "cohomology", "--route", "w1", "--n", "2", "--p", "1", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == [
        "k\tmu\tsource_kind\tsource",
        "0\t\tI\t",
        "1\t2\tI\t2",
        "2\t3,1\tI\t1",
        "3\t3,3\tI\t1,2",
    ]


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--n", "2", "--p", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim_so"] == 10 and obj["sum_dim_gl"] == 10 and obj["match"] is True
    assert obj["by_lambda"] == [
        {"lambda": [], "dim": 1},
        {"lambda": [1], "dim": 2},
        {"lambda": [2], "dim": 3},
        {"lambda": [1, 1], "dim": 1},
        {"lambda": [2, 1], "dim": 2},
        {"lambda": [2, 2], "dim": 1},
    ]


def test_dims_tsv(capsys):
    code, out, _ = run(capsys, "dims", "--n", "1", "--p", "1", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "lambda:\t1",
        "lambda:1\t1",
        "sum_dim_gl\t2",
        "dim_so\t2",
        "match\ttrue",
    ]


# -- verify -----------------------------------------------------------------------------

def test_verify_emits_one_json_line_per_case(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "parafermion", "--n", "1..2", "--p", "0..1"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    seen = []
    for line in lines:
        obj = json.loads(line)
        assert obj["status"] == "pass"
        assert obj["millis"] == 0
        seen.append((obj["n"], obj["p"]))
    assert seen == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_verify_is_byte_deterministic(capsys):
    argv = ("verify", "--identity", "paraboson", "--n", "1..2", "--p", "1", "--degree", "6")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_rejects_the_removed_sweep_flag(capsys):
    # ranges in --n/--m/--p always sweep, so verify has no --sweep marker
    code, out, err = run(capsys, "verify", "--identity", "parafermion", "--n", "1..2",
                         "--p", "1", "--sweep")
    assert code == 2
    assert out == ""
    assert "error: unrecognized arguments: --sweep" in err


def test_schur_rejects_the_removed_odd_variable_flag(capsys):
    # schur runs in even variables only; hook-schur takes --m
    code, out, err = run(capsys, "schur", "--lambda", "2,1", "--n", "2", "--m", "1")
    assert code == 2
    assert out == ""
    assert "error: unrecognized arguments: --m 1" in err


def test_verify_timings_flag_unzeroes_millis(capsys):
    base = ("verify", "--identity", "parafermion", "--n", "1", "--p", "1")
    _, out, _ = run(capsys, *base, "--timings")
    obj = json.loads(out)
    assert isinstance(obj["millis"], int) and obj["millis"] >= 0


def test_only_verify_timings_reads_a_clock(capsys, monkeypatch):
    cases = [
        (("--identity", "paraboson", "--n", "1..2", "--p", "1", "--alt-denominator"), 4),
        (("--identity", "paraboson", "--n", "1..2", "--p", "1"), 2),
        (("--identity", "parafermion", "--n", "1..2", "--p", "1"), 2),
    ]
    for argv, count in cases:
        reads = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda reads=reads: float(next(reads)))
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert [json.loads(line)["millis"] for line in out.splitlines()] == [0] * count
        assert next(reads) == 0
        # the clock advances a second per read, and the CLI reads it exactly
        # twice per report, around the work that builds it: both reports of a
        # paraboson pair, which share one carry, too
        code, out, _ = run(capsys, "verify", *argv, "--timings")
        assert code == 0
        assert [json.loads(line)["millis"] for line in out.splitlines()] == [1000] * count
        assert next(reads) == 1 + 2 * count, argv


def test_verify_weyl_character(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "weyl-character", "--n", "1..2", "--p", "0..2"
    )
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert obj["status"] == "pass" and obj["degree"] is None


def test_verify_weyl_character_beyond_the_alternant_limit(capsys):
    # the n = 7 alternant alone has 2^7 * 7! = 645,120 terms; a pass never builds it
    code, out, _ = run(
        capsys,
        "verify", "--identity", "weyl-character", "--n", "6..7", "--p", "0..2", "--force",
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["n"], r["p"]) for r in reports] == [(n, p) for n in (6, 7) for p in range(3)]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_parastat_requires_m(capsys):
    code, out, err = run(
        capsys, "verify", "--identity", "parastat", "--n", "1", "--p", "1"
    )
    assert code == 2
    assert out == ""
    assert "parastat needs --m" in err


def test_verify_parastat_sweeps_m(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "parastat",
        "--n", "1", "--m", "1..2", "--p", "1", "--degree", "4",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(o["n"], o["m"], o["p"]) for o in lines] == [(1, 1, 1), (1, 2, 1)]
    for obj in lines:
        assert obj["conjecture"] is True
        assert obj["degree"] == 4


def test_verify_parastat_at_degree_forty(capsys):
    # the 20 x 20 square holds 2^20 diagrams; the check builds only the 371 that fit
    code, out, _ = run(
        capsys,
        "verify", "--identity", "parastat",
        "--n", "1", "--m", "1", "--p", "1..2", "--degree", "40", "--strict",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(o["p"], o["degree"], o["status"]) for o in lines] == [(1, 40, "pass"), (2, 40, "pass")]


def test_verify_strict_alt_denominator_reports_failure(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "paraboson",
        "--n", "1", "--p", "1", "--strict", "--alt-denominator",
    )
    assert code == 1
    printed, symmetric = (json.loads(line) for line in out.splitlines())
    assert printed["denominator"] == "printed" and printed["status"] == "pass"
    assert symmetric["denominator"] == "symmetric" and symmetric["status"] == "fail"
    assert symmetric["first_discrepancy"] == {
        "degree": 2,
        "monomial": [4],
        "lhs": "0",
        "rhs": "-1",
    }


def test_verify_non_strict_failure_still_exits_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "paraboson",
        "--n", "1", "--p", "1", "--alt-denominator",
    )
    assert code == 0
    statuses = [json.loads(line)["status"] for line in out.splitlines()]
    assert statuses == ["pass", "fail"]


def test_verify_tsv_layout(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "paraboson",
        "--n", "1", "--p", "1", "--format", "tsv",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "identity\tn\tm\tp\tdegree\tstatus\tdenominator\tfirst_discrepancy\tmillis"
    assert row == "paraboson\t1\t\t1\t10\tpass\tprinted\t\t0"
    # a located failure carries its discrepancy as compact JSON
    _, out, _ = run(
        capsys,
        "verify", "--identity", "paraboson",
        "--n", "2", "--p", "1", "--degree", "6", "--alt-denominator", "--format", "tsv",
    )
    assert out.splitlines()[1:] == [
        "paraboson\t2\t\t1\t6\tpass\tprinted\t\t0",
        "paraboson\t2\t\t1\t6\tfail\tsymmetric\t"
        '{"degree":2,"monomial":[0,4],"lhs":"0","rhs":"-1"}\t0',
    ]
    # exact checks leave m, degree and denominator empty
    _, out, _ = run(
        capsys, "verify", "--identity", "weyl-character", "--n", "2", "--p", "1", "--format", "tsv"
    )
    assert out.splitlines()[1:] == ["weyl-character\t2\t\t1\t\tpass\t\t\t0"]
    _, out, _ = run(
        capsys,
        "verify", "--identity", "parastat",
        "--n", "1", "--m", "1", "--p", "2", "--degree", "4", "--format", "tsv",
    )
    assert out.splitlines()[1:] == ["parastat\t1\t1\t2\t4\tpass\t\t\t0"]


def test_verify_degree_resolution(capsys):
    # an explicit flag beats the default
    _, out, _ = run(
        capsys,
        "verify", "--identity", "paraboson",
        "--n", "1", "--p", "1", "--degree", "6",
    )
    assert json.loads(out)["degree"] == 6


def test_verify_default_degrees(capsys):
    _, out, _ = run(capsys, "verify", "--identity", "paraboson", "--n", "1", "--p", "1")
    assert json.loads(out)["degree"] == 10
    _, out, _ = run(
        capsys, "verify", "--identity", "parastat", "--n", "1", "--m", "1", "--p", "1"
    )
    assert json.loads(out)["degree"] == 8


def test_verify_degree_reads_no_environment(capsys, monkeypatch):
    # the report's degree comes from its argv alone: a variable the CLI once
    # read as a default changes nothing, even when it is not a number
    for value in ("4", "x"):
        monkeypatch.setenv("PARAFOCK_DEGREE", value)
        for argv, degree in (
            (("--identity", "paraboson", "--n", "1", "--p", "1"), 10),
            (("--identity", "parastat", "--n", "1", "--m", "1", "--p", "1"), 8),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert (code, err, json.loads(out)["degree"]) == (0, "", degree)


def test_verify_parafermion_rank_six_runs_within_the_guard(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "parafermion", "--n", "6", "--p", "2")
    assert code == 0
    obj = json.loads(out)
    assert (obj["n"], obj["p"], obj["status"]) == (6, 2, "pass")


# -- guards and exit codes ------------------------------------------------------------------

def test_rank_limit_guard(capsys):
    for argv in (
        ("w1", "--n", "9999"),
        ("cohomology", "--n", "7", "--p", "1"),
        ("branch", "--n", "8", "--p", "1"),
        ("verify", "--identity", "parafermion", "--n", "7", "--p", "1"),
        ("verify", "--identity", "weyl-character", "--n", "7", "--p", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "safety limit" in err


def test_paraboson_rank_limit_reads_the_variables_the_check_builds(capsys):
    # the printed check carries min(n, max(D, 1)) variables, so at D = 4 rank
    # 14 needs no --force and at D = 7 it does; the symmetric variant locates
    # its known failure in all n, so its guard reads n
    base = ("verify", "--identity", "paraboson", "--n", "14", "--p", "2")
    code, out, err = run(capsys, *base, "--degree", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"
    for argv, rank in (("--degree", "7"), 7), (("--degree", "4", "--alt-denominator"), 14):
        code, out, err = run(capsys, *base, *argv)
        assert code == 2 and out == ""
        assert f"rank {rank} exceeds the safety limit" in err


def test_rank_limit_can_be_forced(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "7", "--p", "0", "--force")
    assert code == 0
    assert len(json.loads(out)) == 2 ** 7


# argparse reads a separate "-2..1" as an option, so only the "=" spelling
# reaches the ">= 0" check
@pytest.mark.parametrize(
    "m, message",
    [(("--m", "-2..1"), "expected one argument"), (("--m=-2..1",), "--m must be >= 0, got -2")],
)
def test_a_negative_range_needs_an_equals_sign(capsys, m, message):
    code, out, err = run(capsys, "verify", "--identity", "parastat", "--n", "1", *m, "--p", "1")
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "n, m, p, message",
    [
        ("x", "1", "1", "--n must be an integer or a range like 1..3, got 'x'"),
        ("1", "1", "1..x", "--p must be an integer or a range like 1..3, got '1..x'"),
        ("1", "1..z", "1", "--m must be an integer or a range like 1..3, got '1..z'"),
        ("1.5", "1", "1", "--n must be an integer or a range like 1..3, got '1.5'"),
        ("1..2..3", "1", "1", "--n must be an integer or a range like 1..3, got '1..2..3'"),
        ("1", "3..1", "1", "empty range '3..1' for --m"),
    ],
)
def test_a_bad_range_names_its_argument(capsys, n, m, p, message):
    code, out, err = run(
        capsys, "verify", "--identity", "parastat", "--n", n, "--m", m, "--p", p
    )
    assert code == 2 and out == "" and message in err


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert "argument command: invalid choice: 'no-such-command'" in capsys.readouterr().err
    assert main([]) == 2
    assert "the following arguments are required: command" in capsys.readouterr().err
    assert main(["schur"]) == 2  # missing --n
    capsys.readouterr()
    assert main(["verify", "--identity", "bogus", "--n", "1", "--p", "1"]) == 2
    capsys.readouterr()


def test_computation_errors_exit_two(capsys):
    code, _, err = run(capsys, "schur", "--lambda", "1,2", "--n", "2")
    assert code == 2 and "bad partition" in err
    code, _, err = run(capsys, "verify", "--identity", "parafermion", "--n", "0", "--p", "1")
    assert code == 2 and "--n must be >= 1" in err
    code, _, err = run(capsys, "verify", "--identity", "parafermion", "--n", "3..1", "--p", "1")
    assert code == 2 and "empty range" in err
    for n, m, p, flag in (
        ("-1", "1", "1", "--n"),
        ("1", "-1", "1", "--m"),
        ("1", "1", "-1", "--p"),
    ):
        code, out, err = run(
            capsys, "verify", "--identity", "parastat", "--n", n, "--m", m, "--p", p
        )
        assert code == 2 and out == "" and f"{flag} must be >= 0" in err
    code, out, err = run(capsys, "w1", "--n", "0")
    assert code == 2 and out == "" and "n must be >= 1" in err
    code, out, err = run(capsys, "dims", "--n", "-1", "--p", "1")
    assert code == 2 and out == "" and "n must be >= 1, got -1" in err
    code, out, err = run(capsys, "dims", "--n", "2", "--p", "-1")
    assert code == 2 and out == "" and "p must be >= 0, got -1" in err
    for identity, m in (("parafermion", "1..3"), ("paraboson", "1"), ("weyl-character", "9")):
        code, out, err = run(
            capsys, "verify", "--identity", identity, "--n", "1", "--m", m, "--p", "1"
        )
        assert code == 2 and out == "" and "--m applies only to parastat" in err
    for identity, m in (("parafermion", None), ("parastat", "1"), ("weyl-character", None)):
        argv = ["verify", "--identity", identity, "--n", "2", "--p", "1", "--alt-denominator"]
        code, out, err = run(capsys, *argv, *(("--m", m) if m else ()))
        assert code == 2 and out == "" and "--alt-denominator applies only to paraboson" in err
    for identity in ("parafermion", "weyl-character"):
        code, out, err = run(
            capsys, "verify", "--identity", identity, "--n", "2", "--p", "1", "--degree", "5"
        )
        assert code == 2 and out == "" and "--degree applies only to" in err


def test_module_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "parafock", "schur", "--lambda", "1,1", "--n", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [{"exp": [2, 2], "coef": "1"}]


def test_an_unhandled_error_exits_two_with_its_traceback():
    # main handles ValueError and ArithmeticError itself; anything else that
    # escapes it must not exit 1, which --strict reserves for a failing report
    script = (
        "import parafock.cli as cli\n"
        "def crash(argv=None):\n"
        "    raise MemoryError('simulated')\n"
        "cli.main = crash\n"
        "cli.entry()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("MemoryError: simulated\n")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["parafock", "schur", "--lambda", "1,1", "--n", "2"])
    assert main() == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == [{"exp": [2, 2], "coef": "1"}]


# -- help and usage errors -----------------------------------------------------------

# a valid argv for each command, and one of its options that takes an int
VALID_ARGS = {
    "schur": (["--n", "1"], "--n"),
    "hook-schur": (["--n", "1", "--m", "1"], "--m"),
    "w1": (["--n", "1"], "--n"),
    "cohomology": (["--n", "1", "--p", "1"], "--p"),
    "branch": (["--n", "1", "--p", "1"], "--n"),
    "dims": (["--n", "1", "--p", "1"], "--p"),
    "verify": (["--identity", "parafermion", "--n", "1", "--p", "1"], "--degree"),
}
HELP_AND_USAGE_ERRORS = [[], ["-h"], ["-h", "verify"], ["no-such-command"]] + [
    argv
    for command, (args, int_option) in VALID_ARGS.items()
    for argv in (
        [command, "-h"],
        [command],  # a required option is missing
        [command, *args, "--format", "xml"],
        [command, *args, int_option, "x"],
        [command, *args, "extra"],
    )
]


@pytest.mark.parametrize("columns", ["57", "200"])
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, columns):
    # argparse wraps help and usage at the terminal width
    monkeypatch.setenv("COLUMNS", columns)
    assert set(VALID_ARGS) == set(COMMANDS)
    for argv in HELP_AND_USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        expected = (exc.value.code, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected, argv


def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def spy_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    assert main(["verify", "--identity", "parafermion", "--n", "1", "--p", "1"]) == 0
    assert built == ["parafock", "parafock verify"]
    for argv in (["no-such-command"], ["-h"]):
        built.clear()
        main(argv)
        assert len(built) == 1 + len(COMMANDS), argv
    capsys.readouterr()
