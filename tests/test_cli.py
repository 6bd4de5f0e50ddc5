import argparse
import importlib.util
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from minorrel.cli import build_parser, main
from minorrel.report import VerificationReport, emit, format_bicharacter, parse_report
from minorrel.tasks import _STATEMENTS, VerificationTask, run, suite_tasks, validate
from minorrel import cli, modlinalg, tasks

VERIFY = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
# the run settings that verify and suite take, each with a valid value
SETTINGS = {"--seed": "1", "--primes": "1000003,999983", "--results-dir": "unused"}


def test_character_rendering():
    terms = {((1, 1, 1, 1), (2, 2)): 1, ((2, 2), (1, 1, 1, 1)): 1}
    assert format_bicharacter(terms) == "S[1,1,1,1]⊠S[2,2] + S[2,2]⊠S[1,1,1,1]"
    assert format_bicharacter({}) == "0"
    assert format_bicharacter({((), ()): 1}) == "S[0]⊠S[0]"
    assert format_bicharacter({((2,), (2,)): 3}) == "3*S[2]⊠S[2]"


def test_json_round_trip():
    report = VerificationReport(
        task={"statement": "thm-1.1", "params": {"m": 2, "n": 4}},
        predicted={"degree_2": 1},
        witnessed={"degree_2": 1},
        certificates=({"rank": 1, "method": "modular", "primes": [3, 5], "seed": 0},),
        verdict="pass",
        timings={"total_s": 0.5},
    )
    assert parse_report(emit(report, "json")) == report


def test_records_are_immutable_and_share_no_default():
    first, second = VerificationTask("lem-4.4"), VerificationTask("lem-4.4")
    assert first == second and first.params is not second.params
    assert repr(first).startswith("VerificationTask(statement='lem-4.4', params={}, seed=0,")
    first = VerificationReport(task={}, predicted={}, witnessed={})
    second = VerificationReport(task={}, predicted={}, witnessed={})
    assert (first.certificates, first.verdict) == ((), "fail")
    assert first == second and first.timings is not second.timings
    for record, field in ((VerificationTask("lem-4.4"), "seed"), (first, "verdict")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_verify_exit_codes(capsys):
    assert main(["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "4"]) == 0
    capsys.readouterr()
    assert main(["verify", "no-such-statement"]) == 2
    capsys.readouterr()


def test_unknown_statement_is_a_usage_error(capsys):
    # printed like every other usage error, without the quotes str(KeyError) adds
    assert main(["verify", "nope"]) == 2
    assert capsys.readouterr().err == "error: unknown statement id 'nope'\n"
    # Section 6's U has no id of its own: its generators are thm-5.1's check
    assert main(["verify", "sec-6-U", "--m", "2", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: unknown statement id 'sec-6-U'\n"


def test_verify_rejects_size_without_minors(capsys):
    # a matrix with one row or column has no 2x2 minors: a usage error, not a failed theorem
    for m, n in [("1", "3"), ("3", "1")]:
        assert main(["verify", "thm-4.1", "--m", m, "--n", n, "--r", "1"]) == 2
        assert "has no 2x2 minors" in capsys.readouterr().err


def test_verify_json_output(capsys):
    code = main(
        ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2", "--format", "json"]
    )
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert data["verdict"] == "pass"
    assert set(data) == {
        "task",
        "predicted",
        "witnessed",
        "certificates",
        "verdict",
        "timings",
    }
    # only the Koszul statements certify anything
    assert data["certificates"] == []


def test_results_dir_caching_is_byte_identical(tmp_path):
    # the thm-3.1 report carries certificates: Koszul H_1 by dominant weight
    tasks = [
        VerificationTask("thm-1.1", {"m": 2, "n": 4, "d_max": 2}),
        VerificationTask("thm-3.1", {"m": 3, "n": 3, "d_max": 4}),
    ]
    for task in tasks:
        results_dir = tmp_path / task.statement
        r1 = run(task, results_dir=str(results_dir))
        files = os.listdir(results_dir)
        assert len(files) == 1
        blob1 = (results_dir / files[0]).read_bytes()
        r2 = run(task, results_dir=str(results_dir))
        blob2 = (results_dir / files[0]).read_bytes()
        assert blob1 == blob2
        assert emit(r2, "json").encode() == blob1
        assert r2 == r1
    assert r2.certificates
    assert r2.certificates == tuple(json.loads(blob1)["certificates"])


def test_results_dir_from_the_environment(tmp_path, capsys, monkeypatch):
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("MINORREL_RESULTS_DIR", str(env_dir))
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2", "--format", "json"]
    assert main(verify) == 0
    first = capsys.readouterr().out
    assert len(os.listdir(env_dir)) == 1
    # the second run reads the cached report, timings included
    assert main(verify) == 0
    assert capsys.readouterr().out == first
    assert len(os.listdir(env_dir)) == 1
    # --results-dir takes precedence over the environment
    assert main(verify + ["--results-dir", str(flag_dir)]) == 0
    capsys.readouterr()
    assert len(os.listdir(flag_dir)) == 1
    assert len(os.listdir(env_dir)) == 1


def test_decompose_subcommands(capsys):
    assert main(["decompose", "a", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "S[2,2]⊠S[2,2]" in out
    assert main(["decompose", "wedge", "--k", "2"]) == 0
    capsys.readouterr()
    assert main(["decompose", "wedge", "--k", "-1"]) == 2
    assert "error: need k >= 0" in capsys.readouterr().err
    assert main(["decompose", "gr", "--lam", "1,1,1", "--mu", "2,1", "--d", "8"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 8
    assert main(["decompose", "a", "--d", "-1"]) == 2
    assert "error: need d >= 0" in capsys.readouterr().err
    # gr needs its label cap, and a cap below |lam| would list nothing
    assert main(["decompose", "gr", "--lam", "1,1,1", "--mu", "2,1"]) == 2
    assert main(["decompose", "gr", "--lam", "1,1,1", "--mu", "2,1", "--d", "2"]) == 2
    assert "need a cap of at least |lam| = 3" in capsys.readouterr().err


# a value away from the default of every decompose option, and the least
# argv each mode runs with
DECOMPOSE_AWAY = {
    "--d": "3", "--k": "3", "--variant": "permanents", "--lam": "2,1", "--mu": "1,1,1",
}
DECOMPOSE_BASE = {"a": [], "wedge": [], "gr": ["--d", "5"]}


def _decompose_body(capsys):
    """stdout of the last decompose run past its header, which echoes the settings."""
    return capsys.readouterr().out.split(": ", 1)[-1]


def test_decompose_options_all_change_the_output(capsys):
    # each mode's options change its stdout or exit code when set away from
    # the default, and the options of the other modes are usage errors
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    modes = next(
        a for a in sub.choices["decompose"]._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(modes) == set(DECOMPOSE_BASE)
    options = {
        mode: [a for a in parser._actions if a.option_strings and a.dest != "help"]
        for mode, parser in modes.items()
    }
    every = {a.option_strings[0] for opts in options.values() for a in opts}
    assert every == set(DECOMPOSE_AWAY)
    for mode, opts in options.items():
        base = ["decompose", mode, *DECOMPOSE_BASE[mode]]
        before = (main(base), _decompose_body(capsys))
        assert before[0] == 0
        for a in opts:
            flag = a.option_strings[0]
            assert DECOMPOSE_AWAY[flag] != str(a.default), (mode, flag)
            after = (main(base + [flag, DECOMPOSE_AWAY[flag]]), _decompose_body(capsys))
            assert after != before, (mode, flag)
        for flag in every - {a.option_strings[0] for a in opts}:
            assert main(base + [flag, DECOMPOSE_AWAY[flag]]) == 2, (mode, flag)
    capsys.readouterr()


# stdout of `decompose a` and `decompose wedge`: the header, then the terms
# joined by " + "
DECOMPOSE_TERMS = [
    (["a", "--d", "3", "--variant", "minors"], "A_3 (minors): ", [
        "S[1,1,1,1,1,1]⊠S[1,1,1,1,1,1]", "S[2,1,1,1,1]⊠S[2,1,1,1,1]",
        "S[2,2,1,1]⊠S[2,2,1,1]", "S[2,2,2]⊠S[2,2,2]", "S[3,1,1,1]⊠S[3,1,1,1]",
        "S[3,2,1]⊠S[3,2,1]", "S[3,3]⊠S[3,3]",
    ]),
    (["a", "--d", "3", "--variant", "permanents"], "A_3 (permanents): ", [
        "S[2,2,2]⊠S[2,2,2]", "S[3,2,1]⊠S[3,2,1]", "S[3,3]⊠S[3,3]", "S[4,1,1]⊠S[4,1,1]",
        "S[4,2]⊠S[4,2]", "S[5,1]⊠S[5,1]", "S[6]⊠S[6]",
    ]),
    (["wedge", "--k", "3", "--variant", "minors"], "wedge^3 W (minors): ", [
        "S[1,1,1,1,1,1]⊠S[2,2,2]", "S[1,1,1,1,1,1]⊠S[3,1,1,1]",
        "S[2,1,1,1,1]⊠S[2,1,1,1,1]", "S[2,1,1,1,1]⊠S[2,2,1,1]", "S[2,1,1,1,1]⊠S[3,2,1]",
        "S[2,2,1,1]⊠S[2,1,1,1,1]", "S[2,2,1,1]⊠S[2,2,1,1]", "S[2,2,1,1]⊠S[2,2,2]",
        "S[2,2,1,1]⊠S[3,1,1,1]", "S[2,2,1,1]⊠S[3,2,1]", "S[2,2,2]⊠S[1,1,1,1,1,1]",
        "S[2,2,2]⊠S[2,2,1,1]", "S[2,2,2]⊠S[3,3]", "S[3,1,1,1]⊠S[1,1,1,1,1,1]",
        "S[3,1,1,1]⊠S[2,2,1,1]", "S[3,1,1,1]⊠S[3,3]", "S[3,2,1]⊠S[2,1,1,1,1]",
        "S[3,2,1]⊠S[2,2,1,1]", "S[3,2,1]⊠S[3,2,1]", "S[3,3]⊠S[2,2,2]", "S[3,3]⊠S[3,1,1,1]",
    ]),
    (["wedge", "--k", "3", "--variant", "permanents"], "wedge^3 W (permanents): ", [
        "S[2,2,2]⊠S[3,3]", "S[2,2,2]⊠S[4,1,1]", "S[3,2,1]⊠S[3,2,1]", "S[3,2,1]⊠S[4,2]",
        "S[3,2,1]⊠S[5,1]", "S[3,3]⊠S[2,2,2]", "S[3,3]⊠S[4,2]", "S[3,3]⊠S[6]",
        "S[4,1,1]⊠S[2,2,2]", "S[4,1,1]⊠S[4,2]", "S[4,1,1]⊠S[6]", "S[4,2]⊠S[3,2,1]",
        "S[4,2]⊠S[3,3]", "S[4,2]⊠S[4,1,1]", "S[4,2]⊠S[4,2]", "S[4,2]⊠S[5,1]",
        "S[5,1]⊠S[3,2,1]", "S[5,1]⊠S[4,2]", "S[5,1]⊠S[5,1]", "S[6]⊠S[3,3]",
        "S[6]⊠S[4,1,1]",
    ]),
]

GR_LINES = """\
([5,1,1], [3,3,1])
([4,2,1], [3,3,1])
([4,1,1,1], [3,3,1])
([4,1,1], [3,3])
([4,1,1], [3,2,1])
([3,2,1,1], [3,3,1])
([3,2,1], [3,3])
([3,2,1], [3,2,1])
([3,1,1,1], [3,3])
([3,1,1,1], [3,2,1])
([3,1,1], [3,2])
([3,1,1], [3,1,1])
([2,2,1,1], [5,1])
([2,2,1,1], [4,2])
([2,2,1,1], [4,1,1])
([2,2,1,1], [3,3])
([2,2,1,1], [3,2,1])
([2,2,1], [4,1])
([2,2,1], [3,2])
([2,2,1], [3,1,1])
([2,1,1,1], [4,1])
([2,1,1,1], [3,2])
([2,1,1,1], [3,1,1])
([2,1,1], [3,1])
"""


def test_decompose_output_is_pinned(capsys):
    for argv, head, terms in DECOMPOSE_TERMS:
        assert main(["decompose", *argv]) == 0
        assert capsys.readouterr().out == head + " + ".join(terms) + "\n", argv
    assert main(["decompose", "gr", "--lam", "2,1,1", "--mu", "3,1", "--d", "9"]) == 0
    assert capsys.readouterr().out == GR_LINES


# Koszul H_1 of the 3x3 minors by dominant weight, as (row sums, column
# sums, dim, orbit size), recorded from the `koszul --verbose` listing that
# the json report of `verify thm-3.1` replaced
KOSZUL_3X3 = {
    3: [
        ((1, 1, 1), (1, 1, 1), 4, 1),
        ((1, 1, 1), (2, 1, 0), 1, 6),
        ((2, 1, 0), (1, 1, 1), 1, 6),
    ],
    5: [
        ((2, 2, 1), (2, 2, 1), 5, 9),
        ((2, 2, 1), (3, 1, 1), 5, 9),
        ((2, 2, 1), (3, 2, 0), 1, 18),
        ((2, 2, 1), (4, 1, 0), 1, 18),
        ((3, 1, 1), (2, 2, 1), 5, 9),
        ((3, 1, 1), (3, 1, 1), 5, 9),
        ((3, 1, 1), (3, 2, 0), 1, 18),
        ((3, 1, 1), (4, 1, 0), 1, 18),
        ((3, 2, 0), (2, 2, 1), 1, 18),
        ((3, 2, 0), (3, 1, 1), 1, 18),
        ((4, 1, 0), (2, 2, 1), 1, 18),
        ((4, 1, 0), (3, 1, 1), 1, 18),
    ],
}


def _verify_json(argv, capsys):
    """The json report of `verify` with argv, which must pass."""
    assert main(["verify", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_koszul_subcommand(capsys):
    # the former `koszul` subcommand is a usage error; its total at degree 3
    # is the degree_3 witness of `verify thm-3.1`
    assert main(["koszul", "--m", "3", "--n", "3", "--d", "3"]) == 2
    capsys.readouterr()
    report = _verify_json(["thm-3.1", "--m", "3", "--n", "3", "--dmax", "3"], capsys)
    assert report["witnessed"]["degree_3"] == 16


def test_verify_thm_3_1_lists_h1_by_dominant_weight(capsys):
    report = _verify_json(["thm-3.1", "--m", "3", "--n", "3", "--dmax", "5"], capsys)
    assert report["witnessed"] == {"degree_2": 0, "degree_3": 16, "degree_4": 99, "degree_5": 324}
    by_degree = {}
    for cert in report["certificates"]:
        assert set(cert) == {"degree", "weight", "dim", "orbit_size"}
        rows, cols = cert["weight"]
        by_degree.setdefault(cert["degree"], []).append(
            (tuple(rows), tuple(cols), cert["dim"], cert["orbit_size"])
        )
    # H_1 vanishes in degree 2, so no weight of it is listed
    assert sorted(by_degree) == [3, 4, 5]
    for d, table in KOSZUL_3X3.items():
        assert by_degree[d] == table, d
    assert len(by_degree[4]) == 5
    # sizes past the Koszul envelope (no box holds 6x6 or 3x6) are usage errors
    for size in (["--m", "6", "--n", "6"], ["--m", "3", "--n", "6"]):
        assert main(["verify", "thm-3.1", *size, "--dmax", "3"]) == 2
        assert "outside envelope" in capsys.readouterr().err
    assert main(["verify", "thm-3.2", "--m", "3", "--n", "3", "--dmax", "10"]) == 2
    assert "d_max=10 outside envelope" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["thm-3.1", "--m", "3", "--n", "3", "--dmax", "5"],
        ["thm-3.1", "--m", "2", "--n", "4", "--dmax", "5"],
        ["thm-3.2", "--m", "3", "--n", "3", "--dmax", "6"],
    ],
)
def test_koszul_certificates_sum_to_the_witness(argv, capsys):
    # each listed dim counts once per weight of its orbit, and the sum over
    # the weights of a degree is the witnessed total
    report = _verify_json(argv, capsys)
    certificates = report["certificates"]
    assert certificates
    totals = dict.fromkeys(report["witnessed"], 0)
    for cert in certificates:
        totals[f"degree_{cert['degree']}"] += cert["dim"] * cert["orbit_size"]
    assert totals == report["witnessed"]
    # listed in degree and weight order, so a cached report re-emits the same bytes
    keys = [(cert["degree"], cert["weight"]) for cert in certificates]
    assert keys == sorted(keys)


# stdout of `verify que-7.1 --m 2 --n 3`, recorded while the `fiber-type`
# subcommand, which printed the same table and verdict, still existed
QUE_7_1_2X3 = """\
que-7.1  {'params': {'m': 2, 'n': 3}, 'seed': 0}
  bidegrees                predicted='-'  witnessed={'(1,2)': 2}  ok
  fiber_type               predicted=True  witnessed=True  ok
  verdict: pass
"""


def test_verify_que_7_1_is_fiber_type_at_2x3(capsys):
    assert main(["verify", "que-7.1", "--m", "2", "--n", "3"]) == 0
    assert capsys.readouterr().out == QUE_7_1_2X3
    # every count is orbit-weighted and exact, so there is no dominant-only mode
    assert main(["verify", "que-7.1", "--m", "2", "--n", "3", "--dominant-only"]) == 2
    capsys.readouterr()


def test_verify_que_7_1_witnesses_sixteen_linear_syzygies_at_3x3(capsys):
    report = _verify_json(["que-7.1", "--m", "3", "--n", "3"], capsys)
    assert report["witnessed"] == {"bidegrees": {"(1,2)": 16}, "fiber_type": True}


def test_verify_que_7_1_takes_the_bidegree_window(capsys):
    # the table of test_rees.py's test_2x4_fiber_and_syzygy_generators
    que = ["que-7.1", "--m", "2", "--n", "4"]
    report = _verify_json(que + ["--a-max", "2", "--e-max", "2"], capsys)
    assert report["task"]["params"] == {"a_max": 2, "e_max": 2, "m": 2, "n": 4}
    assert report["witnessed"]["bidegrees"] == {"(0,4)": 1, "(1,2)": 8}
    # each bound cuts off one of the two bidegrees
    report = _verify_json(que + ["--a-max", "0", "--e-max", "2"], capsys)
    assert report["witnessed"]["bidegrees"] == {"(0,4)": 1}
    report = _verify_json(que + ["--a-max", "2", "--e-max", "1"], capsys)
    assert report["witnessed"]["bidegrees"] == {"(1,2)": 8}
    # sizes past the statement's envelope are usage errors
    assert main(["verify", "que-7.1", "--m", "6", "--n", "6"]) == 2
    assert "outside envelope" in capsys.readouterr().err


def _options(command):
    """The optional arguments of a subcommand, help left out."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


def test_verify_options_are_statement_params(capsys, monkeypatch):
    # every settable verify value other than the run settings and the format
    # is a key of some statement's window and reaches the task; every key of
    # que-7.1's window can be set.  The run settings are the options suite
    # has besides its profile, and each is shown to take effect by its own
    # test: test_seed_reaches_every_task, test_cache_key_covers_primes and
    # test_results_dir_from_the_environment
    settings = {a.dest for a in _options("suite")} - {"profile"}
    assert settings == {"seed", "primes", "results_dir"}
    assert settings <= {a.dest for a in _options("verify")}
    options = [a for a in _options("verify") if a.dest not in settings | {"format"}]
    windows = {key for _, _, window in _STATEMENTS.values() for key in window}
    dests = {a.dest for a in options}
    assert dests <= windows
    assert set(_STATEMENTS["que-7.1"][2]) <= dests
    seen = _fake_runs(monkeypatch, ["pass"])
    argv = [arg for a in options for arg in (a.option_strings[0], "1")]
    assert main(["verify", "que-7.1", *argv]) == 0
    capsys.readouterr()
    assert seen[0].params == dict.fromkeys(dests, 1)


def test_suite_quick_profile(capsys):
    assert main(["suite", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def _in_force_runs(monkeypatch, error=None):
    """Make lem-4.4's runner record its modulus and the module prime list.

    The runner then raises error if given.
    """
    seen = []

    def runner(p, q):
        seen.append((q, modlinalg.PRIMES))
        if error:
            raise error
        return {}, {}, ()

    _, envelope, window = _STATEMENTS["lem-4.4"]
    monkeypatch.setitem(_STATEMENTS, "lem-4.4", (runner, envelope, window))
    return seen


def test_run_settings_set_the_primes(capsys, monkeypatch):
    # the runner runs modulo the product of the configured pair, and the
    # module prime list is untouched
    default = modlinalg.PRIMES
    seen = _in_force_runs(monkeypatch)
    settings = ["--primes", "1000003, 999983"]
    assert main(["verify", "lem-4.4", *settings]) == 0
    capsys.readouterr()
    assert seen == [(1000003 * 999983, default)]
    assert modlinalg.PRIMES == default
    # untouched too when the runner raises
    task = VerificationTask("lem-4.4", primes=(65537, 65539))
    seen = _in_force_runs(monkeypatch, RuntimeError("cut short"))
    with pytest.raises(RuntimeError, match="cut short"):
        run(task)
    assert seen == [(65537 * 65539, default)]
    assert modlinalg.PRIMES == default
    # suite gives the flags to every task it builds
    seen = _fake_runs(monkeypatch, ["pass"])
    assert main(["suite", "--profile", "full", *settings]) == 0
    capsys.readouterr()
    assert {task.primes for task in seen} == {(1000003, 999983)}


def test_run_settings_apply_to_their_own_call_only(capsys, monkeypatch):
    # a second main() in the same process runs under the defaults again
    default = modlinalg.PRIMES
    seen = _in_force_runs(monkeypatch)
    assert main(["verify", "lem-4.4", "--primes", "1000003,999983"]) == 0
    assert main(["verify", "lem-4.4"]) == 0
    capsys.readouterr()
    p1, p2 = random.Random(0).sample(default, 2)
    assert seen == [(1000003 * 999983, default), (p1 * p2, default)]
    assert modlinalg.PRIMES == default


def test_config_requires_two_primes(capsys):
    assert main(VERIFY + ["--primes", "1000003"]) == 2
    assert "need at least two distinct primes" in capsys.readouterr().err


def test_config_rejects_bad_primes(capsys):
    default = modlinalg.PRIMES
    for primes in (
        "7,7", "4,6", "1000003,1000003", "65521,1000003", "1000003,1000001", "1000003,",
        "a,b", "1000003;999983", "18446744073709551557,18446744073709551629",
    ):
        assert main(VERIFY + ["--primes", primes]) == 2, primes
        assert "error: argument --primes" in capsys.readouterr().err, primes
    assert modlinalg.PRIMES == default
    assert main(VERIFY + ["--primes", "1000003,999983"]) == 0
    capsys.readouterr()


def test_configured_primes_give_the_default_witnesses(capsys, monkeypatch):
    # a configured pair is run as one modulus, their product: small primes,
    # and the largest below 2^64, whose product is near 2^128.  The runners
    # of thm-1.2 (witness's engine) and que-7.1 (rees's) record their modulus
    seen = []
    for sid in ("thm-1.2", "que-7.1"):
        runner, envelope, window = _STATEMENTS[sid]

        def spy(p, q, runner=runner):
            seen.append((q, modlinalg.PRIMES))
            return runner(p, q)

        monkeypatch.setitem(_STATEMENTS, sid, (spy, envelope, window))
    argvs = [
        ["thm-1.2", "--m", "3", "--n", "3", "--dmax", "3"],
        ["que-7.1", "--m", "3", "--n", "3", "--a-max", "2", "--e-max", "2"],
    ]
    default = modlinalg.PRIMES
    witnessed = [_verify_json(argv, capsys)["witnessed"] for argv in argvs]
    p1, p2 = random.Random(0).sample(default, 2)
    assert seen == [(p1 * p2, default)] * 2
    for primes in ("1000003,999983", "18446744073709551557,18446744073709551533"):
        seen.clear()
        assert [
            _verify_json(argv + ["--primes", primes], capsys)["witnessed"] for argv in argvs
        ] == witnessed, primes
        p1, p2 = map(int, primes.split(","))
        assert seen == [(p1 * p2, default)] * 2, primes
        assert modlinalg.PRIMES == default


def _fallback_runs(monkeypatch, at_prime):
    """Make lem-4.4's runner record its modulus, fail at a composite one, else give at_prime(q)."""
    seen = []

    def runner(p, q):
        seen.append(q)
        if q not in modlinalg.PRIMES:
            raise modlinalg.NonUnitPivot(f"pivot not a unit mod {q}")
        return {"rank": 1}, {"rank": at_prime(q)}, ()

    _, envelope, window = _STATEMENTS["lem-4.4"]
    monkeypatch.setitem(_STATEMENTS, "lem-4.4", (runner, envelope, window))
    return seen


def test_a_non_unit_pivot_reruns_the_task_at_each_prime(monkeypatch):
    # the whole runner reruns at p1 and at p2, the pair the task's seed draws
    task = VerificationTask("lem-4.4", seed=5)
    p1, p2 = random.Random(5).sample(task.primes, 2)
    seen = _fallback_runs(monkeypatch, lambda q: 1)
    assert run(task).verdict == "pass"
    assert seen == [p1 * p2, p1, p2]


def test_task_runs_that_disagree_at_the_two_primes_are_an_error(monkeypatch):
    # a result that differs at p1 and p2 raises
    task = VerificationTask("lem-4.4", seed=5)
    p1, p2 = random.Random(5).sample(task.primes, 2)
    seen = _fallback_runs(monkeypatch, lambda q: int(q == p1))
    with pytest.raises(ArithmeticError, match="results disagree") as exc:
        run(task)
    assert not isinstance(exc.value, modlinalg.NonUnitPivot)
    assert seen == [p1 * p2, p1, p2]


def test_settings_that_set_nothing_are_usage_errors(capsys):
    # decompose reads no run setting, and a setting before the subcommand
    # or a misspelt one would leave its value at the default
    argvs = [VERIFY + ["--seeds", "1"]]
    for flag, value in SETTINGS.items():
        for mode in (["a"], ["wedge"], ["gr", "--d", "5"]):
            argvs += [["decompose", *mode, flag, value], ["decompose", flag, value, *mode]]
        argvs += [[flag, value, *VERIFY], [flag, value, "decompose", "a"]]
    for argv in argvs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err, argv


def test_a_run_setting_given_twice_is_a_usage_error(tmp_path, capsys):
    # the first value would set nothing: the second would override it
    for argv in (VERIFY, ["suite"]):
        for flag, value in dict(SETTINGS, **{"--results-dir": str(tmp_path)}).items():
            for twice in ([flag, value, flag, value], [f"{flag}={value}", flag, value]):
                assert main(argv + twice) == 2, (argv, twice)
                captured = capsys.readouterr()
                assert captured.out == "" and f"{flag} is already set" in captured.err, twice
    assert os.listdir(tmp_path) == []


def _fake_runs(monkeypatch, verdicts):
    """Make the CLI's tasks.run record each task and return the next of verdicts."""
    seen = []

    def fake_run(task, results_dir):
        seen.append(task)
        verdict = verdicts[(len(seen) - 1) % len(verdicts)]
        return VerificationReport(task=task.as_dict(), predicted={}, witnessed={}, verdict=verdict)

    monkeypatch.setattr(cli, "run", fake_run)
    return seen


@pytest.mark.parametrize(
    "verdicts, code",
    [
        (["pass"], 0),
        (["pass", "fail"], 1),
    ],
)
def test_verify_and_suite_share_one_exit_code_rule(verdicts, code, capsys, monkeypatch):
    # 1 if any verdict is a fail, else 0
    _fake_runs(monkeypatch, verdicts)
    assert main(["suite"]) == code
    capsys.readouterr()
    for verdict in verdicts:
        _fake_runs(monkeypatch, [verdict])
        assert main(VERIFY) == {"pass": 0, "fail": 1}[verdict]
    capsys.readouterr()


def test_seed_reaches_every_task(capsys, monkeypatch):
    seen = _fake_runs(monkeypatch, ["pass"])
    assert main(VERIFY + ["--seed", "7"]) == 0
    assert main(["suite", "--profile", "full", "--seed", "7"]) == 0
    capsys.readouterr()
    assert len(seen) == 1 + len(suite_tasks("full"))
    assert {task.seed for task in seen} == {7}


def test_a_predicted_key_the_witness_lacks_is_a_mismatch(monkeypatch):
    # tasks.run and the table share one match rule: a predicted key must be
    # witnessed with an equal value, and a key only the witness has is extra
    cases = [
        ({"a": 1, "b": 2}, {"a": 1}, "fail", ["a ok", "b MISMATCH"]),
        ({"a": 1}, {"a": 1, "b": 2}, "pass", ["a ok", "b ok"]),
        ({"a": 1}, {"a": 2}, "fail", ["a MISMATCH"]),
    ]
    _, envelope, window = _STATEMENTS["lem-4.4"]
    for predicted, witnessed, verdict, marks in cases:
        fake = (lambda p, q, out=(predicted, witnessed, ()): out, envelope, window)
        monkeypatch.setitem(_STATEMENTS, "lem-4.4", fake)
        report = run(VerificationTask("lem-4.4"))
        assert report.verdict == verdict
        lines = emit(report).splitlines()[1:-1]
        assert [f"{line.split()[0]} {line.split()[-1]}" for line in lines] == marks
    # the table line of a predicted key that the witness lacks
    report = VerificationReport(task={}, predicted={"degree_3": 816}, witnessed={})
    line = "  degree_3                 predicted=816  witnessed='-'  MISMATCH"
    assert emit(report).splitlines()[1] == line


def test_cache_key_covers_primes(tmp_path, capsys):
    verify = VERIFY + ["--results-dir", str(tmp_path)]
    first = _verify_json(verify[1:], capsys)
    second = _verify_json(verify[1:] + ["--primes", "1000003,999983"], capsys)
    assert len(os.listdir(tmp_path)) == 2
    assert second["task"] == first["task"] == VerificationTask(
        "thm-1.1", {"m": 2, "n": 4, "d_max": 2}
    ).as_dict()


def test_a_results_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the directory cannot be made: no task ran, so this is not a failed task
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (VERIFY, ["suite"]):
        assert main(argv + ["--results-dir", str(taken)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        with monkeypatch.context() as env:
            env.setenv("MINORREL_RESULTS_DIR", str(taken))
            assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
    assert taken.read_text() == ""


def test_an_interrupted_cache_write_leaves_no_report(tmp_path, monkeypatch):
    task = VerificationTask("thm-1.1", {"m": 2, "n": 4, "d_max": 2})

    def cut_short(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(tasks, "emit", cut_short)
        with pytest.raises(KeyboardInterrupt):
            run(task, results_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []
    # the next run computes the task afresh and caches it
    assert run(task, results_dir=str(tmp_path)).verdict == "pass"
    assert os.listdir(tmp_path) == [task.cache_name()]


def test_removed_flags_are_usage_errors(capsys):
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
    assert main(verify + ["--rank", "exact"]) == 2
    assert main(verify + ["--variant", "minors"]) == 2
    assert main(["suite", "--workers", "2"]) == 2
    # the run settings are flags of verify and suite; there is no config file
    assert main(VERIFY + ["--config", "cfg"]) == 2
    assert main(["--config", "cfg"] + VERIFY) == 2
    # the Rees table and the fiber-type check are `verify que-7.1`
    assert main(["rees", "--m", "3", "--n", "3"]) == 2
    assert main(["fiber-type", "--m", "2", "--n", "3"]) == 2
    # the envelope is the one resource bound; there is no nonzero cap
    assert main(VERIFY + ["--cap", "10"]) == 2
    assert main(["suite", "--cap", "10"]) == 2
    capsys.readouterr()


def test_eq_tor1_at_5x5_passes(capsys):
    # the Bott route needs plethysms of output degree 18 here
    assert main(["verify", "eq-tor1-Nr", "--m", "5", "--n", "5", "--r", "1"]) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_envelope_degree_bound_applies(capsys):
    # the eq-tor1-Nr envelope allows r <= 3
    assert main(["verify", "eq-tor1-Nr", "--m", "3", "--n", "3", "--r", "4"]) == 2
    assert "outside envelope" in capsys.readouterr().err


def test_cache_key_covers_source(monkeypatch):
    from minorrel import tasks

    task = VerificationTask("thm-1.1", {"m": 2, "n": 4, "d_max": 2})
    name = task.cache_name()
    assert task.cache_name() == name
    monkeypatch.setattr(tasks, "source_digest", lambda: "0" * 64)
    assert task.cache_name() != name


def test_sec_6_tbar_reads_dmax(capsys):
    assert main(["verify", "sec-6-Tbar", "--m", "3", "--n", "3", "--dmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "degree_2" in out and "degree_3" not in out


@pytest.mark.parametrize(
    "argv, key",
    [
        (["eq-tor1-Nr", "--m", "3", "--n", "3", "--r", "1", "--dmax", "2"], "d_max"),
        (["thm-3.1", "--m", "3", "--n", "3", "--dmax", "4", "--r", "2"], "r"),
        (["lem-4.3", "--m", "2", "--n", "2"], "m"),
    ],
)
def test_verify_rejects_params_the_statement_ignores(argv, key, capsys):
    # a setting the task never reads would be echoed in the report and the cache key
    assert main(["verify"] + argv) == 2
    assert f"takes no {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "statement, params",
    [
        ("thm-1.1", {"m": 2, "n": 4, "d_max": 1}),
        ("thm-1.2", {"m": 3, "n": 3, "d_max": 7}),
        # sec-6-Tbar is thm-1.2's runner on a smaller envelope
        ("sec-6-Tbar", {"m": 3, "n": 3, "d_max": 4}),
        ("eq-tor1-Nr", {"m": 3, "n": 3, "r": 0}),
        ("lem-4.3", {"d_max": 7}),
        ("que-7.1", {"m": 2, "n": 3, "a_max": 5}),
        ("lem-4.3", {"d_max": -1}),
        ("thm-3.1", {"m": 3, "n": 3, "d_max": 1}),
        ("thm-3.2", {"m": 3, "n": 3, "d_max": 0}),
        ("que-7.1", {"m": 2, "n": 3, "e_max": 0}),
        ("que-7.1", {"m": 2, "n": 3, "a_max": -1}),
        # defaults are checked too: d_max = r + 1 = 5; and a box holds one
        # orientation: thm-5.1's is 3x4, so 4x3 is outside
        ("thm-4.1", {"m": 3, "n": 3, "r": 4}),
        ("thm-5.1", {"m": 4, "n": 3}),
        # a window below the stated degree: relations in r + 1, generators in m
        ("thm-4.1", {"m": 3, "n": 3, "r": 2, "d_max": 2}),
        ("thm-5.1", {"m": 3, "n": 3, "d_max": 2}),
        ("thm-5.1", {"m": 2, "n": 2, "d_max": 1}),
        # windows just past the boxes: all but thm-3.2's ran past 60 s with
        # no verdict in a fresh process on a 2-core host; thm-3.2's box stops
        # at the largest degree measured, where 4x5 and 5x4 took 8-9 s and
        # 126-127 MB
        ("thm-1.1", {"m": 5, "n": 5, "d_max": 5}),
        ("thm-1.1", {"m": 4, "n": 5, "d_max": 5}),
        ("thm-1.1", {"m": 4, "n": 4, "d_max": 6}),
        ("thm-1.2", {"m": 4, "n": 5, "d_max": 4}),
        ("thm-1.2", {"m": 4, "n": 5, "d_max": 6}),
        ("thm-3.1", {"m": 4, "n": 5, "d_max": 9}),
        ("thm-3.2", {"m": 4, "n": 5, "d_max": 10}),
        ("thm-5.1", {"m": 4, "n": 3, "d_max": 4}),
        ("que-7.1", {"m": 5, "n": 4, "a_max": 3, "e_max": 3}),
        ("thm-3.1", {"m": 4, "n": 4, "d_max": 11}),
        ("thm-3.1", {"m": 5, "n": 5, "d_max": 8}),
    ],
)
def test_validate_rejects_empty_or_oversized_windows(statement, params):
    # an empty window checks nothing and would read as a pass, and an
    # oversized one would run past the budget with no verdict
    with pytest.raises(ValueError, match="outside envelope"):
        validate(VerificationTask(statement, params))


def test_verify_needs_a_size(capsys):
    assert main(["verify", "thm-1.1"]) == 2
    assert "error: thm-1.1: needs m" in capsys.readouterr().err
    assert main(["verify", "que-7.1", "--m", "3"]) == 2
    assert "error: que-7.1: needs n" in capsys.readouterr().err


def test_validate_fills_defaults_and_the_report_keeps_the_task():
    assert validate(VerificationTask("thm-4.1", {"m": 3, "n": 3, "r": 2})) == {
        "m": 3,
        "n": 3,
        "r": 2,
        "d_max": 3,
    }
    assert validate(VerificationTask("thm-5.1", {"m": 2, "n": 3})) == {"m": 2, "n": 3, "d_max": 3}
    assert validate(VerificationTask("lem-4.3")) == {"d_max": 4}
    assert validate(VerificationTask("lem-4.4")) == {}
    with pytest.raises(ValueError, match="takes no size"):
        validate(VerificationTask("lem-4.4", {"size": 3}))
    task = VerificationTask("sec-6-Tbar", {"m": 2, "n": 3})
    report = run(task)
    assert report.task == task.as_dict()
    assert report.verdict == "pass"
    assert set(report.predicted) == {"degree_2", "degree_3"}


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("MINORREL_RESULTS_DIR", None)
    argv = ["verify", "thm-1.1", "--m", "2", "--n", "3", "--dmax", "2"]
    out = subprocess.run(
        [sys.executable, "-m", "minorrel"] + argv, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "verdict: pass" in out.stdout


def test_verify_rejects_an_empty_degree_window(capsys):
    assert main(["verify", "thm-3.1", "--m", "3", "--n", "3", "--dmax", "1"]) == 2
    assert "d_max=1 outside envelope" in capsys.readouterr().err


def test_every_profile_and_benchmark_task_validates():
    # checks the task lists only; runs none of them
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tasks = [t for profile in ("quick", "full", "long") for t in suite_tasks(profile)]
    tasks += [
        VerificationTask(sid, dict(params))
        for workload in workloads.WORKLOADS.values()
        for sid, params in workload
    ]
    for task in tasks:
        validate(task)


def _accepts(statement, params):
    try:
        validate(VerificationTask(statement, params))
    except ValueError:
        return False
    return True


def _corners():
    """[(statement, params)] at the corner of each box of each statement's envelope.

    The size is the box's and every other param starts at the bound; each in
    window order is lowered until validate accepts (for thm-4.1 that gives
    r = bound - 1 and d_max = bound).
    """
    corners = []
    for sid, (_, boxes, window) in _STATEMENTS.items():
        for m, n, bound in boxes:
            params = {key: {"m": m, "n": n}.get(key, bound) for key in window}
            for key in window:
                while key not in ("m", "n") and params[key] > 0 and not _accepts(sid, params):
                    params[key] -= 1
            validate(VerificationTask(sid, params))
            corners.append((sid, params))
    return corners


@pytest.mark.skipif(
    os.environ.get("MINORREL_PROFILE") != "long",
    reason="long-running check; set MINORREL_PROFILE=long to enable",
)
def test_every_envelope_corner_finishes_within_the_budget():
    # each box corner in a fresh process, one at a time, must give its
    # verdict within 60 s and under 1 GB peak RSS; the address space is
    # capped at 2 GB so that a corner far over the budget stops early
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("MINORREL_RESULTS_DIR", None)
    flags = {a.dest: a.option_strings[0] for a in _options("verify")}
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    runs = []
    for sid, params in _corners():
        argv = [sys.executable, "-m", "minorrel", "verify", sid]
        argv += [arg for key, v in params.items() for arg in (flags[key], str(v))]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, preexec_fn=limit)
        timer = threading.Timer(60, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        runs.append((sid, params, round(time.perf_counter() - start, 1),
                     usage.ru_maxrss // 1024, proc.returncode))
    assert [run for run in runs if run[-1] != 0 or run[-2] >= 1024] == [], runs
