import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minorrel.cli import apply_config, build_parser, load_config, main
from minorrel.report import VerificationReport, emit, format_bicharacter, parse_report
from minorrel.tasks import _STATEMENTS, VerificationTask, run, suite_tasks, validate
from minorrel import cli, modlinalg


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


def test_verify_exit_codes(capsys):
    assert main(["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "4"]) == 0
    capsys.readouterr()
    assert main(["verify", "no-such-statement"]) == 2
    capsys.readouterr()


def test_unknown_statement_is_a_usage_error(capsys):
    # printed like every other usage error, without the quotes str(KeyError) adds
    assert main(["verify", "nope"]) == 2
    assert capsys.readouterr().err == "error: unknown statement id 'nope'\n"


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


def test_results_dir_caching_is_byte_identical(tmp_path):
    task = VerificationTask("thm-1.1", {"m": 2, "n": 4, "d_max": 2})
    r1 = run(task, results_dir=str(tmp_path))
    files = os.listdir(tmp_path)
    assert len(files) == 1
    blob1 = (tmp_path / files[0]).read_bytes()
    r2 = run(task, results_dir=str(tmp_path))
    blob2 = (tmp_path / files[0]).read_bytes()
    assert blob1 == blob2
    assert emit(r2, "json").encode() == blob1


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
    assert main(["--results-dir", str(flag_dir)] + verify) == 0
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

def test_koszul_subcommand(capsys):
    assert main(["koszul", "--m", "3", "--n", "3", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "16" in out


def test_koszul_verbose_lists_dominant_weights(capsys):
    assert main(["koszul", "--m", "3", "--n", "3", "--d", "3", "--verbose"]) == 0
    head, *lines = capsys.readouterr().out.strip().splitlines()
    assert head.endswith(": 16")
    assert lines == [
        "  weight ((1, 1, 1), (1, 1, 1)): dim 4, orbit size 1",
        "  weight ((1, 1, 1), (2, 1, 0)): dim 1, orbit size 6",
        "  weight ((2, 1, 0), (1, 1, 1)): dim 1, orbit size 6",
    ]
    # the orbit-weighted sum of the listed dims is the printed total
    pairs = [line.split(": dim ")[1].split(", orbit size ") for line in lines]
    assert sum(int(dim) * int(size) for dim, size in pairs) == 16


# stdout of `verify que-7.1 --m 2 --n 3`, recorded while the `fiber-type`
# subcommand, which printed the same table and verdict, still existed
QUE_7_1_2X3 = """\
que-7.1  {'params': {'m': 2, 'n': 3}, 'seed': 0}
  bidegrees                predicted='-'  witnessed={'(1,2)': 2}  ok
  fiber_type               predicted=True  witnessed=True  ok
  verdict: pass
"""


def _que_7_1(argv, capsys):
    """The json report of `verify que-7.1` with argv, which must pass."""
    assert main(["verify", "que-7.1", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_verify_que_7_1_is_fiber_type_at_2x3(capsys):
    assert main(["verify", "que-7.1", "--m", "2", "--n", "3"]) == 0
    assert capsys.readouterr().out == QUE_7_1_2X3
    # every count is orbit-weighted and exact, so there is no dominant-only mode
    assert main(["verify", "que-7.1", "--m", "2", "--n", "3", "--dominant-only"]) == 2
    capsys.readouterr()


def test_verify_que_7_1_witnesses_sixteen_linear_syzygies_at_3x3(capsys):
    report = _que_7_1(["--m", "3", "--n", "3"], capsys)
    assert report["witnessed"] == {"bidegrees": {"(1,2)": 16}, "fiber_type": True}


def test_verify_que_7_1_takes_the_bidegree_window(capsys):
    # the table of test_rees.py's test_2x4_fiber_and_syzygy_generators
    report = _que_7_1(["--m", "2", "--n", "4", "--a-max", "2", "--e-max", "2"], capsys)
    assert report["task"]["params"] == {"a_max": 2, "e_max": 2, "m": 2, "n": 4}
    assert report["witnessed"]["bidegrees"] == {"(0,4)": 1, "(1,2)": 8}
    # each bound cuts off one of the two bidegrees
    report = _que_7_1(["--m", "2", "--n", "4", "--a-max", "0", "--e-max", "2"], capsys)
    assert report["witnessed"]["bidegrees"] == {"(0,4)": 1}
    report = _que_7_1(["--m", "2", "--n", "4", "--a-max", "2", "--e-max", "1"], capsys)
    assert report["witnessed"]["bidegrees"] == {"(1,2)": 8}
    # sizes past the statement's envelope are usage errors
    assert main(["verify", "que-7.1", "--m", "6", "--n", "6"]) == 2
    assert "outside envelope" in capsys.readouterr().err


def test_verify_options_are_statement_params(capsys, monkeypatch):
    # every settable verify value other than the seed and the format is a key
    # of some statement's window and reaches the task; every key of que-7.1's
    # window can be set
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [
        a
        for a in sub.choices["verify"]._actions
        if a.option_strings and a.dest not in ("help", "seed", "format")
    ]
    windows = {key for _, _, window in _STATEMENTS.values() for key in window}
    dests = {a.dest for a in options}
    assert dests <= windows
    assert set(_STATEMENTS["que-7.1"][2]) <= dests
    seen = []

    def fake_run(task, results_dir):
        seen.append(task)
        return VerificationReport(task=task.as_dict(), predicted={}, witnessed={}, verdict="pass")

    monkeypatch.setattr(cli, "run", fake_run)
    argv = [arg for a in options for arg in (a.option_strings[0], "1")]
    assert main(["verify", "que-7.1", *argv]) == 0
    capsys.readouterr()
    assert seen[0].params == dict.fromkeys(dests, 1)


def test_suite_quick_profile(capsys):
    assert main(["suite", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_config_file(tmp_path):
    cfg_file = tmp_path / "cfg"
    cfg_file.write_text("# comment\ncap = 500000\nprimes = 1000003, 999983\n")
    cfg = load_config(str(cfg_file))
    assert cfg == {"cap": "500000", "primes": "1000003, 999983"}
    old_primes = modlinalg.PRIMES
    old_cap = modlinalg.NONZERO_CAP
    try:
        apply_config(cfg)
        assert modlinalg.PRIMES == (1000003, 999983)
        assert modlinalg.NONZERO_CAP == 500000
    finally:
        modlinalg.PRIMES = old_primes
        modlinalg.NONZERO_CAP = old_cap


def test_config_requires_two_primes():
    with pytest.raises(ValueError):
        apply_config({"primes": "7"})


def _config(tmp_path, text):
    path = tmp_path / "cfg"
    path.write_text(text)
    return str(path)


@pytest.fixture
def restore_config(monkeypatch):
    # apply_config rewrites these module settings; put them back afterwards
    monkeypatch.setattr(modlinalg, "PRIMES", modlinalg.PRIMES)
    monkeypatch.setattr(modlinalg, "NONZERO_CAP", modlinalg.NONZERO_CAP)


def test_config_cap_applies_to_verify_and_suite(tmp_path, capsys, restore_config):
    cfg = _config(tmp_path, "cap = 10\n")
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
    assert main(["--config", cfg] + verify) == 2
    assert "skipped-capacity" in capsys.readouterr().out
    assert main(["--config", cfg, "suite", "--profile", "quick"]) == 2
    capsys.readouterr()


def test_config_rejects_bad_primes(tmp_path, capsys, restore_config):
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
    for primes in ("7, 7", "4, 6", "1000003, 1000003", "65521, 1000003", "1000003, 1000001"):
        cfg = _config(tmp_path, f"primes = {primes}\n")
        assert main(["--config", cfg] + verify) == 2, primes
        assert "error:" in capsys.readouterr().err
    assert main(["--config", _config(tmp_path, "primes = 1000003, 999983\n")] + verify) == 0
    capsys.readouterr()


def test_configured_primes_give_the_default_witnesses(restore_config):
    # a configured pair is run as one modulus, their product: small primes,
    # and the largest below 2^64, whose product is near 2^128
    tasks = [
        VerificationTask("thm-1.2", {"m": 3, "n": 3, "d_max": 3}),
        VerificationTask("que-7.1", {"m": 3, "n": 3, "a_max": 2, "e_max": 2}),
    ]
    default = [run(task).witnessed for task in tasks]
    for primes in ("1000003, 999983", "18446744073709551557, 18446744073709551533"):
        apply_config({"primes": primes})
        assert [run(task).witnessed for task in tasks] == default, primes


def test_config_rejects_unknown_keys_and_lines_without_equals(tmp_path, capsys, restore_config):
    # either line would otherwise leave the cap at its default and the run would pass
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
    for text in ("caps = 1\n", "cap 1\n", "caps = 1\ncap 1\n"):
        assert main(["--config", _config(tmp_path, text)] + verify) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: config line"), text


def test_config_rejects_bad_cap(tmp_path, capsys, restore_config):
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
    for cap in ("0", "-5", "1.5", "ten"):
        assert main(["--config", _config(tmp_path, f"cap = {cap}\n")] + verify) == 2, cap
        assert "error:" in capsys.readouterr().err
    assert main(["--config", _config(tmp_path, "cap = 1\n")] + verify) == 2
    assert "skipped-capacity" in capsys.readouterr().out
    assert main(["--config", _config(tmp_path, "cap = 1000000\n")] + verify) == 0
    capsys.readouterr()


def test_removed_flags_are_usage_errors(capsys):
    verify = ["verify", "thm-1.1", "--m", "2", "--n", "4", "--dmax", "2"]
    assert main(verify + ["--rank", "exact"]) == 2
    assert main(verify + ["--variant", "minors"]) == 2
    assert main(["suite", "--workers", "2"]) == 2
    # the Rees table and the fiber-type check are `verify que-7.1`
    assert main(["rees", "--m", "3", "--n", "3"]) == 2
    assert main(["fiber-type", "--m", "2", "--n", "3"]) == 2
    capsys.readouterr()


def test_eq_tor1_at_5x5_passes(capsys):
    # the Bott route needs plethysms of output degree 18 here
    assert main(["verify", "eq-tor1-Nr", "--m", "5", "--n", "5", "--r", "1"]) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_envelope_degree_bound_applies(capsys):
    # the eq-tor1-Nr envelope allows r <= 3
    assert main(["verify", "eq-tor1-Nr", "--m", "3", "--n", "3", "--r", "4"]) == 2
    assert "outside envelope" in capsys.readouterr().err


def test_cache_key_covers_primes(tmp_path, restore_config):
    task = VerificationTask("thm-1.1", {"m": 2, "n": 4, "d_max": 2})
    first = run(task, results_dir=str(tmp_path))
    apply_config({"primes": "1000003, 999983"})
    second = run(task, results_dir=str(tmp_path))
    assert len(os.listdir(tmp_path)) == 2
    assert second.task == first.task == task.as_dict()


def test_capacity_skip_is_not_cached(tmp_path, restore_config):
    apply_config({"cap": "10"})
    report = run(VerificationTask("thm-1.1", {"m": 2, "n": 4, "d_max": 2}), str(tmp_path))
    assert report.verdict == "skipped-capacity"
    assert os.listdir(tmp_path) == []


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
        ("lem-4.4", {"size": 1}),
        ("lem-4.4", {"j_max": 0}),
        ("lem-4.4", {"r_max": 0}),
        ("lem-4.4", {"size": 40, "j_max": 30}),
        ("lem-4.3", {"size": 1}),
        ("lem-4.3", {"r_max": 0}),
        ("lem-4.3", {"d_max": -1}),
        ("thm-3.1", {"m": 3, "n": 3, "d_max": 1}),
        ("thm-3.2", {"m": 3, "n": 3, "d_max": 0}),
        ("que-7.1", {"m": 2, "n": 3, "e_max": 0}),
        ("que-7.1", {"m": 2, "n": 3, "a_max": -1}),
        # defaults are checked too: d_max = r + 1 = 5 and d_max = m + 1 = 5
        ("thm-4.1", {"m": 3, "n": 3, "r": 4}),
        ("thm-5.1", {"m": 4, "n": 3}),
    ],
)
def test_validate_rejects_empty_or_oversized_windows(statement, params):
    # an empty window checks nothing and would read as a pass
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
    assert validate(VerificationTask("lem-4.4", {"size": 3})) == {
        "j_max": 4,
        "r_max": 2,
        "size": 3,
    }
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
