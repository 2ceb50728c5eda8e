import argparse
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from covertawgn import cli
from covertawgn import divergences as dv
from covertawgn import planner as pl
from covertawgn import verify as vf
from covertawgn.errors import NumericError

RUN = [sys.executable, "-m", "covertawgn.cli"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, env_extra=None, **kwargs):
    env = {**os.environ, **(env_extra or {})}
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, env=env, **kwargs
    )


def test_plan_json_shape_and_flag():
    proc = run_cli("plan", "--n", "400", "--delta", "0.01")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["config"]["n"] == "400"
    res = payload["result"]
    assert res["psi_suf"] == pytest.approx(res["psi_nec"], rel=1e-12)
    assert "taylor_bracket_invalid" in res["flags"]
    assert res["psi_exact"] == pytest.approx(0.0083486670298904, rel=1e-9)


def test_plan_explicit_mu_nu2_eta():
    proc = run_cli(
        "plan", "--n", "400", "--delta", "0.01",
        "--mu", "0.8", "--nu2", "1.0025", "--eta", "1.0025",
    )
    res = json.loads(proc.stdout)["result"]
    assert res["psi_suf"] == pytest.approx(0.010393948314216065, rel=1e-12)
    assert res["psi_nec"] == pytest.approx(0.008335946548001284, rel=1e-12)


def test_divergence_json_via_tau():
    proc = run_cli("divergence", "--n", "10000", "--tau", "0.5", "--c", "2.0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["result"]
    assert res["method"] == "closed_form"
    # sigma1^2 = 1 + 2/sqrt(1e4) = 1.02
    assert res["kl_bits"] == pytest.approx(1.42374310504, rel=1e-9)
    assert res["hellinger_sq"] <= res["tvd"]


def test_divergence_json_via_planned_power():
    proc = run_cli("divergence", "--n", "400", "--delta", "0.01")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["result"]
    assert 0.0 < res["kl_bits"] < 0.01  # mu psi_suf stays inside the budget


def test_divergence_reports_the_sigma1_sq_it_evaluated(capsys):
    mu = 1.0 - 1.0 / 401
    planned = 1.0 + mu * pl.psi_suf(400, 0.01, mu, 1.0 + 1.0 / 400)
    for argv, sigma1_sq in ((["--delta", "0.01"], planned), (["--tau", "0.5"], 1.0 + 400**-0.5)):
        assert cli.main(["divergence", "--n", "400", *argv]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert list(res) == ["kl_bits", "tvd", "hellinger_sq", "chi_sq", "method", "sigma1_sq"]
        assert res["sigma1_sq"] == sigma1_sq
        pair = dv.IsotropicGaussianPair(n=400, sigma1_sq=sigma1_sq)
        assert {k: res[k] for k in list(res)[:-1]} == dv.isotropic_report(pair).to_dict()


def test_bounds_csv_golden_header_and_ordering():
    proc = run_cli("bounds", "--n", "1e3..1e5", "--delta", "0.01")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# subcommand=bounds") for l in comments)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == (
        "n,delta,epsilon,achievability_bits,converse_bits,first_order,"
        "second_order_conv,second_order_achiev,v1,v2"
    )
    rows = [l.split(",") for l in lines[header_idx + 1:]]
    assert len(rows) >= 70  # ~40 points per decade over two decades
    for row in rows:
        assert float(row[3]) < float(row[4])  # achievability below converse
    assert int(rows[0][0]) == 1000
    assert int(rows[-1][0]) == 100000


def test_bounds_json_format():
    proc = run_cli("bounds", "--n", "1e4", "--delta", "0.01", "--format", "json")
    payload = json.loads(proc.stdout)
    rows = payload["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["achievability_bits"] == pytest.approx(11.109560718058678, rel=1e-10)


def test_sweep_csv_columns_and_classification():
    proc = run_cli("sweep", "--tau", "0.5", "--c", "2.0", "--n", "1e4..1e5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert "# classification=plateau" in lines
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "n,theta,sigma1_sq,kl_bits,tvd,hellinger_sq"
    rows = list(csv.DictReader(lines[header_idx:]))
    assert len(rows) == cli.bd.default_n_grid(10**4, 10**5).size
    for row in rows:
        theta = 2.0 * float(int(row["n"])) ** -0.5
        assert row["theta"] == f"{theta:.12g}" and row["sigma1_sq"] == f"{1.0 + theta:.12g}"


def test_sweep_json_divergent():
    proc = run_cli("sweep", "--tau", "0.25", "--n", "1e3..1e6", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["result"]["classification"] == "divergent"


@pytest.mark.parametrize("grid,err", [
    ("0,100,1000,10000", "got n_grid[0] = 0\n"),
    ("10000,1000,100,10", "got n_grid[1] = 1000 after 10000\n"),
    ("100,1000.9,10000,100000", "--n: need integer blocklengths below 2**63, got 1000.9\n"),
    ("100.9..1e4", "--n: need integer blocklengths below 2**63, got 100.9\n"),
    ("1e2..1e30", "--n: need integer blocklengths below 2**63, got 1e+30\n"),
], ids=["zero", "reversed", "fraction", "fraction_range_end", "range_end_beyond_int64"])
def test_sweep_grid_it_cannot_evaluate_exits_2_naming_the_entry(capsys, grid, err):
    assert cli.main(["sweep", "--tau", "0.5", "--n", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(err)


def test_simulate_small_run():
    proc = run_cli(
        "simulate", "--n", "16", "--delta", "0.05", "--mu", "0.8",
        "--M", "2", "--trials", "600", "--seed", "3",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    res = payload["result"]
    assert res["decode_trials"] == 600
    assert res["detection"]["trials_h0"] == 600
    assert 0.0 <= res["decode_error_rate"] <= 1.0
    assert res["config"]["seed"] == 3


SIM_SMALL = ("simulate", "--n", "16", "--delta", "0.05", "--M", "2", "--trials", "100")


def test_default_seed_is_zero():
    # the seed comes from --seed alone; the environment does not set it
    proc = run_cli(*SIM_SMALL, env_extra={"COVERT_SEED": "9"})
    payload = json.loads(proc.stdout)
    assert payload["config"]["seed"] == 0
    assert payload["result"]["config"]["seed"] == 0


# each subcommand's flags; 35 (subcommand, flag) pairs in all
ACCEPTED_FLAGS = {
    "plan": {"n", "delta", "epsilon", "mu", "nu2", "eta", "out"},
    "divergence": {"n", "delta", "mu", "nu2", "tau", "c", "out"},
    "bounds": {"n", "delta", "epsilon", "format", "out"},
    "sweep": {"n", "tau", "c", "format", "out"},
    "simulate": {"n", "delta", "mu", "nu2", "tau", "c", "M", "trials", "seed", "out"},
    "verify": {"out"},
}


def _accepted_flags() -> dict[str, set[str]]:
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt[2:] for act in sub._actions for opt in act.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    accepted = _accepted_flags()
    assert accepted == ACCEPTED_FLAGS
    assert sum(len(flags) for flags in accepted.values()) == 35


def test_readme_flag_table_matches_parser():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", section, flags=re.MULTILINE)
    table = {name: {flag[2:] for flag in flags.split()} for name, flags in rows}
    assert len(table) == len(rows)
    assert table == _accepted_flags()


def test_flags_a_subcommand_does_not_read_exit_2():
    assert run_cli("bounds", "--n", "1e4", "--delta", "0.01", "--mu", "0.5").returncode == 2
    assert run_cli("plan", "--n", "400", "--delta", "0.01", "--seed", "3").returncode == 2
    assert run_cli("plan", "--n", "400", "--delta", "0.01", "--config", "run.cfg").returncode == 2
    assert run_cli("simulate", "--n", "16", "--delta", "0.05", "--workers", "2").returncode == 2
    # the schedule (--tau, --c) and the planned corner (--delta, ...) do not mix
    mixed = run_cli("divergence", "--n", "400", "--tau", "0.5", "--delta", "0.01")
    assert mixed.returncode == 2
    assert "two ways" in mixed.stderr
    assert run_cli("simulate", "--n", "16", "--delta", "0.05", "--c", "2").returncode == 2
    assert run_cli("divergence", "--n", "400", "--c", "2").returncode == 2
    # the bounds CSV echoes only what the run read, its defaulted --format
    # included (it was once left out: "# subcommand=bounds", "# n=1e3..1e4",
    # "# delta=0.01", "# epsilon=0.1")
    proc = run_cli("bounds", "--n", "1e3..1e4", "--delta", "0.01")
    assert proc.returncode == 0, proc.stderr
    comments = [l for l in proc.stdout.splitlines() if l.startswith("#")]
    assert comments == ["# subcommand=bounds", "# n=1e3..1e4", "# delta=0.01", "# epsilon=0.1",
                        "# format=csv"]


def test_each_output_echoes_the_defaults_its_run_used(capsys):
    assert cli.main(["simulate", "--n", "16", "--delta", "0.05", "--trials", "100"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["M"] == 4 and config["trials"] == 100
    assert cli.main(["simulate", "--n", "16", "--delta", "0.05", "--M", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["trials"] == 10_000
    assert cli.main(["sweep", "--tau", "0.5", "--n", "1e2..1e3"]) == 0
    comments = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
    assert comments[:5] == ["# subcommand=sweep", "# n=1e2..1e3", "# tau=0.5", "# c=1.0",
                            "# format=csv"]
    assert cli.main(["divergence", "--n", "400", "--tau", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "subcommand": "divergence", "n": "400", "tau": 0.5, "c": 1.0}


def test_sweep_past_the_largest_float_exits_2(capsys):
    assert cli.main(["sweep", "--tau", "0.01", "--c", "1e301"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: asymptotic_sweep: n * sigma1_sq overflows from n=22387211")


def test_out_flag_writes_file(tmp_path):
    dest = tmp_path / "bounds.csv"
    proc = run_cli("bounds", "--n", "1e4", "--delta", "0.01", "--out", str(dest))
    assert proc.returncode == 0
    assert proc.stdout == ""
    text = dest.read_text()
    assert "achievability_bits" in text


def test_out_write_failure_exits_2(tmp_path):
    dest = tmp_path / "missing" / "bounds.csv"
    proc = run_cli("bounds", "--n", "1e4", "--delta", "0.01", "--out", str(dest))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {dest}: ")
    assert "Traceback" not in proc.stderr


def test_exit_code_2_on_bad_inputs():
    assert run_cli("plan", "--n", "0", "--delta", "0.01").returncode == 2
    assert run_cli("plan", "--n", "400").returncode == 2  # missing delta
    assert run_cli("plan", "--n", "400", "--delta", "-1").returncode == 2
    assert run_cli("bounds", "--n", "1e4", "--delta", "abc").returncode == 2  # unparseable
    one_trial = run_cli(
        "simulate", "--n", "16", "--delta", "0.05", "--mu", "0.8", "--trials", "1"
    )
    assert one_trial.returncode == 2
    assert "trials >= 2" in one_trial.stderr
    assert run_cli("sweep", "--tau", "0.5", "--format", "xml").returncode == 2


def test_negative_M_exits_2_naming_it():
    proc = run_cli("simulate", "--n", "16", "--delta", "0.05", "--M", "-5")
    assert proc.returncode == 2
    assert proc.stderr == "error: simulate: need M >= 2, got -5\n"


def test_negative_seed_exits_2_naming_it(capsys):
    assert cli.main(["simulate", "--n", "16", "--delta", "0.05", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0, got -1" in err


def test_exit_code_2_on_malformed_grid():
    assert run_cli("bounds", "--n", "abc", "--delta", "0.01").returncode == 2
    assert run_cli("bounds", "--n", "1e5..1e3", "--delta", "0.01").returncode == 2


@pytest.mark.parametrize("grid", ["inf", "1..inf", "1e30"])
def test_overflowing_grid_exits_2_naming_n(grid, capsys):
    # int(float("inf")) and an n past int64 raise OverflowError, not ValueError
    assert cli.main(["bounds", "--n", grid, "--delta", "0.01"]) == 2
    assert "--n" in capsys.readouterr().err


def test_exit_code_3_on_numeric_failure(monkeypatch, capsys):
    def boom(params):
        raise NumericError("synthetic instability")

    monkeypatch.setattr(cli.pl, "plan", boom)
    rc = cli.main(["plan", "--n", "400", "--delta", "0.01"])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_main_inprocess_plan(capsys):
    rc = cli.main(["plan", "--n", "1024", "--delta", "0.005"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["psi_exact"] > 0.0


def test_verify_gate_exit_code_and_table(tmp_path, monkeypatch, capsys, verify_results):
    # the checks themselves ran once for the session; this tests the gate
    monkeypatch.setattr(vf, "run_all", lambda: verify_results)
    dest = tmp_path / "verify.json"
    rc = cli.main(["verify", "--out", str(dest)])
    # two structural gaps are real at these blocklengths, so the gate trips
    assert rc == 4
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out
    assert "8/10 checks passed; failed: [1, 9]" in out
    payload = json.loads(dest.read_text())
    assert payload["config"] == {"subcommand": "verify", "out": str(dest)}
    by_crit = {r["criterion"]: r for r in payload["result"]}
    assert len(by_crit) == 10
    assert by_crit[1]["passed"] is False
    assert by_crit[9]["passed"] is False
    assert all(by_crit[k]["passed"] for k in (2, 3, 4, 5, 6, 7, 8, 10))
    # every CheckResult field, the time budget the table prints included
    assert [list(r) for r in payload["result"]] == [list(asdict(r)) for r in verify_results]
    assert [r["limit"] for r in payload["result"]] == [r.limit for r in verify_results]
