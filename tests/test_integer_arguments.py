"""One rule for every integer argument (errors._integer): each public entry
point takes an int, a numpy integer or an integer-valued float in
[least, 2**63) as a Python int, and refuses anything else at entry with a
DomainError naming itself and the value."""

import json
import re

import numpy as np
import pytest

from covertawgn import bounds as bd
from covertawgn import cli
from covertawgn import divergences as dv
from covertawgn import planner as pl
from covertawgn import simkit as sk
from covertawgn import truncgauss as tg
from covertawgn.errors import DomainError

SPEC = tg.TruncatedGaussianSpec(16, 0.3, 0.8)

# (who, least, call with the integer argument)
ENTRIES = {
    "nu_lemma_shell.n": ("nu_lemma_shell", 1, lambda v: pl.nu_lemma_shell(v)),
    "CovertParams.n": ("CovertParams", 1, lambda v: pl.CovertParams(v, 0.01, 0.1, 0.8, 1.0, 1.5)),
    "CovertParams.defaults.n": (
        "CovertParams.defaults", 1, lambda v: pl.CovertParams.defaults(v, 0.01)),
    "psi_nec.n": ("psi_nec", 1, lambda v: pl.psi_nec(v, 0.01, 1.5)),
    "psi_suf.n": ("psi_suf", 1, lambda v: pl.psi_suf(v, 0.01, 0.8, 1.0)),
    "solve_exact_power.n": ("solve_exact_power", 1, lambda v: pl.solve_exact_power(v, 0.01)),
    "IsotropicGaussianPair.n": (
        "IsotropicGaussianPair", 1, lambda v: dv.IsotropicGaussianPair(v, 1.5)),
    "shell_mass.n": ("shell_mass", 1, lambda v: tg.shell_mass(v, 0.8)),
    "TruncatedGaussianSpec.n": (
        "TruncatedGaussianSpec", 1, lambda v: tg.TruncatedGaussianSpec(v, 0.1, 0.8)),
    "sample_codewords.count": (
        "sample_codewords", 1, lambda v: tg.sample_codewords(SPEC, v, np.random.default_rng(0))),
    "bounds_grid.n_values": ("bounds_grid", 1, lambda v: bd.bounds_grid([v], 0.01)),
    "default_n_grid.n_min": ("default_n_grid", 1, lambda v: bd.default_n_grid(v, 10**4)),
    "default_n_grid.n_max": ("default_n_grid", 101, lambda v: bd.default_n_grid(100, v)),
    "asymptotic_sweep.n_grid": ("asymptotic_sweep", 1, lambda v: bd.asymptotic_sweep(1.0, 0.5, [v])),
    "build_codebook.M": ("build_codebook", 2, lambda v: sk.build_codebook(SPEC, v, 0)),
    "build_codebook.seed": ("build_codebook", 0, lambda v: sk.build_codebook(SPEC, 4, v)),
    "empirical_divergences.n_samples": (
        "empirical_divergences", 2, lambda v: sk.empirical_divergences(SPEC, v, 0)),
    "empirical_divergences.seed": (
        "empirical_divergences", 0, lambda v: sk.empirical_divergences(SPEC, 64, v)),
    "simulate.M": ("simulate", 2, lambda v: sk.simulate(SPEC, v, 64, 0)),
    "simulate.trials": ("simulate", 2, lambda v: sk.simulate(SPEC, 4, v, 0)),
    "simulate.seed": ("simulate", 0, lambda v: sk.simulate(SPEC, 4, 64, v)),
}

BAD = {"fraction": lambda least: 2.5, "nan": lambda least: float("nan"),
       "inf": lambda least: float("inf"), "below_least": lambda least: least - 1,
       "int64_end": lambda least: 2**63}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_point_refuses_a_non_integer_argument_naming_itself_and_the_value(entry, kind):
    # each used to slip through its own rule: psi_suf(nan) returned NaN,
    # TruncatedGaussianSpec(inf) raised NumericError, and others a bare
    # TypeError or OverflowError
    who, least, call = ENTRIES[entry]
    value = BAD[kind](least)
    with pytest.raises(DomainError) as err:
        call(value)
    assert type(err.value) is DomainError
    message = str(err.value)
    assert message.startswith(f"{who}: need ") and message.endswith(f", got {value!r}")


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("flag,argv", [
    ("--n", ["plan", "--delta", "0.01", "--n"]),
    ("--M", ["simulate", "--n", "16", "--delta", "0.05", "--trials", "64", "--M"]),
    ("--trials", ["simulate", "--n", "16", "--delta", "0.05", "--trials"]),
    ("--seed", ["simulate", "--n", "16", "--delta", "0.05", "--trials", "64", "--seed"]),
])
def test_cli_refuses_a_non_integer_flag_with_exit_2(capsys, flag, argv, kind):
    # --n goes through the one rule itself; argparse refuses a non-int --M,
    # --trials or --seed, and simulate an int outside its range
    least = {"--n": 1, "--M": 2, "--trials": 2, "--seed": 0}[flag]
    text = str(BAD[kind](least))
    try:
        code = cli.main(argv + [text])
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    named = repr(float(text)) if flag == "--n" else text
    assert named in err
    assert flag in err or re.search(rf"simulate: need (an integer )?{flag[2:]} ", err)


def test_integer_valued_floats_and_numpy_integers_are_stored_as_ints():
    for n in (np.int64(400), 400.0, np.float64(400.0), np.int32(400)):
        params = pl.CovertParams.defaults(n, 0.01)
        assert type(params.n) is int and params == pl.CovertParams.defaults(400, 0.01)
        assert type(dv.IsotropicGaussianPair(n, 1.5).n) is int
        assert type(tg.TruncatedGaussianSpec(n, 0.1, 0.8).n) is int
        assert pl.psi_suf(n, 0.01, 0.8, 1.0) == pl.psi_suf(400, 0.01, 0.8, 1.0)
        assert tg.shell_mass(n, 0.8) == tg.shell_mass(400, 0.8)
        assert bd.default_n_grid(n, 4000.0).tolist() == bd.default_n_grid(400, 4000).tolist()
        assert [r.n for r in bd.bounds_grid([n], 0.01)] == [400]
    text = json.dumps(pl.plan(pl.CovertParams.defaults(np.int64(400), 0.01)).to_dict())
    assert json.loads(text)["n"] == 400


def test_simulate_takes_numpy_and_float_integers_and_its_dict_serializes():
    spec = tg.TruncatedGaussianSpec(np.int64(16), 0.3, 0.8)
    got = sk.simulate(spec, np.int64(4), np.float64(256.0), np.int64(3)).to_dict()
    want = sk.simulate(SPEC, 4, 256, 3).to_dict()
    assert json.loads(json.dumps(got))["config"] == {
        "n": 16, "psi": 0.3, "mu": 0.8, "M": 4, "trials": 256, "seed": 3}
    assert all(type(v) is int for k, v in got["config"].items() if k in ("n", "M", "trials", "seed"))
    del got["wall_time"], want["wall_time"]
    assert got == want
