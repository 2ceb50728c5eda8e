"""Batch front door: plan / divergence / bounds / sweep / simulate / verify.

Each subcommand accepts exactly the flags it reads (_SUBCOMMAND_FLAGS), and
its settings come from those flags alone, typed and defaulted by argparse;
the config, holding only what the run read, is embedded in every output so
runs are self-describing. Exit codes: 2 config, domain or input error (an
unknown flag or an unparseable value included), 3 numeric failure, 4
verification gate failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bounds as bd
from . import divergences as dv
from . import planner as pl
from . import simkit as sk
from . import truncgauss as tg
from . import verify as vf
from .errors import ConfigError, CovertError, NumericError

__all__ = ["main", "build_parser"]

# flag name -> (type, default, help)
_FLAG_SPEC = {
    "n": (str, None, "blocklength: single value, comma list, or log grid 'a..b'"),
    "delta": (float, None, "covertness budget delta in bits"),
    "epsilon": (float, 0.1, "target error probability (default 0.1)"),
    "mu": (float, None, "shell truncation ratio in (0,1)"),
    "nu2": (float, None, "sufficient-corner slack nu^2 >= 1"),
    "eta": (float, None, "necessary-corner slack eta > 1"),
    "tau": (float, None, "power-schedule exponent: psi = c * n^-tau"),
    "c": (float, None, "power-schedule coefficient (default 1.0)"),
    "M": (int, None, "codebook size (default 4)"),
    "trials": (int, None, "Monte-Carlo trials (default 10000)"),
    "seed": (int, 0, "master seed (default 0)"),
    "format": (str, None, "output format: csv (default) or json"),
    "out": (str, None, "output path (default: stdout)"),
}

# subcommand -> the flags it reads, in _FLAG_SPEC order
_SUBCOMMAND_FLAGS = {
    "plan": ("n", "delta", "epsilon", "mu", "nu2", "eta", "out"),
    "divergence": ("n", "delta", "mu", "nu2", "tau", "c", "out"),
    "bounds": ("n", "delta", "epsilon", "format", "out"),
    "sweep": ("n", "tau", "c", "format", "out"),
    "simulate": ("n", "delta", "mu", "nu2", "tau", "c", "M", "trials", "seed", "out"),
    "verify": ("out",),
}

# divergence and simulate set the power by the schedule (tau, c) or by the
# planned corner (delta, ...); a run gives one of the two
_POWER_WAYS = {
    "divergence": (("tau", "c"), ("delta", "mu", "nu2")),
    "simulate": (("tau", "c"), ("delta", "nu2")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertawgn",
        description="Covert-communication planning, bounds, and simulation "
        "on the unit-noise AWGN channel.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in _SUBCOMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            kind, default, text = _FLAG_SPEC[flag]
            p.add_argument(f"--{flag}", type=kind, default=default, help=text)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """The subcommand's flags, after rejecting a run that sets the power two
    ways."""
    sub = args.subcommand
    cfg = {"subcommand": sub, **{flag: getattr(args, flag) for flag in _SUBCOMMAND_FLAGS[sub]}}
    if sub in _POWER_WAYS:
        schedule, planned = ([k for k in way if cfg[k] is not None] for way in _POWER_WAYS[sub])
        if schedule and planned:
            raise ConfigError(
                f"{sub}: --{schedule[0]} and --{planned[0]} set the power two ways; give one"
            )
        if cfg["c"] is not None and cfg["tau"] is None:
            raise ConfigError(f"{sub}: --c needs --tau")
    return cfg


def _blocklengths(text: str, tokens: list[str]) -> list[int]:
    """The tokens of --n as ints, or ConfigError at the first that is not an
    integer below 2**63 (int64), rather than truncating it."""
    try:
        floats = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"--n: cannot parse {text!r}") from exc
    bad = [v for v in floats if not (v.is_integer() and abs(v) < 2**63)]
    if bad:
        raise ConfigError(f"--n: need integer blocklengths below 2**63, got {bad[0]!r}")
    return [int(v) for v in floats]


def _parse_n_grid(text: str) -> np.ndarray:
    """'a..b' -> log grid at 40 points/decade; 'x,y,z' -> list; 'x' -> single."""
    if ".." in text:
        lo, hi = _blocklengths(text, text.split("..", 1))
        return bd.default_n_grid(lo, hi)
    tokens = [tok for tok in text.split(",") if tok.strip()]
    vals = np.asarray(_blocklengths(text, tokens), dtype=np.int64)
    if not vals.size:
        raise ConfigError("--n: empty grid")
    return vals


def _single_n(cfg: dict) -> int:
    if cfg["n"] is None:
        raise ConfigError(f"{cfg['subcommand']}: --n is required")
    grid = _parse_n_grid(cfg["n"])
    if grid.size != 1:
        raise ConfigError(f"{cfg['subcommand']}: --n must be a single value")
    return int(grid[0])


def _require(cfg: dict, key: str) -> object:
    if cfg[key] is None:
        raise ConfigError(f"{cfg['subcommand']}: --{key} is required")
    return cfg[key]


def _params(cfg: dict, n: int) -> pl.CovertParams:
    """CovertParams from resolved config, defaulting unset slacks to the
    asymptotic presets."""
    base = pl.CovertParams.defaults(n, float(_require(cfg, "delta")), cfg["epsilon"])
    return pl.CovertParams(
        n=n,
        delta=base.delta,
        epsilon=base.epsilon,
        mu=base.mu if cfg["mu"] is None else cfg["mu"],
        nu_sq=base.nu_sq if cfg["nu2"] is None else cfg["nu2"],
        eta=base.eta if cfg["eta"] is None else cfg["eta"],
    )


def _shell_power(cfg: dict, n: int) -> tuple[float, float]:
    """(mu, psi) for divergence and simulate: mu from --mu (default 1 - 1/(n+1));
    psi = c n^-tau when --tau is given (c defaults to 1), else psi_suf at
    --delta and --nu2 (default 1 + 1/n)."""
    mu = cfg["mu"] if cfg["mu"] is not None else 1.0 - 1.0 / (n + 1)
    if cfg["tau"] is not None:
        c = 1.0 if cfg["c"] is None else cfg["c"]
        return mu, c * float(n) ** (-cfg["tau"])
    nu2 = cfg["nu2"] if cfg["nu2"] is not None else pl.nu_lemma_shell(n)
    return mu, pl.psi_suf(n, float(_require(cfg, "delta")), mu, nu2)


def _config_echo(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if v is not None}


def _emit(text: str, cfg: dict) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if cfg["out"]:
        try:
            with open(cfg["out"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg['out']}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict | list, cfg: dict) -> None:
    _emit(json.dumps({"config": _config_echo(cfg), "result": payload}, indent=2), cfg)


def _want_format(cfg: dict) -> str:
    fmt = cfg["format"] or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{cfg['subcommand']}: format {fmt!r} not supported (csv or json)")
    return fmt


def _cmd_plan(cfg: dict) -> int:
    plan = pl.plan(_params(cfg, _single_n(cfg)))
    _emit_json(plan.to_dict(), cfg)
    return 0


def _cmd_divergence(cfg: dict) -> int:
    """Closed-form report for the isotropic output law: sigma1^2 = 1 + c n^-tau
    when --tau is given, else 1 + mu * psi_suf at the planned power."""
    n = _single_n(cfg)
    mu, psi = _shell_power(cfg, n)
    excess = psi if cfg["tau"] is not None else mu * psi
    report = dv.isotropic_report(dv.IsotropicGaussianPair(n=n, sigma1_sq=1.0 + excess))
    _emit_json(report.to_dict(), cfg)
    return 0


def _cmd_bounds(cfg: dict) -> int:
    fmt = _want_format(cfg)
    if cfg["n"] is None:
        raise ConfigError("bounds: --n is required")
    grid = _parse_n_grid(cfg["n"])
    delta = float(_require(cfg, "delta"))
    rows = bd.bounds_grid(grid, delta, cfg["epsilon"])
    if fmt == "csv":
        _emit(bd.bounds_csv_text(rows, comments=_config_echo(cfg)), cfg)
    else:
        _emit_json({"rows": [r.to_dict() for r in rows]}, cfg)
    return 0


def _cmd_sweep(cfg: dict) -> int:
    fmt = _want_format(cfg)
    tau = float(_require(cfg, "tau"))
    c = 1.0 if cfg["c"] is None else cfg["c"]
    grid = _parse_n_grid(cfg["n"]) if cfg["n"] is not None else None
    sweep = bd.asymptotic_sweep(c, tau, grid)
    if fmt == "json":
        _emit_json(sweep.to_dict(), cfg)
        return 0
    comments = {**_config_echo(cfg), "classification": sweep.classification}
    if sweep.plateau_kl_bits is not None:
        comments["plateau_kl_bits"] = sweep.plateau_kl_bits
    theta = bd._schedule_power(c, tau, sweep.n_grid.astype(float))
    rows = zip(sweep.n_grid, theta, 1.0 + theta, sweep.kl_bits, sweep.tvd, sweep.hellinger_sq)
    header = ("n", "theta", "sigma1_sq", "kl_bits", "tvd", "hellinger_sq")
    _emit(bd._csv_text(header, rows, comments), cfg)
    return 0


def _cmd_simulate(cfg: dict) -> int:
    n = _single_n(cfg)
    mu, psi = _shell_power(cfg, n)
    spec = tg.TruncatedGaussianSpec(n=n, psi=psi, mu=mu)
    result = sk.simulate(
        spec,
        M=cfg["M"] if cfg["M"] is not None else 4,
        trials=cfg["trials"] if cfg["trials"] is not None else 10_000,
        seed=cfg["seed"],
    )
    _emit_json(result.to_dict(), cfg)
    return 0


def _cmd_verify(cfg: dict) -> int:
    results = vf.run_all()
    width = max(len(r.name) for r in results)
    print(f"{'#':>2}  {'status':6}  {'runtime':>14}  check")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.criterion:2d}  {status:6}  {r.runtime:7.2f}s/{r.limit:4.0f}s  "
              f"{r.name:{width}}  {r.detail}")
    failed = [r.criterion for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed"
          + (f"; failed: {failed}" if failed else ""))
    if cfg["out"]:
        _emit_json([asdict(r) for r in results], cfg)
    return 4 if failed else 0


# one parser per process: a parser built per call is cyclic garbage that
# piles up between collections when main() runs in a loop
_PARSER = build_parser()

_HANDLERS = {
    "plan": _cmd_plan,
    "divergence": _cmd_divergence,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _HANDLERS[args.subcommand](cfg)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CovertError as exc:  # config, domain and input errors alike
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
