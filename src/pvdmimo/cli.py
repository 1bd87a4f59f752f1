"""Command-line front end: run / sweep / validate experiment configs.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime
failures. --seed, --trials, --out, --workers and --diagnostics override the
config's fields of the same name.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    load_config,
    run_experiment,
    sweep,
)


def _parse_values(text: str, flag: str = "--values") -> list[float]:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = float(tok)
        except ValueError:
            raise ConfigError(f"{flag}: {tok!r} is not a number") from None
        vals.append(int(v) if v.is_integer() else v)
    return vals


def _parse_links(items: list[str]) -> dict:
    links = {}
    for item in items:
        path, _, text = item.partition("=")
        if not text:
            raise ConfigError(f"--link expects PATH=V1,V2,..., got {item!r}")
        links[path.strip()] = _parse_values(text, f"--link {path.strip()}")
    return links


def _apply_overrides(cfg: dict, args) -> dict:
    for key in ("seed", "trials", "out", "workers"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if args.diagnostics:
        cfg["diagnostics"] = True
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvdmimo",
        description="Blind MIMO recovery experiments: Monte Carlo runs, sweeps, "
                    "and config validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--out", help="override the output CSV path")
        p.add_argument("--workers", type=int, help="override the worker count")
        p.add_argument("--diagnostics", action="store_true",
                       help="also write the per-step reverse-process trace")

    p_run = sub.add_parser("run", help="run the Monte Carlo experiment")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep one numeric config field")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. dims.N_t")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,2,4")
    p_sweep.add_argument("--link", action="append", default=[],
                         metavar="PATH=V1,V2,...",
                         help="set another field to one value per swept value, "
                              "e.g. dims.N_r=8,16,32")

    p_val = sub.add_parser("validate", help="check a config and report violations")
    p_val.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            ExperimentConfig.from_dict(cfg)
            print("config ok")
            return 0
        cfg = _apply_overrides(cfg, args)
        if args.command == "run":
            records = run_experiment(cfg)
            errors = sum(1 for r in records if r.error)
            print(f"{len(records)} rows ({errors} error-flagged)"
                  + (f" -> {cfg.get('out')}" if cfg.get("out") else ""))
            return 0
        summary = sweep(cfg, args.param, _parse_values(args.values),
                        links=_parse_links(args.link), out=args.out)
        for row in summary:
            print(f"{row['param']}={row['value']}: rows={row['rows']} "
                  f"errors={row['errors']} nmse_db_median={row['nmse_db_median']}")
        return 0
    except ConfigError as exc:
        # validate reports on stdout: the problems are its output
        print("\n".join(exc.problems),
              file=sys.stdout if args.command == "validate" else sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
