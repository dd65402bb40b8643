"""Command-line front end: run scenarios, sweeps, convergence studies and
print the exact-benchmark table.

Exit status of ``run`` is zero only when every configured tolerance check
passes, so acceptance suites can shell out to scenario runs directly.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .ou_exact import OUBenchmark
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    SweepConfig,
    convergence_study,
    monotonicity_sweep,
    run_scenario,
    write_convergence_csv,
    write_sweep_csv,
)


def _cmd_run(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    result = run_scenario(cfg, out_dir=args.out)
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {cfg.name}: {check.name}: {check.detail}")
    if result.out_dir is not None:
        print(f"reports written to {result.out_dir}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    sweep = SweepConfig.from_json(args.config)
    rows = monotonicity_sweep(sweep)
    print(f"{'label':<42} {'min_rate':>12} {'max_rate':>12} {'sign':>5} {'t_max':>8}")
    for r in rows:
        t_max = f"{r.time_of_max:.4g}" if r.time_of_max is not None else "-"
        print(f"{r.label:<42} {r.min_rate:>12.4e} {r.max_rate:>12.4e} "
              f"{str(r.sign_change):>5} {t_max:>8}")
    for r in rows:
        if r.failed_checks:
            print(f"warning: sweep member {r.label}: failed checks: "
                  f"{', '.join(r.failed_checks)}", file=sys.stderr)
    out = args.out or sweep.outputs
    if out is not None:
        path = sweep.base_dir / out if args.out is None else out
        write_sweep_csv(rows, path)
        print(f"sweep table written to {path}")
    return 0


def _cmd_converge(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    rows = convergence_study(cfg, args.levels)
    print(f"{'level':>5} {'nodes':>7} {'dt':>10} {'max_abs_err':>13} {'order':>7}")
    for r in rows:
        order = f"{r.observed_order:.3f}" if r.observed_order is not None else "-"
        print(f"{r.level:>5} {r.n_nodes:>7} {r.dt:>10.2e} {r.max_abs_error:>13.4e} {order:>7}")
    if args.out:
        write_convergence_csv(rows, args.out)
        print(f"convergence table written to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    bench = OUBenchmark(args.sigma0_sq)
    times = np.linspace(0.0, args.t_end, args.samples)
    print(f"{'time':>8} {'variance':>12} {'entropy':>12} {'varentropy':>12} "
          f"{'d_varentropy':>13} {'d_entropy':>12}")
    for t in times:
        print(f"{t:>8.4f} {bench.variance(t):>12.6f} {bench.relative_entropy(t):>12.6f} "
              f"{bench.varentropy(t):>12.6f} {bench.varentropy_rate(t):>13.6f} "
              f"{bench.entropy_rate(t):>12.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varentropy-lab",
        description="Entropy, Fisher information and varentropy dynamics of "
        "scalar drift-diffusion processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config", help="path to a sweep JSON file")
    p_sweep.add_argument("--out", help="CSV output path override")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conv = sub.add_parser("converge", help="refinement study on the exact benchmark")
    p_conv.add_argument("config", help="path to a benchmark scenario JSON file")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out", help="CSV output path")
    p_conv.set_defaults(func=_cmd_converge)

    p_oracle = sub.add_parser("oracle", help="print the exact benchmark table")
    p_oracle.add_argument("--sigma0-sq", type=float, required=True,
                          dest="sigma0_sq", help="initial variance")
    p_oracle.add_argument("--t-end", type=float, required=True, dest="t_end")
    p_oracle.add_argument("--samples", type=int, default=13)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
