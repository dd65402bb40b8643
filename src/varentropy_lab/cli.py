"""Command-line front end: run scenarios, sweeps, convergence studies and
print the exact-benchmark table.

Exit status of ``run`` is zero only when every configured tolerance check
passes, so acceptance suites can shell out to scenario runs directly. A
config error (an unreadable file or an ``--out`` path that cannot be
checked included) exits 2, and a failed solve, an allocation too large for
memory or a failed write of the outputs exits 1, each with one line on
stderr and no traceback; argparse refuses a bad argument with exit 2.

A command writes only to the path its ``--out`` names; without one it
writes nothing.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, SweepConfig
from .ou_exact import OUBenchmark
from .scenarios import (
    convergence_study,
    monotonicity_sweep,
    run_scenario,
    write_convergence_csv,
    write_sweep_csv,
)


def _refuse_output(path, directory: bool):
    """Refuse, before any work, an ``--out`` path that the final write would
    fail on: one below an existing non-directory, an existing non-directory
    where a run writes its reports, a directory where a table file goes, or
    one that cannot be checked at all."""
    if path is None:
        return
    target = Path(path)
    try:
        blocker = next((p for p in target.parents if p.exists()), None)
        if blocker is not None and not blocker.is_dir():
            raise ConfigError(f"--out: '{path}' lies below '{blocker}', which is not a directory")
        if directory and target.exists() and not target.is_dir():
            raise ConfigError(f"--out: '{path}' is not a directory")
        if not directory and target.is_dir():
            raise ConfigError(f"--out: '{path}' is a directory, not a file")
    except OSError as err:  # a name too long, say
        raise ConfigError(f"--out: '{path}': {err.strerror}") from err


def _cmd_run(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    _refuse_output(args.out, directory=True)
    result = run_scenario(cfg, args.out)
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {cfg.name}: {check.name}: {check.detail}")
    if result.out_dir is not None:
        print(f"reports written to {result.out_dir}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    sweep = SweepConfig.from_json(args.config)
    _refuse_output(args.out, directory=False)
    rows = monotonicity_sweep(sweep)
    width = max([len("label")] + [len(r.label) for r in rows])
    print(f"{'label':<{width}} {'min_rate':>12} {'max_rate':>12} {'sign':>5} {'t_max':>8}")
    for r in rows:
        t_max = f"{r.time_of_max:.4g}" if r.time_of_max is not None else "-"
        print(f"{r.label:<{width}} {r.min_rate:>12.4e} {r.max_rate:>12.4e} "
              f"{str(r.sign_change):>5} {t_max:>8}")
    for r in rows:
        if r.failed_checks:
            print(f"warning: sweep member {r.label}: failed checks: "
                  f"{', '.join(r.failed_checks)}", file=sys.stderr)
    if args.out is not None:
        write_sweep_csv(rows, args.out)
        print(f"sweep table written to {args.out}")
    return 0


def _cmd_converge(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    _refuse_output(args.out, directory=False)
    study = convergence_study(cfg, args.levels)
    print(f"{'level':>5} {'nodes':>7} {'dt':>10} {'max_abs_err':>13} {'order':>7}", flush=True)
    rows = []
    # each level's line as it finishes: the finest level takes the longest
    for r in study:
        order = f"{r.observed_order:.3f}" if r.observed_order is not None else "-"
        print(f"{r.level:>5} {r.n_nodes:>7} {r.dt:>10.2e} {r.max_abs_error:>13.4e} {order:>7}",
              flush=True)
        rows.append(r)
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


def _positive(kind):
    """An argument type: a positive, finite number of ``kind``."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varentropy-lab",
        description="Entropy, Fisher information and varentropy dynamics of "
        "scalar drift-diffusion processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config", help="path to a sweep JSON file")
    p_sweep.add_argument("--out", help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conv = sub.add_parser("converge", help="refinement study on the exact benchmark")
    p_conv.add_argument("config", help="path to a benchmark scenario JSON file")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--out", help="CSV output path")
    p_conv.set_defaults(func=_cmd_converge)

    p_oracle = sub.add_parser("oracle", help="print the exact benchmark table")
    p_oracle.add_argument("--sigma0-sq", type=_positive(float), required=True,
                          dest="sigma0_sq", help="initial variance")
    p_oracle.add_argument("--t-end", type=_positive(float), required=True, dest="t_end")
    p_oracle.add_argument("--samples", type=_positive(int), default=13)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"memory error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        # past parsing, the only files a command touches are its outputs
        print(f"output error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
