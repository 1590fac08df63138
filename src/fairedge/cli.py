"""Command-line entry point.

Subcommands: gen, solve, bounds, verify, sweep.  This module only parses
arguments and dispatches; the verify suites live in `oracle`.  Human-readable
summaries go to stderr and machine-readable JSON to stdout so outputs can be
piped.  All randomness flows from the explicit --seed flag, so identical
invocations produce byte-identical output; only `solve` stamps a time, which
its --deterministic flag drops.

Exit codes: 0 success, 1 infeasible scenario or failed check, 2 usage,
parse or file error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import fairopt, oracle
from .exitpolicy import ThresholdPair, UndefinedMetricError, evaluate, write_sweep_csv
from .fairopt import InfeasibleScenarioError, SolveOptions
from .link import LinkError
from .scenario import (
    ScenarioParseError,
    build_bundle,
    bundle_to_dict,
    load_scenario,
    parse_document,
    random_scenario_config,
    realize,
    serialize_document,
    write_bundle,
)
from .trace import TraceParseError, load_stream, save_stream


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _say(message: str) -> None:
    sys.stderr.write(message + "\n")


def cmd_gen(args: argparse.Namespace) -> int:
    config = random_scenario_config(
        n_ues=args.ues,
        n_ens=args.ens,
        seed=args.seed,
        security_levels=args.security_levels,
    )
    out_dir = Path(args.out)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    file_ues = []
    for i, ue in enumerate(config.ues):
        rel = f"traces/ue_{i:02d}.csv"
        save_stream(ue.generator.stream, out_dir / rel)
        file_ues.append(dataclasses.replace(ue, generator=None, trace_file=rel))
    file_config = dataclasses.replace(config, ues=tuple(file_ues))
    scenario_path = out_dir / "scenario.json"
    scenario_path.write_text(
        json.dumps(serialize_document(file_config), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    _say(f"wrote scenario with {args.ues} UEs / {args.ens} ENs to {args.out}")
    _emit(
        {
            "command": "gen",
            "scenario": f"{args.out}/scenario.json",
            "traces": [ue.trace_file for ue in file_config.ues],
            "seed": args.seed,
        }
    )
    return 0


def _timestamp(deterministic: bool) -> str | None:
    if deterministic:
        return None
    return datetime.now(timezone.utc).isoformat()


def _percent(gap: float | None) -> str:
    return "n/a" if gap is None else f"{gap:.4g}%"


def cmd_solve(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    config = parse_document(path.read_text(encoding="utf-8"))
    scenario = realize(config, base_dir=path.parent)
    plan, report = fairopt.solve_alternating(scenario, SolveOptions(mode=args.mode))
    counts, metrics = [], []
    for ue, thr in zip(scenario.ues, plan.thresholds):
        c, m = evaluate(ue.stream, thr)
        counts.append(c)
        metrics.append(m)
    bundle = build_bundle(
        serialize_document(config), plan, report, counts, metrics,
        created_at=_timestamp(args.deterministic),
    )
    if args.out:
        write_bundle(bundle, args.out)
        _say(f"bundle written to {args.out}")
    _say(
        f"objective {report.objective:.6f} from one assignment search; "
        f"certified gap {_percent(report.certified_gap_pct)}"
    )
    _emit(bundle_to_dict(bundle))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    _, report = fairopt.solve_alternating(scenario, SolveOptions(mode=args.mode))
    _say(
        f"objective {report.objective:.6f}, upper bound {report.upper_bound:.6f}, "
        f"certified gap {_percent(report.certified_gap_pct)}"
    )
    _emit(
        {
            "command": "bounds",
            "objective": report.objective,
            "upper_bound": report.upper_bound,
            "certified_gap_pct": report.certified_gap_pct,
        }
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    stream = load_stream(args.stream)
    values = [(i + 1) / (args.resolution + 1) for i in range(args.resolution)]
    pairs = [
        ThresholdPair(lo, up) for lo in values for up in values if lo <= up
    ]
    rows = write_sweep_csv(stream, pairs, args.out)
    _say(f"swept {rows} threshold pairs over {len(stream)} events")
    _emit({"command": "sweep", "rows": rows, "out": args.out})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else None
    names = list(oracle.SUITES) if args.suite == "all" else [args.suite]
    results = {}
    failures = 0
    for name in names:
        passed, detail = oracle.SUITES[name](args.seed, scenario)
        results[name] = {"passed": passed, "detail": detail}
        if not passed:
            failures += 1
        _say(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    _emit({"command": "verify", "seed": args.seed, "suites": results, "failures": failures})
    return 0 if failures == 0 else 1


def _non_negative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairedge",
        description="Fairness-aware cooperative edge inference: generate, solve, bound, verify, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random scenario plus trace files")
    p_gen.add_argument("--seed", type=_non_negative_int, default=0)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--ues", type=_positive_int, default=3)
    p_gen.add_argument("--ens", type=_positive_int, default=2)
    p_gen.add_argument("--security-levels", type=_positive_int, default=2)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve a scenario and emit a result bundle")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--out", default=None, help="bundle output path")
    p_solve.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p_solve.add_argument("--deterministic", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_bounds = sub.add_parser("bounds", help="solve and report the objective, upper bound and certified gap")
    p_bounds.add_argument("scenario")
    p_bounds.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run property suites against oracles")
    p_verify.add_argument("scenario", nargs="?", default=None)
    p_verify.add_argument("--suite", choices=("all", *oracle.SUITES), default="all")
    p_verify.add_argument("--seed", type=_non_negative_int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="export threshold-sweep metrics CSV")
    p_sweep.add_argument("stream", help="trace CSV path")
    p_sweep.add_argument("--resolution", type=_positive_int, default=25)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, TraceParseError) as err:
        _say(f"error: {err}")
        return 2
    except InfeasibleScenarioError as err:
        _say(f"infeasible: {err}")
        _emit({"error": {"kind": "infeasible", "message": str(err), "blocking_users": err.blocking_users}})
        return 1
    except (LinkError, UndefinedMetricError) as err:
        _say(f"error: {err}")
        _emit({"error": {"kind": "failed-check", "message": str(err)}})
        return 1
    except OSError as err:
        _say(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
