"""Command-line surface: catalog inspection, verification, searches, classification table.

Text tables are for humans; JSON (--json) is the contract surface.  Exit
codes: 0 success/agreement, 1 verification failure, 2 input error,
3 inconclusive.  Every JSON report embeds the invocation config and the
catalog checksum so runs are reproducible from the report alone.

Input errors are raised as ``ValueError`` (or ``OSError``, from a ``--out``
path that cannot be written) and reach one handler in ``main``, which prints
a single ``error:`` line and returns 2.  ``main`` checks that ``--seed``
and ``--seeds`` are nonnegative before any command runs.  Tolerances are
constants of the method, not options: ``curvature`` decides Einstein at
``TOL_EINSTEIN``, ``verify`` and ``search`` accept a solution at
``TOL_SOLUTION``, and ``family`` passes a grid at ``TOL_FAMILY``; the
report's ``config.tol`` records the one used.

The commands that verify or search import ``solver`` when they run, so
``list`` and ``show`` read the catalog without loading it; ``search`` takes
its ``--mode`` unchecked and ``solver`` refuses one outside ``MODES``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .families import FAMILIES, family_by_id
from .kahler import hermitian_diagnostics
from .lie_algebra import VERDICTS, catalog, catalog_checksum, entry_by_name
from .maxwell import (EINSTEIN_NULL_STRESS, NON_EINSTEIN_EM, TOL_EINSTEIN, TOL_SOLUTION,
                      em_residual)
from .metric_geometry import curvature_summary

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class RunConfig:
    command: str
    entries: list[str] | None = None
    tol: float | None = None
    seed: int = 0
    seeds: int = 0
    orientation: int = 1
    mode: str = "unit_F"


def _emit(payload: dict, config: RunConfig, args, text: str) -> None:
    if args.json or args.out:
        payload = dict(payload)
        payload["config"] = asdict(config)
        payload.setdefault("catalog_sha256", catalog_checksum())
        # NaN and Infinity are not JSON: such a report is refused (exit 2).
        blob = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        if args.out:
            Path(args.out).write_text(blob + "\n")
        if args.json:
            print(blob)
    else:
        print(text)


def _params_arg(raw: str | None) -> dict:
    """Parameter values from a JSON object of finite numbers."""
    from .solver import number_object
    return number_object(json.loads(raw), "parameters") if raw else {}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    config = RunConfig(command="list")
    entries = catalog()
    if args.verdict:
        entries = [e for e in entries if e.verdict == args.verdict]
    rows = [{"name": e.name, "verdict": e.verdict,
             "algebra_params": [p.name for p in e.params],
             "metric_params": list(e.metric_param_names)} for e in entries]
    width = max((len(r["name"]) for r in rows), default=4)
    lines = [f"{'entry':<{width}}  {'verdict':<18} params"]
    for r in rows:
        pstr = ",".join(r["algebra_params"]) or "-"
        lines.append(f"{r['name']:<{width}}  {r['verdict']:<18} {pstr}")
    lines.append(f"{len(rows)} entries")
    _emit({"entries": rows, "count": len(rows)}, config, args, "\n".join(lines))
    return EXIT_OK


def cmd_show(args) -> int:
    entry = entry_by_name(args.entry)
    config = RunConfig(command="show", entries=[entry.name])
    payload = {
        "name": entry.name,
        "verdict": entry.verdict,
        "brackets": [{"i": i, "j": j, "coeffs": list(map(list, coeffs))}
                     for i, j, coeffs in entry.brackets],
        "params": [{"name": p.name, "range": [p.lo, p.hi], "exclude": list(p.exclude)}
                   for p in entry.params],
        "metric_shape": [list(row) for row in entry.metric_shape],
        "metric_constraints": list(entry.metric_constraints),
        "variants": [{"name": v.name, "params": v.params, "admissible": v.admissible}
                     for v in entry.variants],
        "notes": entry.notes,
    }
    text = [f"{entry.name}  [{entry.verdict}]"]
    for i, j, coeffs in entry.brackets:
        terms = " + ".join(f"({expr}) e{k}" for k, expr in coeffs)
        text.append(f"  [e{i}, e{j}] = {terms}")
    text.append("  metric shape: " + "; ".join(" ".join(str(c) for c in row)
                                               for row in entry.metric_shape))
    text.append("  constraints > 0: " + "; ".join(entry.metric_constraints))
    if entry.notes:
        text.append("  note: " + entry.notes)
    _emit(payload, config, args, "\n".join(text))
    return EXIT_OK


def cmd_curvature(args) -> int:
    from .solver import _admitted
    entry = entry_by_name(args.entry)
    L, g = _admitted(entry, _params_arg(args.algebra_params), _params_arg(args.metric_params))
    config = RunConfig(command="curvature", entries=[entry.name], tol=TOL_EINSTEIN)
    _, _, ric, s, ric0 = curvature_summary(L, g)
    if not (np.isfinite(ric).all() and np.isfinite(ric0).all() and np.isfinite(s)):
        raise ValueError("curvature is not finite: the metric's values overflow floating point")
    einstein = bool(np.abs(ric0).max() <= TOL_EINSTEIN)
    payload = {
        "entry": entry.name,
        "metric": [[float(x) for x in row] for row in g],
        "ricci": [[float(x) for x in row] for row in ric],
        "scalar_curvature": float(s),
        "traceless_ricci": [[float(x) for x in row] for row in ric0],
        "einstein": einstein,
    }
    text = [f"{entry.name}: scalar curvature {float(s):.12g}, einstein={einstein}",
            "Ric0 = " + np.array2string(np.asarray(ric0, dtype=float), precision=10)]
    _emit(payload, config, args, "\n".join(text))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .solver import Candidate, _admitted
    cand = Candidate.from_json(args.candidate)
    entry = cand.entry
    L, g = _admitted(entry, cand.algebra_params, cand.metric_params)
    config = RunConfig(command="verify", entries=[entry.name], tol=TOL_SOLUTION,
                       orientation=cand.orientation)
    report = em_residual(L, g, cand.f_coeffs)
    report.inputs["orientation"] = cand.orientation
    computed = (report.r_em, report.r_dF, report.r_dstarF, report.scalar_curvature)
    if not all(np.isfinite(computed)):
        raise ValueError("residuals are not finite: the candidate's values overflow "
                         "floating point")
    if entry.family:
        fam = family_by_id(entry.family["id"])
        omega = fam.omega_from_metric(cand.metric_params, cand.orientation)
        report.hermitian = hermitian_diagnostics(L, g, omega)
    text = (f"{entry.name}: {report.classification}  "
            f"r_em={report.r_em:.3e} r_dF={report.r_dF:.3e} r_d*F={report.r_dstarF:.3e}  "
            f"s={report.scalar_curvature:.6g}")
    _emit(report.to_dict(), config, args, text)
    accepted = {"any": (NON_EINSTEIN_EM, EINSTEIN_NULL_STRESS),
                NON_EINSTEIN_EM: (NON_EINSTEIN_EM,),
                EINSTEIN_NULL_STRESS: (EINSTEIN_NULL_STRESS,)}[args.require]
    return EXIT_OK if report.classification in accepted else EXIT_FAIL


def cmd_family(args) -> int:
    from .solver import TOL_FAMILY, verify_solution_family
    report = verify_solution_family(args.family, orientation=args.orientation)
    config = RunConfig(command="family", entries=[report.family_id],
                       orientation=args.orientation, tol=TOL_FAMILY)
    text = (f"family {report.family_id} (orientation {report.orientation:+d}): "
            f"{'PASS' if report.all_pass else 'FAIL'} over {report.n_points} points; "
            f"max residual {report.max_residual:.3e}, kappa err {report.max_kappa_error:.3e}, "
            f"rho0 err {report.max_rho0_error:.3e}")
    _emit(report.to_dict(), config, args, text)
    return EXIT_OK if report.all_pass else EXIT_FAIL


def cmd_search(args) -> int:
    from .solver import multistart_search
    entry = entry_by_name(args.entry)
    config = RunConfig(command="search", entries=[entry.name], seed=args.seed,
                       seeds=args.seeds, mode=args.mode, tol=TOL_SOLUTION)
    outcome = multistart_search(entry, n_seeds=args.seeds, seed=args.seed, mode=args.mode,
                                n_jobs=args.jobs)
    classes: dict[str, int] = {}
    for _, rep in outcome.solutions:
        classes[rep.classification] = classes.get(rep.classification, 0) + 1
    miss = outcome.best_nonsolution_residual
    text = (f"{entry.name}: {len(outcome.solutions)} solutions {classes or ''} "
            f"(best non-solution residual "
            f"{'n/a' if not np.isfinite(miss) else format(miss, '.3e')})")
    _emit(outcome.to_dict(include_timing=args.timing), config, args, text)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .solver import classify_table
    entries = catalog()
    if args.entries:
        wanted = [entry_by_name(n).name for n in args.entries]
        entries = [e for e in entries if e.name in wanted]
    config = RunConfig(command="classify", entries=[e.name for e in entries],
                       seed=args.seed, seeds=args.seeds)
    rows = classify_table(entries, n_seeds=args.seeds, seed=args.seed, n_jobs=args.jobs)
    width = max(len(r.entry_name) for r in rows)
    lines = [f"{'entry':<{width}}  {'computed':<22} {'expected':<18} agree"]
    for r in rows:
        flag = "yes" if r.agree else ("inconclusive" if r.inconclusive else "NO")
        lines.append(f"{r.entry_name:<{width}}  {r.computed:<22} {r.expected:<18} {flag}")
    n_agree = sum(1 for r in rows if r.agree)
    lines.append(f"{n_agree}/{len(rows)} rows agree")
    payload = {"rows": [r.to_dict() for r in rows],
               "agree": n_agree, "total": len(rows)}
    _emit(payload, config, args, "\n".join(lines))
    if any(r.inconclusive for r in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK if n_agree == len(rows) else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemaxwell",
        description="Einstein-Maxwell solutions on 4-dimensional Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.add_argument("--out", metavar="PATH", help="write the JSON report to a file")

    p = sub.add_parser("list", help="catalog entries and verdicts")
    p.add_argument("--verdict", choices=VERDICTS)
    common(p)
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("show", help="one entry in full")
    p.add_argument("entry")
    common(p)
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("curvature", help="curvature report for a metric")
    p.add_argument("entry")
    p.add_argument("--metric-params", required=True, metavar="JSON")
    p.add_argument("--algebra-params", metavar="JSON")
    common(p)
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("verify", help="verify a candidate file")
    p.add_argument("candidate", help="candidate JSON path")
    p.add_argument("--require", default="any",
                   choices=["any", NON_EINSTEIN_EM, EINSTEIN_NULL_STRESS])
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("family", help="verify one of the four solution families")
    p.add_argument("family", help="family id: " + ", ".join(FAMILIES))
    p.add_argument("--orientation", type=int, choices=[1, -1], default=1)
    common(p)
    p.set_defaults(fn=cmd_family)

    seed_help = ("base seed; start i draws from default_rng(seed ^ i), so seeds 0-7 at 200 "
                 "seeds share all generators: space seeds by a power of two >= --seeds, e.g. 1024")
    p = sub.add_parser("search", help="multistart search on one entry")
    p.add_argument("entry")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--mode", default="unit_F", help="a mode of solver.MODES")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("classify", aliases=["theorem1"],
                       help="computed vs expected verdicts across the catalog")
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--entries", nargs="+", metavar="ENTRY",
                   help="restrict to these entries (names or aliases like A44)")
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if min(getattr(args, "seed", 0), getattr(args, "seeds", 0)) < 0:
            raise ValueError("--seed and --seeds must be nonnegative")
        # Every command refuses non-finite results itself; numpy's overflow
        # warnings on the way there would only add lines ahead of the error.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
