"""Command-line entry point.

Subcommands: ``lr``, ``power``, ``power-curve``, ``subpop-bias``,
``synth-freqs``, ``validate``. Exit codes: 0 success; 2 a
:class:`~kinpower.errors.KinpowerError` (bad input or parameters) or a
missing file; 3 any other failure. Every exit-2 error is raised before any
replicate is simulated, except ``subpop-bias``'s
:class:`~kinpower.errors.EmptySubpopSample`, which only the finished run
can show.

``subpop-bias`` with several ``--alpha`` values writes every
``subpop_curves_<stat>.csv`` at all of them, but ``diff_ci_<stat>.csv``
only at the first one given; that file has no alpha column.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import engine, ibd, lrstats, synth, tables
from .power import (DEFAULT_CURVE_GRID, _check_alpha, _linear, power_curve, power_curves,
                    power_diff_ci, power_report, power_reports_json, write_diff_cis_csv,
                    write_power_curves_csv, write_power_reports_csv)
from .errors import EmptySubpopSample, InvalidParameter, KinpowerError, MalformedRow

# preset -> (theta0, theta1, default alpha)
TESTS = {
    "parent-child": (ibd.UNRELATED, ibd.PARENT_CHILD, 2e-5),
    "full-sib": (ibd.UNRELATED, ibd.FULL_SIB, 2e-4),
    "half-sib-paper": (ibd.UNRELATED, ibd.HALF_SIB_PAPER, 2e-3),
    "half-sib-standard": (ibd.UNRELATED, ibd.HALF_SIB_STANDARD, 2e-3),
}

DESK_SCALE_B = 100_000
PAPER_SCALE_B = 1_000_000


def _numbers(text: str, convert, what: str) -> list:
    """Comma-separated numbers; a token ``convert`` rejects is InvalidParameter."""
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidParameter(f"{what}: {exc}") from None


def _parse_theta(text: str) -> ibd.ThetaIBD:
    parts = _numbers(text, float, "theta")
    if len(parts) != 3:
        raise InvalidParameter(f"theta needs 3 comma-separated values, got {text!r}")
    return ibd.ThetaIBD(*parts)


def _read(path, loader, **kwargs):
    """``loader`` applied to a UTF-8 text file, BOM or not; undecodable bytes
    are a MalformedRow, and a path that is not a readable file (a directory,
    under a file, or not permitted) an InvalidParameter, each naming the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return loader(fh, **kwargs)
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") \
            from None
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise InvalidParameter(f"{path}: {exc.strerror}") from None


def _load_table(args) -> tables.FrequencyTable:
    meta = _read(args.meta, tables.load_table_meta) if args.meta else None
    return _read(args.freqs, tables.load_frequency_table, meta=meta, floor=args.floor)


def _resolve_thetas(args):
    if args.test == "custom":
        if args.theta0 is None or args.theta1 is None:
            raise InvalidParameter("--test custom requires --theta0 and --theta1")
        return _parse_theta(args.theta0), _parse_theta(args.theta1)
    theta0, theta1, _ = TESTS[args.test]
    if args.theta0 is not None:
        theta0 = _parse_theta(args.theta0)
    if args.theta1 is not None:
        theta1 = _parse_theta(args.theta1)
    return theta0, theta1


def _resolve_alphas(args, required: bool) -> list[float]:
    if args.alpha:
        return [_check_alpha(a)
                for chunk in args.alpha for a in _numbers(chunk, float, "--alpha")]
    if args.test in TESTS:
        return [TESTS[args.test][2]]
    if required:
        raise InvalidParameter("--alpha is required for custom tests")
    return []


def _run_config(
    args, alphas_required: bool = True
) -> tuple[engine.SimConfig, list[float], list[float]]:
    """Everything a simulating command needs, checked before any replicate is
    drawn: the SimConfig, the alphas (--alpha, else the test's default; a
    custom test has none, which is an error when ``alphas_required``) and
    the ascending curve grid (--alpha, else DEFAULT_CURVE_GRID)."""
    table = _load_table(args)
    theta0, theta1 = _resolve_thetas(args)
    statistics = tuple(s.strip().upper() for s in args.stats.split(",")) \
        if args.stats else lrstats.STATISTICS
    B = args.B if args.B is not None else (
        PAPER_SCALE_B if args.paper_scale else DESK_SCALE_B)
    cfg = engine.SimConfig(
        table=table, theta0=theta0, theta1=theta1, B=B, seed=args.seed,
        statistics=statistics, workers=args.workers, cb_weights=args.cb_weights,
        null_same_subpop=args.null_same_subpop,
    )
    alphas = _resolve_alphas(args, alphas_required)
    return cfg, alphas, sorted(alphas if args.alpha else DEFAULT_CURVE_GRID)


def _make_dir(out: Path) -> None:
    """Create the output directory ``out``; a path that is a file or lies
    under one is an InvalidParameter naming --out."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InvalidParameter(f"--out {str(out)!r}: {exc.strerror}") from None


def _stream(path: Path, write, items) -> None:
    """``write(items, sink)`` into the UTF-8 file at ``path``, streamed: a
    table a row at a time, a sample dump one ``BLOCK`` of replicates at a
    time, with the bytes a row-by-row writer gives. A dump's blocks go
    through ``engine._pooled``: the pool a ``--workers`` > 1 run left open
    formats them, about two blocks' text per worker in flight, else this
    process does, one block's."""
    with open(path, "w", encoding="utf-8") as fh:
        write(items, fh)


def cmd_lr(args) -> int:
    table = _load_table(args)
    theta0, theta1 = _resolve_thetas(args)
    profile1 = _read(args.profile1, tables.load_profile_csv)
    profile2 = _read(args.profile2, tables.load_profile_csv)
    breakdown = lrstats.lr_all((profile1, profile2), theta0, theta1, table,
                               cb_weights=args.cb_weights)
    print(f"test: {args.test}  theta0={theta0.as_tuple()}  theta1={theta1.as_tuple()}")
    print("per-subpop log-LR:")
    for name, value in zip(breakdown.subpops, breakdown.per_subpop_log_lr):
        print(f"  {name:>12s}  log={value: .6f}  linear={_linear(value):.4f}")
    print("statistics:")
    for stat in lrstats.STATISTICS:
        value = breakdown.stats[stat]
        print(f"  {stat:>5s}  log={value: .6f}  linear={_linear(value):.4f}")
    return 0


def cmd_power(args) -> int:
    cfg, alphas, _ = _run_config(args)
    out = Path(args.out)
    _make_dir(out)
    null, alt = engine.simulate(cfg)
    reports = [power_report(null, alt, stat, alpha)
               for stat in cfg.statistics for alpha in alphas]
    _stream(out / "power_report.csv", write_power_reports_csv, reports)
    (out / "power_report.json").write_text(
        power_reports_json(reports), encoding="utf-8")
    if args.dump_samples:
        _stream(out / "null_samples.csv", engine.dump_samples, null)
        _stream(out / "alt_samples.csv", engine.dump_samples, alt)
    for r in reports:
        print(f"{r.statistic} alpha={r.alpha:g} threshold={r.threshold:.6g} "
              f"power={r.power:.4f} CI=({r.ci_low:.4f}, {r.ci_high:.4f})")
    return 0


def cmd_power_curve(args) -> int:
    cfg, _, grid = _run_config(args, alphas_required=False)
    out = Path(args.out)
    _make_dir(out)
    null, alt = engine.simulate(cfg)
    curves = [
        power_curve(null.statistics[s], alt.statistics[s], grid, statistic=s)
        for s in cfg.statistics
    ]
    _stream(out / "power_curves.csv", write_power_curves_csv, curves)
    print(f"wrote {out / 'power_curves.csv'} "
          f"({len(curves)} statistics x {len(grid)} grid points)")
    return 0


def cmd_subpop_bias(args) -> int:
    cfg, alphas, grid = _run_config(args)
    if cfg.table.n_subpops < 2:
        raise InvalidParameter("subpop-bias requires >=2 subpopulations")
    out = Path(args.out)
    _make_dir(out)
    null, alt = engine.simulate(cfg)
    names = alt.subpop_names
    for name, n in zip(names, np.bincount(alt.subpop_tags, minlength=len(names))):
        if n == 0:
            raise EmptySubpopSample(
                f"no alternative replicate was drawn from subpop {name!r} "
                f"at B={cfg.B}; rerun with a larger --B")

    for stat in cfg.statistics:
        curves = power_curves(
            null.statistics[stat],
            {name: alt.statistics[stat][alt.subpop_tags == k] for k, name in enumerate(names)},
            grid)
        _stream(out / f"subpop_curves_{stat}.csv", write_power_curves_csv, curves)

        report = power_report(null, alt, stat, alphas[0])
        per = [report.per_subpop[name] for name in names]
        diffs = [
            power_diff_ci(per[i][0], per[i][1], per[j][0], per[j][1],
                          subpop_i=names[i], subpop_j=names[j])
            for i in range(len(names)) for j in range(i + 1, len(names))
        ]
        _stream(out / f"diff_ci_{stat}.csv", write_diff_cis_csv, diffs)

        # self-test: per-subpop powers recombine exactly to the global power;
        # a failure is a fault of the program, not of the input (exit 3)
        recombined = sum(est * n for est, n, _ in per) / alt.B
        figures = f"global={report.power:.6f}, recombined={recombined:.6f}"
        if not abs(recombined - report.power) < 1e-9:
            raise RuntimeError(f"{stat}: recombination identity FAILED ({figures})")
        print(f"{stat}: recombination identity ok ({figures})")
    return 0


def cmd_synth_freqs(args) -> int:
    proportions = sizes = None
    if args.proportions:
        proportions = _numbers(args.proportions, float, "--proportions")
    if args.sample_sizes:
        sizes = _numbers(args.sample_sizes, int, "--sample-sizes")
    table = synth.synth_frequency_table(
        n_subpops=args.subpops, n_loci=args.loci, n_alleles=args.alleles,
        divergence=args.divergence, seed=args.seed,
        proportions=proportions, sample_sizes=sizes,
        floor=tables.DEFAULT_FLOOR if args.floor is None else args.floor,
    )
    out = Path(args.out)
    _make_dir(out)
    _stream(out / "freqs.csv", tables.dump_frequency_table, table)
    (out / "meta.txt").write_text(tables.dump_table_meta(table), encoding="utf-8")
    print(f"wrote {out / 'freqs.csv'} and {out / 'meta.txt'} "
          f"(K={table.n_subpops}, m={table.n_loci})")
    return 0


def cmd_validate(args) -> int:
    table = _load_table(args)
    print(f"ok: {table.n_subpops} subpops, {table.n_loci} loci, "
          f"floor={table.floor:g}")
    for sp in table.subpops:
        size = "" if sp.sample_size is None else f", n={sp.sample_size}"
        print(f"  {sp.name}: proportion={sp.proportion:.6g}{size}")
    return 0


def _add_table_args(p):
    p.add_argument("--freqs", required=True, help="frequency CSV path")
    p.add_argument("--meta", help="companion metadata file")
    p.add_argument("--floor", type=float, default=None,
                   help="frequency floor (default from metadata, else 1e-5)")


def _add_test_args(p):
    p.add_argument("--test", default="full-sib",
                   choices=list(TESTS) + ["custom"])
    p.add_argument("--theta0", help="z0,z1,z2 for the null relationship")
    p.add_argument("--theta1", help="z0,z1,z2 for the alternative relationship")
    p.add_argument("--cb-weights", default="auto",
                   choices=tables.CB_WEIGHTS,
                   help="subpop weights of the CB pooled frequencies: census = mixing "
                        "proportions, samples = per-subpop sample sizes, equal = one "
                        "each, auto = samples when the table has them, else equal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinpower",
        description="Likelihood-ratio kinship tests and Monte Carlo power "
                    "analysis over structured populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", help="LR statistics for two profiles")
    p.add_argument("profile1", help="first profile CSV (locus,allele1,allele2)")
    p.add_argument("profile2", help="second profile CSV")
    _add_table_args(p)
    _add_test_args(p)
    p.set_defaults(func=cmd_lr)

    # the simulating commands: the same arguments, and --dump-samples on power
    for name, help_text, func in (
        ("power", "null thresholds, power, exact CIs", cmd_power),
        ("power-curve", "power versus FPR curves", cmd_power_curve),
        ("subpop-bias", "per-subpopulation power and difference-in-power CIs",
         cmd_subpop_bias),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_table_args(p)
        _add_test_args(p)
        p.add_argument("--alpha", action="append", default=[],
                       help="false positive rate(s), comma separated; repeatable")
        p.add_argument("--B", type=int, default=None, help="replicate count")
        p.add_argument("--paper-scale", action="store_true",
                       help="use B=1,000,000 when --B is not given")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stats", help="comma-separated subset of "
                       + ",".join(lrstats.STATISTICS))
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--null-same-subpop", action="store_true",
                       help="force both null individuals into one subpopulation")
        if func is cmd_power:
            p.add_argument("--dump-samples", action="store_true",
                           help="also write the raw log-LR sample matrices")
        p.set_defaults(func=func)

    p = sub.add_parser("synth-freqs", help="generate a synthetic frequency table")
    p.add_argument("--subpops", type=int, default=4)
    p.add_argument("--loci", type=int, default=15)
    p.add_argument("--alleles", type=int, default=8)
    p.add_argument("--divergence", type=float, default=0.1)
    p.add_argument("--proportions", help="comma-separated mixing proportions")
    p.add_argument("--sample-sizes", help="comma-separated per-subpop counts")
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_synth_freqs)

    p = sub.add_parser("validate", help="load and validate a frequency table")
    _add_table_args(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KinpowerError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
