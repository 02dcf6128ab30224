"""Command-line front end: extract, match, evaluate, sweep."""

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import evaluation, scoring
from .config import build_config, load_config_file
from .errors import InvalidInputError, OnionprintError
from .imgproc import extract
from .minutiae import write_minutiae
from .pgm import read_pgm


def _add_config_flags(parser, as_lists=False):
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file of `key = value` lines")
    kind = str if as_lists else float
    metavar = "LIST" if as_lists else "VALUE"
    parser.add_argument("--rm", type=kind, metavar=metavar,
                        help="merge radius for nearby minutiae, pixels")
    parser.add_argument("--r0", type=kind, metavar=metavar,
                        help="pairing distance tolerance, pixels")
    parser.add_argument("--theta0", type=kind, metavar=metavar,
                        help="pairing orientation tolerance, degrees")
    parser.add_argument("--sim", type=kind, metavar=metavar,
                        help="minimum minutiae score, below it the pair is gated to 0")
    parser.add_argument("--diff", type=kind, metavar=metavar,
                        help="maximum layer-count difference before gating to 0")


def _add_eval_flags(parser):
    parser.add_argument("--mode", choices=("fvc", "all-pairs"), default="fvc",
                        help="impostor pairing protocol")
    parser.add_argument("--exclude-gated", action="store_true",
                        help="drop gated pairs from rate computations")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker processes (fork) for image loading and pair "
                             "scoring, capped at the usable CPUs; results stay in "
                             "input order")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory for the report files")


def _config_from(args):
    file_values = load_config_file(args.config) if args.config else None
    overrides = {name: getattr(args, name) for name in evaluation.SWEEP_KEYS}
    return build_config(file_values, overrides)


def _mode_from(args):
    return args.mode.replace("-", "_")


def _threads_from(args):
    if args.threads < 1:
        raise InvalidInputError(f"--threads must be at least 1, got {args.threads}")
    return args.threads


def cmd_extract(args) -> int:
    cfg = _config_from(args)
    img = read_pgm(args.image)
    mset = extract(img, cfg, source=Path(args.image).stem)
    write_minutiae(args.out, mset)
    print(f"{len(mset)} minutiae")
    return 0


def cmd_match(args) -> int:
    cfg = _config_from(args)
    sa = evaluation.load_fingerprint(args.a, cfg, source=Path(args.a).stem)
    sb = evaluation.load_fingerprint(args.b, cfg, source=Path(args.b).stem)
    breakdown = scoring.match_pair(sa, sb, cfg,
                                   ida=Path(args.a).stem, idb=Path(args.b).stem)
    if args.json:
        values = dict(zip(scoring.COLUMNS, scoring.breakdown_values(breakdown)))
        if values["alpha"] == float("inf"):
            values["alpha"] = "inf"  # JSON has no Infinity literal
        print(json.dumps(values))
    elif args.csv:
        print(scoring.CSV_HEADER)
        print(scoring.breakdown_to_csv_row(breakdown))
    else:
        for key, cell in zip(scoring.COLUMNS, scoring.breakdown_cells(breakdown)):
            print(f"{key} = {cell}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from(args)
    threads = _threads_from(args)
    ds = evaluation.load_dataset(args.dataset)
    table, report = evaluation.evaluate(
        ds, cfg=cfg, mode=_mode_from(args), threads=threads,
        exclude_gated=args.exclude_gated)
    evaluation.write_report_files(args.out, table, report)
    for line in evaluation.summary_lines(table, report):
        print(line)
    return 0


def _axis_values(flag, raw) -> list:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise InvalidInputError(f"--{flag}: not a number: {token!r}") from None
    if not values:
        raise InvalidInputError(f"--{flag}: empty value list")
    return values


def cmd_sweep(args) -> int:
    threads = _threads_from(args)
    file_values = load_config_file(args.config) if args.config else None
    base_cfg = build_config(file_values)
    axes = [(key, _axis_values(key, getattr(args, key)))
            for key in evaluation.SWEEP_KEYS if getattr(args, key) is not None]
    if not axes:
        raise InvalidInputError(
            "sweep needs at least one of --rm/--r0/--theta0/--sim/--diff")
    keys = [key for key, _ in axes]
    grid = [dict(zip(keys, combo))
            for combo in itertools.product(*(vals for _, vals in axes))]
    ds = evaluation.load_dataset(args.dataset)
    results = evaluation.sweep(
        ds, grid, base_cfg=base_cfg, mode=_mode_from(args),
        threads=threads, exclude_gated=args.exclude_gated, out_dir=args.out)
    for idx, (overrides, _, report) in enumerate(results):
        desc = " ".join(f"{k}={v!r}" for k, v in overrides.items())
        print(f"[{idx:03d}] {desc} eer={report.eer!r} "
              f"best_f_threshold={report.best_f_threshold!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onionprint",
        description="Fingerprint verification by convex layer peeling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="detect minutiae in a PGM image")
    p.add_argument("image", help="input PGM file")
    p.add_argument("out", help="output minutiae file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("match", help="score one pair of prints")
    p.add_argument("a", help="PGM image or minutiae file")
    p.add_argument("b", help="PGM image or minutiae file")
    _add_config_flags(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print the breakdown as JSON")
    fmt.add_argument("--csv", action="store_true", help="print the breakdown as CSV")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", help="run the pairing protocol over a dataset")
    p.add_argument("dataset", help="directory of FFF_I files or a manifest CSV")
    _add_config_flags(p)
    _add_eval_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate over a grid of parameter values")
    p.add_argument("dataset", help="directory of FFF_I files or a manifest CSV")
    _add_config_flags(p, as_lists=True)
    _add_eval_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and bad flags
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OnionprintError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
