"""Command-line surface.

Subcommands: validate, entropy, distance, semdist, capacity, palette,
predict, analyze. Output is JSON; entropy, capacity, predict and analyze
also write their rows as CSV with --output csv. Batch capacity runs
stream newline-delimited JSON. Exit codes:
0 success, 1 data/validation failure or output that could not be
written, 2 usage error (including unknown concept or feature ids), 130
interrupted (Ctrl-C). Errors and library warnings reach stderr as one
"error: ..." or "warning: ..." line each, the warnings first.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import gc
import json
import math
import os
import sys
import warnings

from . import __version__
from .analysis import analyze, build_frame
from .capacity import (
    DEFAULT_THRESHOLD,
    capacity_statistics,
    exhaustive_pair_semantics,
    iter_capacity_reports,
    max_capacity,
)
from .errors import SemdiscError, UnknownIdError
from .io import (
    load_association_csv,
    load_library_csv,
    load_uw71,
    palette_entry,
    with_library_coordinates,
)
from .model import (
    distributions,
    entropy,
    generalized_total_variation,
    normalize,
    specificity_scores,
)
from .montecarlo import MonteCarloConfig, _pair_result, run_monte_carlo


class UsageError(SemdiscError):
    """A flag value that no run of the command can use (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every other error, are
    one "error: ..." line on stderr (exit 2). Subcommand parsers are made
    of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _check_flags(args) -> None:
    """Reject flag values before any file is read, in this order: numbers
    (--seed is a Philox key, below 2**128), capacity's flag combinations,
    the id lists, which replace --concepts and --features, and last
    --exhaustive's subset size."""
    flags = vars(args)
    for name, low in (("samples", 1), ("workers", 1), ("seed", 0)):
        if name in flags and flags[name] < low:
            raise UsageError(f"--{name} must be >= {low}, got {flags[name]}")
    if flags.get("seed", 0) >= 2**128:
        raise UsageError("--seed must be < 2**128")
    if not math.isfinite(flags.get("threshold") or 0.0):
        raise UsageError(f"--threshold must be finite, got {flags['threshold']}")
    if args.command == "capacity":
        if not args.all and args.concepts is None:
            raise UsageError("capacity needs --all or --concepts")
        if args.all and args.concepts is not None:
            raise UsageError("--all and --concepts cannot be combined")
        if args.all and args.k is None:
            raise UsageError("--all requires --k")
        if not args.all and args.k is not None:
            raise UsageError("--k applies only to --all")
        if args.threshold is not None and not args.exhaustive:
            raise UsageError("--threshold applies only to --exhaustive")
    for name in ("concepts", "features"):
        if flags.get(name) is not None:
            setattr(args, name, _split(flags[name]))
    if "features" in flags and len(args.concepts) != len(args.features):
        raise UsageError(
            f"--concepts and --features must name as many ids, got "
            f"{len(args.concepts)} concepts and {len(args.features)} features"
        )
    if flags.get("exhaustive"):
        size = args.k if args.all else len(args.concepts)
        if size != 2:
            raise UsageError(f"--exhaustive needs subsets of 2 concepts, got {size}")


def _subset_size(args, table) -> int:
    m = table.n_concepts
    if not 2 <= args.k <= m:
        raise UsageError(f"--k {args.k} out of range [2, {m}]")
    return args.k


def _split(arg: str) -> list[str]:
    items = [s.strip() for s in arg.split(",") if s.strip()]
    if not items:
        raise UnknownIdError("empty id list")
    return items


def _square_result(table, args):
    """The estimate on the square table of the command's concepts and
    features: the closed form for 2 concepts, a Monte Carlo run for
    more."""
    square = table.subset(concepts=args.concepts, features=args.features)
    if len(args.concepts) == 2:
        return _pair_result(square)
    return run_monte_carlo(square, _config(args))


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _write_rows(rows, output: str) -> None:
    """Write a table to stdout: one indented JSON array of objects, or CSV
    with a header of the first row's column names and then one line per
    row, each written as it arrives. A row is a sequence of (column,
    value) pairs rather than a dict because predict's header can repeat
    a name: a concept may be called feature_id."""
    if output == "json":
        _emit_json([dict(row) for row in rows])
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for i, row in enumerate(rows):
        if i == 0:
            writer.writerow([column for column, _ in row])
        writer.writerow([_csv_cell(value) for _, value in row])


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return v


def _nan_to_null(row: dict) -> dict:
    """JSON has no NaN: the log columns of rows excluded from the log
    scale are written as null."""
    return {
        k: None if isinstance(v, float) and math.isnan(v) else v
        for k, v in row.items()
    }


def _config(args) -> MonteCarloConfig:
    return MonteCarloConfig(samples=args.samples, seed=args.seed)


def _report_dict(report, table, args) -> dict:
    """The row of a capacity report: its fields but the Monte Carlo result,
    then with --exhaustive the pair statistics of its 2-concept subset."""
    out = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name != "monte_carlo"
    }
    if args.exhaustive:
        pairs = exhaustive_pair_semantics(table, report.concepts)
        threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
        out["exhaustive"] = capacity_statistics(pairs, threshold)
    return out


def _csv_row(row: dict):
    """The CSV row of a report dict: the exhaustive statistics, if any,
    become exhaustive_<key> columns after the others."""
    exhaustive = row.pop("exhaustive", {})
    return [*row.items(), *((f"exhaustive_{k}", v) for k, v in exhaustive.items())]


def cmd_validate(table, args) -> int:
    _emit_json(
        {
            "status": "ok",
            "path": str(args.path),
            "features": table.n_features,
            "concepts": list(table.concepts.concepts),
        }
    )
    return 0


def cmd_entropy(table, args) -> int:
    names = table.concepts.concepts
    values = [entropy(normalize(table, c)) for c in names]
    scores = specificity_scores(values)
    rows = [
        [("concept", c), ("entropy", h), ("specificity", s)]
        for c, h, s in zip(names, values, scores)
    ]
    _write_rows(rows, args.output)
    return 0


def cmd_distance(table, args) -> int:
    dists = distributions(table.subset(concepts=args.concepts))
    metric = "tv" if len(dists) == 2 else "gtv"
    value = generalized_total_variation(dists)
    _emit_json({"concepts": args.concepts, "metric": metric, "value": value})
    return 0


def cmd_semdist(table, args) -> int:
    result = _square_result(table, args)
    _emit_json(
        {
            "concepts": args.concepts,
            "features": args.features,
            "method": "analytic" if result.samples is None else "monte_carlo",
            "delta_s": result.delta_s,
            "modal_proportion": result.modal_proportion,
            "contrast": result.contrast_by_feature(),
            "optimal": result.optimal.mapping,
            "samples": result.samples,
            "seed": result.seed,
        }
    )
    return 0


def _write_capacity(reports, table, args) -> None:
    rows = (_report_dict(report, table, args) for report in reports)
    if args.output == "csv":
        _write_rows(map(_csv_row, rows), "csv")
    elif args.all:
        for row in rows:
            sys.stdout.write(json.dumps(row, separators=(",", ":")) + "\n")
    else:
        _emit_json(next(rows))


def cmd_capacity(table, args) -> int:
    config = _config(args)
    if args.all:
        k = _subset_size(args, table)
        scan = iter_capacity_reports(table, k, config, workers=args.workers)
        # closing the scan shuts its pool down, however the writing ends:
        # also when the reader closes stdout
        with contextlib.closing(scan) as reports:
            _write_capacity(reports, table, args)
    else:
        _write_capacity([max_capacity(table, args.concepts, config)], table, args)
    return 0


def cmd_palette(table, args) -> int:
    library = load_uw71() if args.library == "uw71" else load_library_csv(args.library)
    table = with_library_coordinates(table, library)
    report = max_capacity(table, args.concepts, _config(args))
    contrast = report.monte_carlo.contrast_by_feature()
    entries = []
    for concept, fid in zip(args.concepts, report.chosen_features):
        record = table.library.features[table.library.index_of(fid)]
        entry = {"concept": concept, **palette_entry(record)}
        entry["contrast"] = contrast[fid]
        entries.append(entry)
    _emit_json(
        {
            "concepts": args.concepts,
            "palette": entries,
            "delta_s": report.max_capacity,
            "max_capacity": report.max_capacity,
            "samples": report.samples,
            "seed": report.seed,
        }
    )
    return 0


def cmd_predict(table, args) -> int:
    result = _square_result(table, args)
    matrix = result.response_matrix.tolist()
    if args.output == "csv":
        by_feature = zip(args.features, matrix)
        rows = ([("feature_id", f), *zip(args.concepts, r)] for f, r in by_feature)
        _write_rows(rows, "csv")
    else:
        _emit_json(
            {
                "concepts": args.concepts,
                "features": args.features,
                "matrix": matrix,
                "samples": result.samples,
                "seed": result.seed,
            }
        )
    return 0


def cmd_analyze(table, args) -> int:
    k = _subset_size(args, table)
    subsets = math.comb(table.n_concepts, k)
    if args.output == "json" and subsets < 4:
        # the regression on two predictors needs four rows
        raise UsageError(
            f"analyze needs at least 4 subsets; --k {k} over "
            f"{table.n_concepts} concepts gives {subsets}"
        )
    frame = build_frame(table, k, _config(args), workers=args.workers)
    rows = frame.rows()
    if args.output == "csv":
        _write_rows([row.items() for row in rows], "csv")
        return 0
    _emit_json(
        {
            "k": args.k,
            "rows": [_nan_to_null(row) for row in rows],
            **analyze(frame),
            "samples": args.samples,
            "seed": args.seed,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semdisc",
        description="Semantic discriminability metrics and palette generation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, sampling=False, workers=False, rows=False):
        """A subcommand on an association CSV. sampling adds --seed and
        --samples, workers --workers; rows, for the commands whose output
        is a table, adds --output."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("path", help="association CSV file")
        if sampling:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--samples", type=int, default=1000)
        if workers:
            p.add_argument("--workers", type=int, default=1)
        if rows:
            p.add_argument("--output", choices=["json", "csv"], default="json")
        return p

    command("validate", cmd_validate, "check an association CSV")
    command("entropy", cmd_entropy, "per-concept entropy and specificity", rows=True)

    p = command("distance", cmd_distance, "TV or GTV between concepts")
    p.add_argument("--concepts", required=True)

    p = command(
        "semdist", cmd_semdist,
        "semantic distance of a feature set for a concept set", sampling=True,
    )
    p.add_argument("--concepts", required=True)
    p.add_argument("--features", required=True)

    p = command(
        "capacity", cmd_capacity, "max capacity of concept subsets",
        sampling=True, workers=True, rows=True,
    )
    p.add_argument("--k", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--concepts")
    p.add_argument("--threshold", type=float)
    p.add_argument("--exhaustive", action="store_true")

    p = command(
        "palette", cmd_palette, "generate an optimal color palette", sampling=True
    )
    p.add_argument("--concepts", required=True)
    p.add_argument("--library", default="uw71")

    p = command(
        "predict", cmd_predict, "assignment-proportion prediction matrix",
        sampling=True, rows=True,
    )
    p.add_argument("--concepts", required=True)
    p.add_argument("--features", required=True)

    p = command(
        "analyze", cmd_analyze, "capacity/difference/specificity statistics",
        sampling=True, workers=True, rows=True,
    )
    p.add_argument("--k", type=int, required=True)
    return parser


@contextlib.contextmanager
def _warnings_to_stderr():
    """Write each warning raised inside the block as one "warning: ..."
    line on stderr when the block ends, however it ends. Every
    UserWarning and RuntimeWarning is kept, the categories semdisc and
    numpy raise about the data; deprecations and the like speak of code
    and are dropped, whatever filters the interpreter was given."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("ignore")
        warnings.simplefilter("always", UserWarning)
        warnings.simplefilter("always", RuntimeWarning)
        try:
            yield
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _stop_blas_pools():
    """Stop the worker threads of every loaded OpenBLAS.

    numpy's and scipy's OpenBLAS each start a worker when the library
    loads, and it busy-waits about 120 ms; on a 2-core host the two spin
    into the command's own work. blas_thread_shutdown_ is OpenBLAS's own
    fork handler, and the next threaded BLAS call starts the pool again.
    The libraries are found in /proc/self/maps and opened with
    RTLD_NOLOAD, so none is loaded here; where there is no /proc, no
    OpenBLAS or no such symbol, nothing is done."""
    try:
        with open("/proc/self/maps") as maps:
            mapped = [line for line in maps if "openblas" in line]
    except OSError:
        return
    for path in {line.split(None, 5)[5].rstrip("\n") for line in mapped}:
        try:
            shutdown = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).blas_thread_shutdown_
        except (OSError, AttributeError):
            continue
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        shutdown()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Flags and id lists are checked first, so a usage error exits 2 before
    any file is read; then the association table is read once and passed
    to the command as func(table, args).

    With argv None, flags come from sys.argv and semdisc runs as the
    program: the objects its imports made (numpy's and scipy's) are
    frozen out of every later garbage collection, in forked workers too,
    the idle OpenBLAS worker threads the imports started are stopped
    (_stop_blas_pools), and when the command ends with code 0, 1, 2 or
    130, main flushes stdout and stderr and ends the process with
    os._exit, without the interpreter's teardown. Argparse's usage errors
    and uncaught exceptions exit the usual way. A caller that passes argv
    gets the code back and keeps its collector state and BLAS threads."""
    if argv is None:
        gc.freeze()
        _stop_blas_pools()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _warnings_to_stderr():
            _check_flags(args)
            code = args.func(load_association_csv(args.path), args)
            sys.stdout.flush()
    except (UnknownIdError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except SemdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except OSError as exc:
        # input files fail as SemdiscErrors and a failed scan pool as a
        # warning, so this is stdout: the reader closed it (e.g. `| head`)
        # or the device is full. What is still buffered goes to devnull so
        # that no later flush can fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("error: output closed before it was complete", file=sys.stderr)
        else:
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        code = 1
    except KeyboardInterrupt:  # leaving the command closed its scan
        print("error: interrupted", file=sys.stderr)
        code = 130
    if argv is None:
        with contextlib.suppress(OSError):  # stdout is gone or full
            sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
