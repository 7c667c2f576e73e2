"""Command-line front end.

Subcommands: ``cluster`` runs one method and emits artifacts, ``validate``
reports input validity, ``cut`` prints the partition at a resolution,
``compare`` tabulates several methods side by side with the
reciprocal/nonreciprocal sandwich check, and the fixture-generation
``oracle`` command runs the brute-force reference on small inputs.
The method-spec grammar, ``GRAMMAR`` and ``parse_method_spec``, is
defined in ``methods`` and re-exported here.

Exit codes: 0 success, 1 usage or parse failure, 2 validation failure,
3 I/O failure, 4 out of memory. Output for identical inputs is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import exports
from .hierarchy import (
    InvalidUltrametricError,
    Ultrametric,
    cut_at_resolution,
    to_dendrogram,
    validate_ultrametric,
)
from .methods import (
    GRAMMAR,
    GraftCounterexample,
    MethodSpec,
    MethodSpecError,
    parse_method_spec,
    run_method,
    run_methods,
)
from .network import (
    NetworkFormatError,
    _distinct_texts,
    _plain_float,
    format_value,
    from_uses_table,
    load_network,
    load_uses_table,
    validate_network,
)
from .oracle import (
    brute_nonreciprocal,
    brute_reciprocal,
    brute_semi_reciprocal,
    brute_single_linkage,
)

__all__ = ["GRAMMAR", "main", "entrypoint", "parse_method_spec"]

CONVEX_DEFAULT_TOLERANCE = 1e-9


class UsageError(ValueError):
    """Bad flags or malformed command line."""


class ValidationFailure(Exception):
    """Input or result failed a validity check."""


def _load_input(args, strict: bool = True):
    if args.uses_exclude_diagonal and args.format != "uses":
        raise UsageError("--uses-exclude-diagonal needs --format uses")
    with open(args.input, "rb") as fh:  # load_network decodes and reads the line ends
        if args.format == "uses":
            table = load_uses_table(fh)
            return from_uses_table(table, exclude_diagonal=args.uses_exclude_diagonal)
        return load_network(fh, fmt=args.format, strict=strict)


def _emission_plan(args) -> list[tuple[str, str | None]]:
    emits = args.emit or []
    outputs = args.output or []
    if not emits:
        if outputs:
            raise UsageError("--output given without --emit")
        return []
    real = [os.path.realpath(path) for path in outputs]  # "x", "./x" and a link to x are one file
    repeated = [path for k, path in enumerate(outputs) if real[k] in real[:k]]
    if repeated:  # the later artifact would overwrite the earlier one
        raise UsageError(f"--output {repeated[0]} is given twice")
    if len(outputs) == len(emits):
        return list(zip(emits, outputs))
    if not outputs and len(emits) == 1:
        return [(emits[0], None)]
    raise UsageError(
        f"{len(emits)} --emit flags need {len(emits)} --output paths (got {len(outputs)})"
    )


def _write_artifact(payload: str, path: str | None, stdout) -> None:
    if path is None:
        stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _merge_summary(u: Ultrametric, dendrogram, out) -> None:
    out.write(f"method: {u.provenance.method if u.provenance else '?'}\n")
    out.write(f"nodes: {u.n}\n")
    if dendrogram.merges:
        out.write("merges:\n")
        for event in dendrogram.merges:
            blocks = " ".join("{" + ",".join(b) + "}" for b in event.blocks)
            out.write(f"  {format_value(event.resolution)} -> {blocks}\n")
    else:
        out.write("merges: (none)\n")


def cmd_cluster(args, stdout, stderr) -> int:
    net = _load_input(args)
    spec = parse_method_spec(args.method)
    plan = _emission_plan(args)
    dot = any(fmt == "dot" for fmt, _ in plan)
    if dot != (args.delta is not None):  # each is read only with the other
        raise UsageError("--emit dot needs --delta" if dot else "--delta is read only by --emit dot")

    result = run_method(net, spec)
    counterexample = isinstance(result, GraftCounterexample)
    refused = [fmt for fmt, _ in plan if fmt in ("newick", "json")] if counterexample else []
    # An artifact written to stdout has it alone, so that `> file` saves the artifact whole.
    summary = stderr if any(path is None for _, path in plan) and not refused else stdout
    if counterexample:
        for line in result.report.lines():
            summary.write(line + "\n")
        if refused:
            raise ValidationFailure(
                f"refusing to emit {'/'.join(refused)}: {spec.describe()} is a "
                "counterexample demonstrator, not an admissible method"
            )
        matrix = result.matrix
    else:
        dendrogram = to_dendrogram(result)
        _merge_summary(result, dendrogram, summary)
        roots = dendrogram.roots
        if len(roots) > 1:
            stderr.write(
                f"warning: network is not minimax-connected; dendrogram is a forest with {len(roots)} roots\n"
            )
        matrix = result.dist
    # Built only when the plan asks; a counterexample never reaches json or newick.
    payloads = {
        "csv": lambda: exports.matrix_csv(result.labels, matrix),
        "json": lambda: exports.dendrogram_json(result, dendrogram),
        "newick": lambda: exports.newick(dendrogram),
        "dot": lambda: exports.threshold_dot(net, args.delta),
    }
    for fmt, path in plan:
        _write_artifact(payloads[fmt](), path, stdout)
    return 0


def cmd_validate(args, stdout, stderr) -> int:
    if args.tolerance is not None and not args.ultrametric:
        raise UsageError("--tolerance is read only by --ultrametric")
    net = _load_input(args, strict=False)
    net_report = validate_network(net)
    for line in net_report.lines():
        stdout.write(line + "\n")
    failed = not net_report.is_valid
    if args.ultrametric:
        u_report = validate_ultrametric(net.dissim, args.tolerance or 0.0, labels=net.labels)
        for line in u_report.lines():
            stdout.write(line + "\n")
        failed = failed or not u_report.is_valid
    if failed:
        raise ValidationFailure("input failed validation")
    return 0


def cmd_cut(args, stdout, stderr) -> int:
    net = _load_input(args)
    spec = parse_method_spec(args.method)
    if spec.kind == "graft-rr-invalid":
        raise ValidationFailure(f"{spec.describe()} is a counterexample demonstrator; it has no partitions")
    partition = cut_at_resolution(run_method(net, spec), args.delta)
    payload = exports.partition_json(partition) if args.emit == "json" else exports.partition_text(partition)
    _write_artifact(payload, args.output, stdout)
    return 0


def _column(head: str, texts: list[str], index: np.ndarray | None = None) -> list[str]:
    """A padded table column: head, then texts, or texts[index] when given; each text is padded once."""
    width = max(map(len, [head, *texts]))
    padded = [text.ljust(width) for text in texts]
    cells = padded if index is None else np.array(padded, dtype=object)[index].tolist()
    return [head.ljust(width), *cells]


def cmd_compare(args, stdout, stderr) -> int:
    net = _load_input(args)
    specs = [parse_method_spec(m) for m in args.method]
    if any(spec.kind == "graft-rr-invalid" for spec in specs):
        raise ValidationFailure("graft-rr-invalid is not admissible; compare refuses it")
    rows, cols = np.triu_indices(net.n, 1)
    results = run_methods(net, [*specs, MethodSpec("nonreciprocal"), MethodSpec("reciprocal")])
    *values, lower, upper = [res.dist[rows, cols] for res in results]
    names, flags = [spec.describe() for spec in specs], []
    for spec, vals in zip(specs, values):
        tol = (0.0 if spec.exact else CONVEX_DEFAULT_TOLERANCE) if args.tolerance is None else args.tolerance
        flags.append((vals < lower - tol) | (vals > upper + tol))
    sandwich = ["ok"] * len(rows)
    for k in np.flatnonzero(np.any(flags, axis=0)).tolist():
        sandwich[k] = "VIOLATION:" + ";".join(name for name, bad in zip(names, flags) if bad[k])
    pairs = [f"{net.labels[i]},{net.labels[j]}" for i, j in zip(rows.tolist(), cols.tolist())]
    columns = [_column("pair", pairs), *(_column(name, *_distinct_texts(vals)) for name, vals in zip(names, values))]
    stdout.write("\n".join(map("  ".join, zip(*columns, ["sandwich", *sandwich]))) + "\n")
    violations = int(np.sum(flags))
    if violations:
        stderr.write(f"error: {violations} sandwich violations\n")
        raise ValidationFailure("sandwich bounds violated")
    return 0


def cmd_oracle(args, stdout, stderr) -> int:
    net = _load_input(args)
    spec = parse_method_spec(args.method)
    if spec.kind == "reciprocal":
        result = brute_reciprocal(net)
    elif spec.kind == "nonreciprocal":
        result = brute_nonreciprocal(net)
    elif spec.kind == "semi-reciprocal":
        result = brute_semi_reciprocal(net, spec.t)
    elif spec.kind == "single-linkage":
        result = brute_single_linkage(net)
    else:
        raise UsageError(f"oracle supports reciprocal/nonreciprocal/semi-reciprocal/single-linkage, not {spec.kind}")
    _write_artifact(exports.matrix_csv(result.labels, result.dist), args.output, stdout)
    return 0


def _nonnegative_float(text: str) -> float:
    """argparse type for resolutions and tolerances: a finite number >= 0."""
    try:
        value = _plain_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _unknown_flags(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """The arguments that look like flags but name no flag of parser or of the command before them.

    As argparse reads them, a flag may be cut to a prefix and may carry its
    value after "=". A number such as "-1" or "-inf" is taken for a value:
    where argparse reads it as a flag, its own message names the flag before it.
    """
    flags, unknown, command = list(parser._option_string_actions), [], None
    for arg in argv:
        if command is None and arg in parser.commands:
            command = parser.commands[arg]
            flags += command._option_string_actions
        elif arg.startswith("-") and not _is_number(arg):
            name = arg.split("=", 1)[0]
            if not any(flag.startswith(name) for flag in flags):
                unknown.append(arg)
    return unknown


def _add_common(sub) -> None:
    sub.add_argument("--input", required=True, help="input file path")
    sub.add_argument(
        "--format",
        choices=("dense-csv", "edge-list", "uses"),
        default="dense-csv",
        help="input format (default dense-csv)",
    )
    sub.add_argument(
        "--uses-exclude-diagonal",
        action="store_true",
        help="leave self-flows out of the uses-table column totals (--format uses only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dioidclust",
        description="Hierarchical clustering of asymmetric dissimilarity networks",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(
        dest="command", metavar="{cluster,validate,cut,compare}", required=True
    )

    cluster = commands.add_parser(
        "cluster",
        help="run a clustering method and emit the results",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(cluster)
    cluster.add_argument("--method", required=True, help="method spec (see grammar)")
    cluster.add_argument(
        "--emit",
        action="append",
        choices=("csv", "json", "newick", "dot"),
        help="artifact format; repeatable with matching --output paths",
    )
    cluster.add_argument("--output", action="append", help="artifact path (stdout if omitted)")
    cluster.add_argument("--delta", type=_nonnegative_float, default=None, help="resolution for dot emission")
    cluster.set_defaults(func=cmd_cluster)

    validate = commands.add_parser("validate", help="report input validity")
    _add_common(validate)
    validate.add_argument(
        "--ultrametric",
        action="store_true",
        help="additionally validate the matrix as an ultrametric",
    )
    validate.add_argument(
        "--tolerance",
        type=_nonnegative_float,
        default=None,
        help="tolerance of the --ultrametric check (default 0, exact)",
    )
    validate.set_defaults(func=cmd_validate)

    cut = commands.add_parser("cut", help="print the partition at a resolution")
    _add_common(cut)
    cut.add_argument("--method", required=True, help="method spec (see grammar)")
    cut.add_argument("--delta", type=_nonnegative_float, required=True, help="resolution of the cut")
    cut.add_argument("--emit", choices=("text", "json"), default="text")
    cut.add_argument("--output", default=None, help="output path (stdout if omitted)")
    cut.set_defaults(func=cmd_cut)

    compare = commands.add_parser(
        "compare",
        help="tabulate several methods and check the sandwich bounds",
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(compare)
    compare.add_argument(
        "--method", action="append", required=True, help="method spec; repeatable"
    )
    compare.add_argument(
        "--tolerance",
        type=_nonnegative_float,
        default=None,
        help="tolerance of the sandwich check (default 0, or 1e-9 for convex methods)",
    )
    compare.set_defaults(func=cmd_compare)

    oracle = commands.add_parser("oracle")  # fixture generation; hidden from the overview
    _add_common(oracle)
    oracle.add_argument("--method", required=True)
    oracle.add_argument("--output", default=None)
    oracle.set_defaults(func=cmd_oracle)

    parser.commands = commands.choices  # each command's parser, for _unknown_flags
    return parser


_parser = None  # built by the first main call, not at import, then reused


def main(argv=None, stdout=None, stderr=None) -> int:
    global _parser
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    _parser = _parser or build_parser()
    try:
        with contextlib.redirect_stdout(stdout):  # argparse prints --help to sys.stdout
            args = _parser.parse_args(argv)
    except UsageError as exc:  # an unknown flag is named first, before a missing argument
        unknown = _unknown_flags(_parser, sys.argv[1:] if argv is None else argv)
        stderr.write(f"error: {'unrecognized arguments: ' + ' '.join(unknown) if unknown else exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 1
    try:
        return args.func(args, stdout=stdout, stderr=stderr)
    except (MethodSpecError, NetworkFormatError, UsageError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except (InvalidUltrametricError, ValidationFailure, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    except MemoryError as exc:  # numpy's message names the shape it could not allocate
        stderr.write(f"error: out of memory: {exc}\n")
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
