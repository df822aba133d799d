"""Command-line front end: dstable <subcommand> [--flags].

Subcommands: pmf, cdf, sample, check, stability-test, convert, plot-data.
All numbers print with 17 significant digits so doubles round-trip, in both
CSV (default) and JSON output. Exit codes: 0 success, 2 parameter/usage
error, 3 honest-but-incomplete table, 4 statistical test failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import DstableError
from .genfun import stability_residual
from .params import (
    BSibParams,
    CompoundRep,
    DSParams,
    ESParams,
    classify,
    compound_to_ds,
    ds_to_compound,
    ds_to_es,
    es_to_ds,
)
from .pmf import _ds_pmf, moments
from .sampler import RngStream, _draws, stability_experiment

__all__ = ["main"]

_PLOT_SET = (
    ("strict_alpha_0.5", 0.5, -1.0, 0.0),
    ("alpha_1", 1.0, 1.0, 2.0),
    ("selfdecomp_alpha_1.5", 1.5, 1.0, 3.0),
    ("multimodal_alpha_2", 2.0, 1.0, 2.0),
)


def _fmt(value) -> str:
    """Render one value: floats at 17 significant digits, bools lowercase."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_render(obj) -> str:
    # hand-rolled so float digits are byte-identical with the CSV output
    # (the stdlib encoder always uses repr for floats)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"'
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot render {type(obj)!r}")


def _emit_table(fmt: str, schema: str, header: list[str], columns: list) -> None:
    """Write equal-length, nonempty columns as one CSV table or one JSON object.

    Floats print at 17 significant digits, ints as they are, and strings as
    JSON strings in JSON output. Table values are finite. The whole table is
    formatted by one % template (a CSV row's, repeated over the rows), the
    spec of each column chosen once from its first value.
    """
    rows = len(columns[0])
    specs = ["%.17g" if isinstance(column[0], float) else "%s" for column in columns]
    if fmt == "csv":
        values = [None] * (rows * len(columns))
        for i, column in enumerate(columns):
            values[i :: len(columns)] = column
        template = ",".join(header) + "\n" + (",".join(specs) + "\n") * rows
    else:
        values = []
        template = '{"schema": ' + json.dumps(schema)
        for name, spec, column in zip(header, specs, columns):
            if isinstance(column[0], str):  # few distinct labels: dump each once
                dumped = {label: json.dumps(label) for label in set(column)}
                column = list(map(dumped.__getitem__, column))
            values += column
            template += f", {json.dumps(name)}: [{', '.join([spec] * rows)}]"
        template += "}\n"
    sys.stdout.write(template % tuple(values))


def _emit_report(fmt: str, schema: str, report: dict) -> None:
    if fmt == "csv":
        print("key,value")
        for key, value in _flatten(report):
            print(f"{key},{_fmt(value)}")
    else:
        print(_json_render({"schema": schema} | report))


def _flatten(report: dict, prefix: str = ""):
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}_")
        elif value is not None:
            yield name, value


def _ds_from_args(args) -> DSParams:
    return DSParams(args.alpha, args.gamma, args.delta)


def _cmd_pmf(args, with_pmf_column: bool = True) -> int:
    p = _ds_from_args(args)
    table = _ds_pmf(p, args.nmax, args.tail_bound)  # an incomplete table exits 3 below
    n = range(len(table))
    cum = table.cdf_values.tolist()
    if with_pmf_column:
        _emit_table(args.format, "pmf", ["n", "pmf", "cdf"], [n, table.masses.tolist(), cum])
    else:
        _emit_table(args.format, "cdf", ["n", "cdf"], [n, cum])
    if not table.tail_bound_met:
        print(
            f"warning: tail mass {_fmt(table.tail_mass)} still exceeds bound "
            f"{_fmt(args.tail_bound)} at n = {len(table) - 1}; table is incomplete",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_cdf(args) -> int:
    return _cmd_pmf(args, with_pmf_column=False)


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise DstableError(f"--n must be >= 1, got {args.n}")
    p = _ds_from_args(args)
    rng = RngStream(args.seed)
    values = _draws(p, rng, args.n)
    # render everything first, so a failure leaves stdout empty
    try:
        cells = list(map(str, values))
    except ValueError as exc:  # str(int) refuses ints past the interpreter's limit
        limit = sys.get_int_max_str_digits()
        raise DstableError(f"a variate has more than {limit} digits to print") from exc
    if args.format == "csv":
        text = "\n".join(["value", *cells])
    else:
        text = f'{{"schema": "sample", "seed": {args.seed}, "values": [{", ".join(cells)}]}}'
    print(text)
    return 0


def _cmd_check(args) -> int:
    p = _ds_from_args(args)
    flags = classify(p)
    moment = moments(p)
    compound = None  # the point mass at zero has no compound form
    if not flags.is_degenerate:
        c = ds_to_compound(p)
        compound = {"lambda": c.lam, "rho": c.summand.rho}
    rhos = args.rho if args.rho else [0.1 * k for k in range(1, 10)]
    residual = max(stability_residual(p, r).max_residual for r in rhos)
    report = {
        "valid": True,
        "strict": flags.strict,
        "broad": not flags.strict,
        "self_decomposable": flags.self_decomposable,
        "is_poisson": flags.is_poisson,
        "is_degenerate": flags.is_degenerate,
        "mean": moment.mean,
        "variance": moment.variance,
        "compound": compound,
        "stability_max_residual": residual,
        "near_alpha_one": p.near_alpha_one,
    }
    _emit_report(args.format, "check", report)
    return 0


def _cmd_stability_test(args) -> int:
    p = _ds_from_args(args)
    rng = RngStream(args.seed)
    result = stability_experiment(
        p, args.rho, args.n, rng, mu_override=args.mu_override
    )
    passed = result.tv_distance < args.tv_threshold
    report = {
        "mu": result.mu,
        "tv_distance": result.tv_distance,
        "chi_square_stat": result.chi_square_stat,
        "bins_used": result.bins_used,
        "chi_square_dof": result.chi_square_dof,
        "n_samples": result.n_samples,
        "tv_threshold": args.tv_threshold,
        "passed": passed,
    }
    _emit_report(args.format, "stability_test", report)
    return 0 if passed else 4


def _cmd_convert(args) -> int:
    src, dst = args.source, args.target

    def need(*names):
        missing = [n for n in names if getattr(args, n) is None]
        if missing:
            raise DstableError(
                f"convert --from {src} requires --" + " --".join(missing)
            )

    if src == "ds":
        need("alpha", "gamma", "delta")
        p = DSParams(args.alpha, args.gamma, args.delta)
        if dst == "compound":
            c = ds_to_compound(p)
            result = {"alpha": c.summand.alpha, "lambda": c.lam, "rho": c.summand.rho}
        elif dst == "es":
            e = ds_to_es(p)
            result = {"alpha": e.alpha, "sigma": e.sigma, "delta": e.delta}
        else:
            raise DstableError("convert --from ds supports --to compound or es")
    elif src == "compound":
        need("alpha", "lam", "rho")
        if dst != "ds":
            raise DstableError("convert --from compound supports only --to ds")
        p = compound_to_ds(CompoundRep(args.lam, BSibParams(args.alpha, args.rho)))
        result = {"alpha": p.alpha, "gamma": p.gamma, "delta": p.delta}
    elif src == "es":
        need("alpha", "sigma", "delta")
        if dst != "ds":
            raise DstableError("convert --from es supports only --to ds")
        p = es_to_ds(ESParams(args.alpha, args.sigma, args.delta))
        result = {"alpha": p.alpha, "gamma": p.gamma, "delta": p.delta}
    else:  # pragma: no cover - argparse restricts choices
        raise DstableError(f"unknown source family {src}")
    _emit_report(args.format, "convert", {"from": src, "to": dst, "result": result})
    return 0


def _cmd_plot_data(args) -> int:
    labels, ns, masses = [], [], []
    for label, alpha, gamma, delta in _PLOT_SET:
        p = DSParams(alpha, gamma, delta)
        table = _ds_pmf(p, args.nmax, args.tail_bound)  # the window truncates by design
        labels += [label] * len(table)
        ns += range(len(table))
        masses += table.masses.tolist()
    _emit_table(args.format, "plot-data", ["label", "n", "pmf"], [labels, ns, masses])
    return 0


def _add_ds_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--gamma", type=float, required=True)
    sub.add_argument("--delta", type=float, required=True)


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    """The dstable parser, built on first use and shared by every later call.

    Parsing leaves no state on it: each parse_args call returns a fresh
    namespace with every default filled in.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and each subcommand's parser, by name, built once."""
    parser = argparse.ArgumentParser(
        prog="dstable",
        description="Discrete stable distribution tables, checks, and sampling.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("pmf", "cdf"):
        sub = commands.add_parser(name, help=f"emit a truncated {name} table")
        _add_ds_flags(sub)
        sub.add_argument("--nmax", type=int, default=1000)
        sub.add_argument("--tail-bound", type=float, default=1e-12, dest="tail_bound")
        _add_format_flag(sub)
        sub.set_defaults(handler=_cmd_pmf if name == "pmf" else _cmd_cdf)

    sub = commands.add_parser("sample", help="draw seeded variates")
    _add_ds_flags(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    _add_format_flag(sub)
    sub.set_defaults(handler=_cmd_sample)

    sub = commands.add_parser("check", help="validate, classify, verify stability")
    _add_ds_flags(sub)
    sub.add_argument("--rho", type=float, nargs="*", default=None)
    _add_format_flag(sub)
    sub.set_defaults(handler=_cmd_check)

    sub = commands.add_parser(
        "stability-test", help="Monte-Carlo check of the stability identity"
    )
    _add_ds_flags(sub)
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--n", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tv-threshold", type=float, default=0.02, dest="tv_threshold")
    sub.add_argument("--mu-override", type=float, default=None, dest="mu_override")
    _add_format_flag(sub)
    sub.set_defaults(handler=_cmd_stability_test)

    sub = commands.add_parser("convert", help="convert between parameterizations")
    sub.add_argument("--from", choices=("ds", "es", "compound"), required=True,
                     dest="source")
    sub.add_argument("--to", choices=("ds", "es", "compound"), required=True,
                     dest="target")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--sigma", type=float, default=None)
    sub.add_argument("--lam", type=float, default=None)
    sub.add_argument("--rho", type=float, default=None)
    _add_format_flag(sub)
    sub.set_defaults(handler=_cmd_convert)

    sub = commands.add_parser(
        "plot-data", help="PMF tables spanning the qualitative regimes"
    )
    sub.add_argument("--nmax", type=int, default=50)
    sub.add_argument("--tail-bound", type=float, default=1e-8, dest="tail_bound")
    _add_format_flag(sub)
    sub.set_defaults(handler=_cmd_plot_data)

    return parser, commands.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root, commands = _parsers()
    # A request naming a subcommand goes to its parser alone, as the root
    # parser would pass it on. Any other request, or one with arguments the
    # subcommand does not know, is the root parser's: it prints the usage
    # error (exit 2) or the top-level help.
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, unknown = sub.parse_known_args(argv[1:])
    if sub is None or unknown:
        args = root.parse_args(argv)
    try:
        return args.handler(args)
    except DstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
