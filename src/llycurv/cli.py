"""Command-line front end.

Each command returns its document and writes nothing: either a payload
dict, which `main` emits as one JSON line with the resolved run
configuration under "config", or finished text (a graph file, or a CSV
whose `# config:` line echoes the configuration).  `main` alone writes to
stdout or --out and picks the exit status.  Output is deterministic: exact
fractions are serialized as decimal strings and JSON keys are sorted.  Exit
status 0 means success, 1 means the document's "ok" is false (a
mathematical assertion failed; only `corollary` and `verify-conjecture`
carry "ok"), 2 means a configuration or I/O problem.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable

from . import graphio
from .certify import Certificate, certify_curvature, scan_parameters
from .errors import InvalidParamsError, LlycurvError
from .families import family_names, named_graph, paley_gamma_orders, paley_graph
from .graphs import SrgParams, classify_regularity
from .matching import local_perfect_matching
from .residues import verify_corollary
from .spectral import (
    Eigenvalue,
    _refuse_dense,
    lichnerowicz_report,
    numerical_lambda2,
    srg_spectrum,
)
from .transport import CurvatureReport, curvature_spectrum, lly_curvature, paley_kappa


def _frac(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _eig(value: Eigenvalue) -> dict[str, int]:
    return {"u": value.u, "v": value.v, "w": value.w, "D": value.disc}


def _config_of(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _csv(args: argparse.Namespace, header: str, rows: Iterable[Iterable[object]]) -> str:
    """A `# config:` line, the header, then one comma-joined line per row."""
    lines = ["# config: " + json.dumps(_config_of(args), sort_keys=True), header]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _edge_doc(r: CurvatureReport) -> dict[str, Any]:
    return {
        "edge": [r.x, r.y],
        "kappa": _frac(r.kappa),
        "delta_size": r.delta_size,
        "upper_bound": _frac(r.upper_bound),
        "sharp": r.sharp,
    }


def _threads(text: str) -> int:
    """The argparse type of --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _refuse_unused(context: str, *options: tuple[str, object, object]) -> None:
    """Refuse an option the run would accept and echo in config but never use.

    Each option is (name, value, default); a value other than its default
    is an error (exit 2), so the echoed config never misstates the run.
    """
    for option, value, default in options:
        if value != default:
            other = "" if default is None else f" other than {default}"
            raise LlycurvError(f"{context} takes no {option}{other}, got {value}")


def _parse_ints(text: str, what: str, form: str) -> tuple[int, ...]:
    """The integers of comma-separated text with as many fields as form."""
    parts = text.split(",")
    try:
        if len(parts) == len(form.split(",")):
            return tuple(int(part) for part in parts)
    except ValueError:
        pass
    raise LlycurvError(f"{what} must be {form!r}, got {text!r}")


def _cmd_gen(args: argparse.Namespace) -> str:
    params = {}
    for key in ("q", "k", "n", "m"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    g = named_graph(args.name, **params)
    return graphio.to_json(g) if args.format == "json" else graphio.to_graph6(g) + "\n"


def _cmd_curvature(args: argparse.Namespace) -> dict[str, Any] | str:
    if args.edge is not None:
        # one edge is one JSON document solved in this process
        _refuse_unused("--edge", ("--format", args.format, "json"), ("--threads", args.threads, 1))
    g = graphio.load_graph(args.graph)
    if args.edge is not None:
        report = lly_curvature(g, *_parse_ints(args.edge, "edge", "u,v"), want_witness=True)
        return {**_edge_doc(report), "witness": [list(pair) for pair in report.witness or ()]}
    spectrum = curvature_spectrum(g, processes=args.threads)
    if args.format == "csv":
        return _csv(
            args,
            "x,y,kappa_num,kappa_den,delta_size,upper_num,upper_den,sharp",
            (
                (r.x, r.y, r.kappa.numerator, r.kappa.denominator, r.delta_size,
                 r.upper_bound.numerator, r.upper_bound.denominator, int(r.sharp))
                for r in spectrum.reports
            ),
        )
    return {
        "min_kappa": _frac(spectrum.min_kappa),
        "edges": [_edge_doc(r) for r in spectrum.reports],
    }


def _cmd_match(args: argparse.Namespace) -> dict[str, Any]:
    g = graphio.load_graph(args.graph)
    x, y = _parse_ints(args.edge, "edge", "u,v")
    parts, result = local_perfect_matching(g, x, y)
    payload: dict[str, Any] = {
        "edge": [x, y],
        "left": list(parts.nx),
        "right": list(parts.ny),
        "perfect": result.perfect,
        "matching_size": len(result.pairs),
    }
    if args.witness:
        payload["pairs"] = [list(pair) for pair in result.pairs]
    if result.violator is not None:
        payload["violator"] = list(result.violator)
    return payload


def _cmd_certify(args: argparse.Namespace) -> dict[str, Any]:
    params = SrgParams(*_parse_ints(args.params, "params", "n,d,alpha,beta"))
    cert = certify_curvature(params)
    payload: dict[str, Any] = {
        "params": list(params.as_tuple()),
        "outcome": cert.outcome,
        "sharp": cert.sharp,
    }
    if cert.condition:
        payload["condition"] = cert.condition
    if cert.b_one:
        payload["b_one_rule"] = cert.b_one
    if cert.certified_kappa is not None:
        payload["kappa"] = _frac(cert.certified_kappa)
    if cert.reason:
        payload["reason"] = cert.reason
    if args.sweep_transcript:
        payload["sweep"] = [
            {
                "b": quad.b,
                "a2": str(quad.a2),
                "a1": str(quad.a1),
                "a0": str(quad.a0),
                "discriminant": str(quad.discriminant),
                "feasible": quad.feasible,
            }
            for quad in cert.sweep
        ]
    return payload


def _cmd_scan(args: argparse.Namespace) -> str:
    def row(cert: Certificate) -> list[object]:
        kappa = cert.certified_kappa
        return [
            *cert.params.as_tuple(),
            *map(int, cert.conditions.flags().values()),
            int(cert.outcome == "sharp_by_sweep"),
            int(cert.params.is_conference),
            *((kappa.numerator, kappa.denominator) if kappa is not None else ("", "")),
        ]

    return _csv(
        args,
        "n,d,alpha,beta,cond1,cond2,cond3,cond4,cond5,hlx,ll,sweep,conference,"
        "kappa_num,kappa_den",
        map(row, scan_parameters(args.max_n)),
    )


def _cmd_spectrum(args: argparse.Namespace) -> dict[str, Any]:
    if args.params is not None:
        params = SrgParams(*_parse_ints(args.params, "params", "n,d,alpha,beta"))
        report = srg_spectrum(params)
        return {
            "params": list(params.as_tuple()),
            "lambda1": _eig(Eigenvalue(0, 0, 1, 0)),
            "lambda2": _eig(report.lambda2),
            "lambda3": _eig(report.lambda3),
            "multiplicities": [report.m1, report.m2, report.m3],
        }
    g = graphio.load_graph(args.graph)
    _refuse_dense(g)  # numerical_lambda2's bound, before the classification
    rc = classify_regularity(g)
    payload = {"n": g.n, "lambda2_numerical": numerical_lambda2(g)}
    if rc.is_strongly_regular:
        report = srg_spectrum(rc.params)
        payload["params"] = list(rc.params.as_tuple())
        payload["lambda2"] = _eig(report.lambda2)
        payload["multiplicities"] = [report.m1, report.m2, report.m3]
    return payload


def _cmd_sharpness(args: argparse.Namespace) -> dict[str, Any]:
    g = graphio.load_graph(args.graph)
    report = lichnerowicz_report(g, processes=args.threads)
    payload: dict[str, Any] = {
        "min_kappa": _frac(report.min_kappa),
        "lambda2_numerical": report.lambda2_float,
        "sharp": report.sharp,
    }
    if report.lambda2_exact is not None:
        payload["lambda2"] = _eig(report.lambda2_exact)
    if report.bound_kappa is not None:
        payload["bound_kappa"] = _frac(report.bound_kappa)
    return payload


def _cmd_corollary(args: argparse.Namespace) -> dict[str, Any]:
    if args.mode == "exhaustive":
        _refuse_unused("--mode exhaustive", ("--seed", args.seed, None), ("--trials", args.trials, None))
    report = verify_corollary(args.q, mode=args.mode, seed=args.seed, trials=args.trials)
    return {
        "q": report.q,
        "pair": list(report.pair),
        "mode": report.mode,
        "subsets_tested": report.subsets_tested,
        "failures": [list(f) for f in report.failures],
        "ok": report.ok,
    }


def _cmd_verify_conjecture(args: argparse.Namespace) -> dict[str, Any]:
    # one edge orbit per Paley graph leaves nothing to split across workers
    _refuse_unused("verify-conjecture", ("--threads", args.threads, 1))
    if args.gamma_max < 2:
        raise InvalidParamsError(f"--gamma-max must be at least 2, got {args.gamma_max}")
    results = []
    for gamma, q in paley_gamma_orders(args.gamma_max):
        expected = Fraction(1, 2) + Fraction(1, 2 * gamma)
        # The edges of P(q) are one orbit, so one kappa is every edge's; the
        # graph is built to list them only when it is wrong.
        kappa = paley_kappa(q)
        bad = [] if kappa == expected else [
            {"edge": list(e), "kappa": _frac(kappa)} for e in paley_graph(q).edges()
        ]
        results.append(
            {
                "gamma": gamma,
                "q": q,
                "edges": q * (q - 1) // 4,
                "expected_kappa": _frac(expected),
                "all_match": not bad,
                "mismatches": bad,
            }
        )
    return {
        "gammas": [r["gamma"] for r in results],
        "results": results,
        "ok": all(r["all_match"] for r in results),
    }


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True, choices=family_names())
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")


def _curvature_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--edge")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=_threads, default=1)
    p.add_argument("--out")


def _match_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--edge", required=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")


def _certify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", required=True, help="n,d,alpha,beta")
    p.add_argument("--sweep-transcript", action="store_true")
    p.add_argument("--out")


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out")


def _spectrum_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", help="n,d,alpha,beta")
    group.add_argument("--graph")
    p.add_argument("--out")


def _sharpness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--threads", type=_threads, default=1)
    p.add_argument("--out")


def _corollary_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _verify_conjecture_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-max", type=int, required=True)
    p.add_argument("--threads", type=_threads, default=1)
    p.add_argument("--out")


# Each command once: name -> (help, adds its arguments, handler).
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None], Callable]] = {
    "gen": ("construct a named graph family member", _gen_args, _cmd_gen),
    "curvature": ("edge curvature(s) of a regular graph", _curvature_args, _cmd_curvature),
    "match": ("local perfect matching across an edge", _match_args, _cmd_match),
    "certify": ("parameter-only sharpness certificate", _certify_args, _cmd_certify),
    "scan": ("enumerate feasible SRG parameters and certify", _scan_args, _cmd_scan),
    "spectrum": ("closed-form or numerical Laplacian spectrum", _spectrum_args, _cmd_spectrum),
    "sharpness": ("min curvature vs lambda2", _sharpness_args, _cmd_sharpness),
    "corollary": ("quadratic-residue pattern verification", _corollary_args, _cmd_corollary),
    "verify-conjecture": (
        "check kappa = 1/2 + 1/(2 gamma) on all Paley graphs up to gamma-max",
        _verify_conjecture_args, _cmd_verify_conjecture,
    ),
}


def _command_parser(name: str, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    _, add_arguments, handler = _COMMANDS[name]
    add_arguments(p)
    p.set_defaults(func=handler)
    return p


def _formatter_class() -> Callable[..., argparse.HelpFormatter]:
    """HelpFormatter at the width it would read itself, read here once.

    argparse builds a formatter for every argument it adds, and each one
    left to itself reads the terminal size; the parsers of one call share
    this one reading instead.
    """
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser(
    formatter_class: Callable[..., argparse.HelpFormatter] | None = None,
) -> argparse.ArgumentParser:
    formatter_class = formatter_class or _formatter_class()
    parser = argparse.ArgumentParser(
        prog="llycurv",
        description="Exact curvature, matching certificates and SRG parameter tools",
        formatter_class=formatter_class,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_text, formatter_class=formatter_class))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named command's parser is built.  The full parser parses
    # again only to print the top-level usage: no or an unknown command, a
    # top-level option, or an argument the command leaves over.  Both
    # parsers share one reading of the terminal width.
    args, extra, formatter_class = None, None, _formatter_class()
    if argv and argv[0] in _COMMANDS:
        command = argparse.ArgumentParser(prog=f"llycurv {argv[0]}", formatter_class=formatter_class)
        parser = _command_parser(argv[0], command)
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or extra:
        args = build_parser(formatter_class).parse_args(argv)
    try:
        doc = args.func(args)
        text = doc if isinstance(doc, str) else json.dumps(
            {"config": _config_of(args), **doc}, sort_keys=True, separators=(",", ":")
        ) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    except LlycurvError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 2
    return 0 if isinstance(doc, str) or doc.get("ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
