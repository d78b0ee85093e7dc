"""Command-line front end.

Machine output is deterministic: exact fractions are serialized as decimal
strings, JSON keys are sorted, and every emission opens with the resolved
run configuration.  Exit status 0 means all assertions passed, 1 means a
mathematical assertion failed (with a machine-readable record), 2 means a
configuration or I/O problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import graphio
from .certify import certify_curvature, scan_parameters
from .errors import LlycurvError
from .families import (
    family_names,
    named_graph,
    paley_automorphisms,
    paley_gamma_orders,
    paley_graph,
)
from .graphs import SrgParams, classify_regularity
from .matching import local_perfect_matching
from .residues import verify_corollary
from .spectral import Eigenvalue, lichnerowicz_report, numerical_lambda2, srg_spectrum
from .transport import _edge_orbits, curvature_spectrum, lly_curvature


def _frac(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _eig(value: Eigenvalue) -> dict[str, int]:
    return {"u": value.u, "v": value.v, "w": value.w, "D": value.disc}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _config_of(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _json_doc(args: argparse.Namespace, payload: dict[str, Any]) -> str:
    doc = {"config": _config_of(args)}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        u, v = (int(part) for part in text.split(","))
    except Exception as exc:
        raise LlycurvError(f"edge must be 'u,v', got {text!r}") from exc
    return u, v


def _parse_params(text: str) -> SrgParams:
    try:
        n, d, a, b = (int(part) for part in text.split(","))
    except Exception as exc:
        raise LlycurvError(f"params must be 'n,d,alpha,beta', got {text!r}") from exc
    return SrgParams(n, d, a, b)


def _cmd_gen(args: argparse.Namespace) -> int:
    params = {}
    for key in ("q", "k", "n", "m"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    g = named_graph(args.name, **params)
    if args.format == "json":
        text = graphio.to_json(g)
    else:
        text = graphio.to_graph6(g) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_curvature(args: argparse.Namespace) -> int:
    g = graphio.load_graph(args.graph)
    if args.edge is not None:
        x, y = _parse_edge(args.edge)
        report = lly_curvature(g, x, y, want_witness=True)
        payload = {
            "edge": [report.x, report.y],
            "kappa": _frac(report.kappa),
            "delta_size": report.delta_size,
            "upper_bound": _frac(report.upper_bound),
            "sharp": report.sharp,
            "witness": [list(pair) for pair in report.witness or ()],
        }
        _emit(_json_doc(args, payload), args.out)
        return 0
    spectrum = curvature_spectrum(g, processes=args.threads)
    if args.format == "csv":
        lines = ["# config: " + json.dumps(_config_of(args), sort_keys=True)]
        lines.append("x,y,kappa_num,kappa_den,delta_size,upper_num,upper_den,sharp")
        for r in spectrum.reports:
            lines.append(
                f"{r.x},{r.y},{r.kappa.numerator},{r.kappa.denominator},"
                f"{r.delta_size},{r.upper_bound.numerator},{r.upper_bound.denominator},"
                f"{int(r.sharp)}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "min_kappa": _frac(spectrum.min_kappa),
            "edges": [
                {
                    "edge": [r.x, r.y],
                    "kappa": _frac(r.kappa),
                    "delta_size": r.delta_size,
                    "upper_bound": _frac(r.upper_bound),
                    "sharp": r.sharp,
                }
                for r in spectrum.reports
            ],
        }
        _emit(_json_doc(args, payload), args.out)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    g = graphio.load_graph(args.graph)
    x, y = _parse_edge(args.edge)
    instance, result = local_perfect_matching(g, x, y)
    payload: dict[str, Any] = {
        "edge": [x, y],
        "left": list(instance.left),
        "right": list(instance.right),
        "perfect": result.perfect,
        "matching_size": len(result.pairs),
    }
    if args.witness:
        payload["pairs"] = [
            [instance.left[li], instance.right[ri]] for li, ri in result.pairs
        ]
    if result.violator is not None:
        payload["violator"] = [instance.left[li] for li in result.violator]
    _emit(_json_doc(args, payload), args.out)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
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
    _emit(_json_doc(args, payload), args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    rows = scan_parameters(args.max_n)
    lines = ["# config: " + json.dumps(_config_of(args), sort_keys=True)]
    lines.append(
        "n,d,alpha,beta,cond1,cond2,cond3,cond4,cond5,hlx,ll,sweep,conference,"
        "kappa_num,kappa_den"
    )
    for row in rows:
        flags = row.conditions.flags()
        kappa = row.certified_kappa
        lines.append(
            ",".join(
                [
                    str(row.params.n),
                    str(row.params.d),
                    str(row.params.alpha),
                    str(row.params.beta),
                ]
                + [str(int(flags[name])) for name in
                   ("cond1", "cond2", "cond3", "cond4", "cond5", "hlx", "ll")]
                + [
                    str(int(row.sweep_sharp)),
                    str(int(row.conference)),
                    str(kappa.numerator) if kappa is not None else "",
                    str(kappa.denominator) if kappa is not None else "",
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.params is not None:
        params = _parse_params(args.params)
        report = srg_spectrum(params)
        payload = {
            "params": list(params.as_tuple()),
            "lambda1": _eig(Eigenvalue(0, 0, 1, 0)),
            "lambda2": _eig(report.lambda2),
            "lambda3": _eig(report.lambda3),
            "multiplicities": [report.m1, report.m2, report.m3],
        }
        _emit(_json_doc(args, payload), args.out)
        return 0
    g = graphio.load_graph(args.graph)
    rc = classify_regularity(g)
    payload = {"n": g.n, "lambda2_numerical": numerical_lambda2(g)}
    if rc.is_strongly_regular and rc.params is not None:
        report = srg_spectrum(rc.params)
        payload["params"] = list(rc.params.as_tuple())
        payload["lambda2"] = _eig(report.lambda2)
        payload["multiplicities"] = [report.m1, report.m2, report.m3]
    _emit(_json_doc(args, payload), args.out)
    return 0


def _cmd_sharpness(args: argparse.Namespace) -> int:
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
    _emit(_json_doc(args, payload), args.out)
    return 0


def _cmd_corollary(args: argparse.Namespace) -> int:
    report = verify_corollary(args.q, mode=args.mode, seed=args.seed, trials=args.trials)
    payload = {
        "q": report.q,
        "pair": list(report.pair),
        "mode": report.mode,
        "subsets_tested": report.subsets_tested,
        "failures": [list(f) for f in report.failures],
        "ok": report.ok,
    }
    _emit(_json_doc(args, payload), args.out)
    return 0 if report.ok else 1


def _cmd_verify_conjecture(args: argparse.Namespace) -> int:
    results = []
    ok = True
    for gamma, q in paley_gamma_orders(args.gamma_max):
        expected = Fraction(1, 2) + Fraction(1, 2 * gamma)
        g = paley_graph(q)
        edges = list(g.edges())
        # One kappa per edge orbit; an orbit's edges are listed only when it is wrong.
        roots = _edge_orbits(g, edges, paley_automorphisms(q))
        kappas = {r: lly_curvature(g, *edges[r]).kappa for r in dict.fromkeys(roots)}
        wrong = {r: _frac(k) for r, k in kappas.items() if k != expected}
        bad = [
            {"edge": list(e), "kappa": wrong[r]} for e, r in zip(edges, roots) if r in wrong
        ] if wrong else []
        ok = ok and not bad
        results.append(
            {
                "gamma": gamma,
                "q": q,
                "edges": len(edges),
                "expected_kappa": _frac(expected),
                "all_match": not bad,
                "mismatches": bad,
            }
        )
    payload = {"gammas": [r["gamma"] for r in results], "results": results, "ok": ok}
    _emit(_json_doc(args, payload), args.out)
    return 0 if ok else 1


def parse_csv(text: str) -> list[dict[str, int | None]]:
    """Read back a scan or curvature CSV emission; an empty field reads as None."""
    rows = []
    header: list[str] | None = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append({k: int(v) if v else None for k, v in zip(header, line.split(","))})
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llycurv",
        description="Exact curvature, matching certificates and SRG parameter tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a named graph family member")
    p.add_argument("--name", required=True, choices=family_names())
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("curvature", help="edge curvature(s) of a regular graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("match", help="local perfect matching across an edge")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge", required=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("certify", help="parameter-only sharpness certificate")
    p.add_argument("--params", required=True, help="n,d,alpha,beta")
    p.add_argument("--sweep-transcript", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="enumerate feasible SRG parameters and certify")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("spectrum", help="closed-form or numerical Laplacian spectrum")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", help="n,d,alpha,beta")
    group.add_argument("--graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sharpness", help="min curvature vs lambda2")
    p.add_argument("--graph", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("corollary", help="quadratic-residue pattern verification")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_corollary)

    p = sub.add_parser(
        "verify-conjecture",
        help="check kappa = 1/2 + 1/(2 gamma) on all Paley graphs up to gamma-max",
    )
    p.add_argument("--gamma-max", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LlycurvError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
