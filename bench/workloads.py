"""The four benchmark workloads: inputs, commands and correctness checks.

Each workload has a batch part (the long command(s) a researcher waits on)
and a query stream cycled in the pattern A, B, B.  Two command kinds of
different cost, mixed 1:1, would put the median between two clusters of
latencies, where it jumps from run to run; at 1:2 the median falls inside
the B cluster and p90 inside the A cluster.

Inputs come from the benchmark's seed and from `gen`, never from llycurv.
The checks run outside the timed region and use only `gen`, the standard
library and numpy, except the flow-route cross-check of rrg-fallback,
which calls llycurv's min-cost-flow route on a graph built from the
benchmark's own adjacency.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any

import gen

Argv = tuple[str, ...]

# sha256 of the stdout bytes of the fixed-input commands at the commit that
# introduced the benchmark.  ROADMAP asks every output to stay
# byte-identical; a change that alters one of these fails the run.
REFERENCE_SHA256 = {
    "verify-conjecture --gamma-max 16 --threads 1": (
        "de9c520fcc235b12b354755f75d90f2ca89237390d8c0a91f83dc8a5bfb6ae35"
    ),
    "scan --max-n 400": (
        "e0feb3f5087600c5c2a9975aa381a01159d1cf98339eab78354424490e67b6eb"
    ),
    "corollary --q 17 --mode exhaustive": (
        "3081b9d6c0e2a01f4aebd82fd8f062103904def6fae6f9c0f52eafb055733728"
    ),
    "corollary --q 13 --mode exhaustive": (
        "82026c7c5afccd4f9e24f71952911bc5072bd6fb75ca26851bd0a3ee352ca5fb"
    ),
}


def frac(value: dict[str, str]) -> Fraction:
    return Fraction(int(value["num"]), int(value["den"]))


def graph_inputs(adj: list[set[int]], path: Path, rng: random.Random, k: int) -> dict[str, Any]:
    """Write adj as graph6 to path and draw k distinct edges, each in a seeded orientation."""
    path.write_text(gen.graph6(adj) + "\n")
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(gen.edge_list(adj), k)]
    return {"adj": adj, "path": str(path), "edges": edges}


def graph_queries(inp: dict[str, Any]) -> list[Argv]:
    """Per sampled edge: A the curvature witness, B the local matching with its witness."""
    cycle = []
    for x, y in inp["edges"]:
        edge = ("--graph", inp["path"], "--edge", f"{x},{y}")
        match = ("match", *edge, "--witness")
        cycle += [("curvature", *edge), match, match]
    return cycle


class Workload:
    name = ""
    why = ""

    def generate(self, seed: int, workdir: Path) -> dict[str, Any]:
        """Make and write the inputs; the same seed gives the same inputs."""
        raise NotImplementedError

    def batch(self, inp: dict[str, Any]) -> list[Argv]:
        raise NotImplementedError

    def queries(self, inp: dict[str, Any]) -> list[Argv]:
        """One cycle of the query stream."""
        raise NotImplementedError

    def check_batch(self, inp: dict[str, Any], argv: Argv, text: str) -> list[str]:
        return []

    def check_queries(
        self, inp: dict[str, Any], texts: dict[Argv, str], batch_texts: dict[Argv, str]
    ) -> dict[Argv, list[str]]:
        """Problems per distinct query command (only commands with problems)."""
        return {}

    def field_orders(self, inp: dict[str, Any]) -> list[int]:
        """The GF(q) orders the workload uses (for the fields probe)."""
        return []

    def probe_graphs(self, inp: dict[str, Any]) -> list[Any]:
        """llycurv graphs whose edges the matching probe samples."""
        return []


def witness_problems(adj: list[set[int]], x: int, y: int, doc: dict[str, Any]) -> list[str]:
    """The witness is a bijection N_x -> N_y whose capped-distance cost is d+1-kappa*d."""
    d = len(adj[x])
    common, nx, ny = gen.local_sides(adj, x, y)
    kappa = frac(doc["kappa"])
    upper = Fraction(2 + len(common), d)
    pairs = [tuple(pair) for pair in doc["witness"]]
    problems = []
    if doc["edge"] != [x, y]:
        problems.append(f"edge echo {doc['edge']} != {[x, y]}")
    if [a for a, _ in pairs] != nx or sorted(b for _, b in pairs) != ny:
        problems.append("witness is not a bijection N_x -> N_y in N_x order")
    cost = sum(gen.capped_distance(adj, a, b) for a, b in pairs)
    if cost != d + 1 - kappa * d:
        problems.append(f"witness cost {cost} != d+1-kappa*d = {d + 1 - kappa * d}")
    if doc["delta_size"] != len(common) or frac(doc["upper_bound"]) != upper:
        problems.append("delta_size or upper_bound disagrees with the adjacency")
    if doc["sharp"] != (kappa == upper):
        problems.append("sharp flag disagrees with kappa == upper_bound")
    return problems


def match_problems(adj: list[set[int]], x: int, y: int, doc: dict[str, Any]) -> list[str]:
    """The pairs are a matching of N_x-N_y edges; a deficient one carries a Hall violator
    S with |N(S)| < |S| that certifies the matching is maximum."""
    _, nx, ny = gen.local_sides(adj, x, y)
    pairs = [tuple(pair) for pair in doc["pairs"]]
    problems = []
    if doc["left"] != nx or doc["right"] != ny:
        problems.append("left/right are not N_x/N_y")
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    if (
        len(set(lefts)) != len(pairs)
        or len(set(rights)) != len(pairs)
        or not set(lefts) <= set(nx)
        or not set(rights) <= set(ny)
        or any(b not in adj[a] for a, b in pairs)
    ):
        problems.append("pairs are not a matching of N_x-N_y edges")
    if doc["matching_size"] != len(pairs) or doc["perfect"] != (len(pairs) == len(nx)):
        problems.append("matching_size or perfect disagrees with the pairs")
    if doc["perfect"]:
        if "violator" in doc:
            problems.append("perfect matching reported with a violator")
        return problems
    violator = doc.get("violator") or []
    hood = set().union(*(adj[a] for a in violator)) & set(ny) if violator else set()
    if not set(violator) <= set(nx) or len(hood) >= len(violator):
        problems.append(f"violator of size {len(violator)} has {len(hood)} neighbours")
    elif len(pairs) != len(nx) - (len(violator) - len(hood)):
        problems.append("violator deficiency does not certify the matching is maximum")
    return problems


class PaleySharp(Workload):
    name = "paley-sharp"
    why = (
        "every Paley edge has a perfect local matching, so matching decides it; "
        "assignment dominates today, and GF(9), GF(25), GF(49) exercise fields"
    )
    GAMMA_MAX = 16
    Q = 89
    EDGES = 12

    def gammas(self) -> list[int]:
        return [g for g in range(2, self.GAMMA_MAX + 1) if gen.is_prime_power(4 * g + 1)]

    def generate(self, seed, workdir):
        adj = gen.paley_prime_adjacency(self.Q)
        rng = random.Random(f"{self.name}:{seed}")
        return graph_inputs(adj, workdir / f"paley{self.Q}.g6", rng, self.EDGES)

    def batch(self, inp):
        return [("verify-conjecture", "--gamma-max", str(self.GAMMA_MAX), "--threads", "1")]

    def queries(self, inp):
        return graph_queries(inp)

    def check_batch(self, inp, argv, text):
        doc = json.loads(text)
        gammas = self.gammas()
        problems = []
        if doc["ok"] is not True or doc["gammas"] != gammas or len(doc["results"]) != len(gammas):
            return [f"ok={doc['ok']}, gammas={doc['gammas']}, expected {gammas}"]
        for result, gamma in zip(doc["results"], gammas):
            q = 4 * gamma + 1
            if (
                result["q"] != q
                or result["edges"] != q * (q - 1) // 4
                or frac(result["expected_kappa"]) != Fraction(1, 2) + Fraction(1, 2 * gamma)
                or result["all_match"] is not True
                or result["mismatches"]
            ):
                problems.append(f"paley({q}) result disagrees: {result}")
        return problems

    def check_queries(self, inp, texts, batch_texts):
        adj = inp["adj"]
        kappa = Fraction(1, 2) + Fraction(1, 2 * ((self.Q - 1) // 4))
        out = {}
        for argv, text in texts.items():
            doc = json.loads(text)
            x, y = (int(v) for v in argv[4].split(","))
            if argv[0] == "curvature":
                problems = witness_problems(adj, x, y, doc)
                if frac(doc["kappa"]) != kappa:
                    problems.append(f"kappa {frac(doc['kappa'])} != 1/2 + 1/(2 gamma) = {kappa}")
            else:
                problems = match_problems(adj, x, y, doc)
                if not doc["perfect"]:
                    problems.append("a Paley edge without a perfect local matching")
            if problems:
                out[argv] = problems
        return out

    def field_orders(self, inp):
        return [4 * g + 1 for g in self.gammas()] + [self.Q]

    def probe_graphs(self, inp):
        from llycurv.families import paley_graph

        return [paley_graph(q) for q in self.field_orders(inp)]


class RrgFallback(Workload):
    name = "rrg-fallback"
    why = (
        "no edge of a sparse random regular graph has a perfect local matching, so "
        "every edge falls back to assignment; the matching-first bypass case"
    )
    N = 200
    D = 20
    EDGES = 16
    FLOW_CHECKED = 6  # edges also checked against the min-cost-flow route

    def generate(self, seed, workdir):
        adj = gen.circulant_swap_regular(self.N, self.D, seed=str(seed))
        rng = random.Random(f"{self.name}:{seed}")
        return graph_inputs(adj, workdir / f"rrg-{self.N}-{self.D}.g6", rng, self.EDGES)

    def batch(self, inp):
        return [("sharpness", "--graph", inp["path"], "--threads", "1")]

    def queries(self, inp):
        return graph_queries(inp)

    def lambda2(self, adj: list[set[int]]) -> float:
        import numpy as np

        a = np.zeros((len(adj), len(adj)))
        for u, row in enumerate(adj):
            a[u, list(row)] = 1.0
        return float(np.linalg.eigvalsh(np.eye(len(adj)) - a / self.D)[1])

    def check_batch(self, inp, argv, text):
        doc = json.loads(text)
        lam = self.lambda2(inp["adj"])
        problems = []
        if abs(doc["lambda2_numerical"] - lam) > 1e-9:
            problems.append(f"lambda2 {doc['lambda2_numerical']} != numpy {lam}")
        if float(frac(doc["min_kappa"])) < lam - 1e-3 and doc["sharp"] is not False:
            problems.append("sharp reported although min kappa is far below lambda2")
        return problems

    def check_queries(self, inp, texts, batch_texts):
        from llycurv.graphs import Graph
        from llycurv.transport import ollivier_kappa_p

        adj, d = inp["adj"], self.D
        graph = Graph(len(adj), gen.edge_list(adj))
        (batch_text,) = batch_texts.values()
        min_kappa = frac(json.loads(batch_text)["min_kappa"])
        flow_checked = {tuple(e) for e in inp["edges"][: self.FLOW_CHECKED]}
        curv = {}
        for argv, text in texts.items():
            if argv[0] == "curvature":
                curv[argv[4]] = json.loads(text)
        out = {}
        for argv, text in texts.items():
            doc = json.loads(text)
            x, y = (int(v) for v in argv[4].split(","))
            if argv[0] == "curvature":
                problems = witness_problems(adj, x, y, doc)
                kappa = frac(doc["kappa"])
                if kappa < min_kappa:
                    problems.append(f"kappa {kappa} below the batch's min_kappa {min_kappa}")
                if (x, y) in flow_checked:
                    flow = Fraction(d + 1, d) * ollivier_kappa_p(graph, x, y, Fraction(1, d + 1))
                    if flow != kappa:
                        problems.append(f"kappa {kappa} != flow route {flow}")
            else:
                problems = match_problems(adj, x, y, doc)
                c = curv.get(argv[4])
                if c is not None and doc["perfect"] != (frac(c["kappa"]) == frac(c["upper_bound"])):
                    problems.append("perfect matching disagrees with kappa == upper bound")
            if problems:
                out[argv] = problems
        return out

    def probe_graphs(self, inp):
        from llycurv.graphs import Graph

        return [Graph(len(inp["adj"]), gen.edge_list(inp["adj"]))]


def parse_scan_csv(text: str) -> dict[tuple[int, ...], dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows[tuple(int(row[k]) for k in ("n", "d", "alpha", "beta"))] = row
    return rows


CONDITIONS = ("cond1", "cond2", "cond3", "cond4", "cond5", "hlx", "ll")


def in_sqrt_field(u: int, v: int, w: int, disc: int) -> tuple[Fraction, Fraction]:
    """(u + v sqrt(disc))/w as (rational part, sqrt(disc) part); sqrt part 0 when rational."""
    root = isqrt(disc)
    if root * root == disc:
        return Fraction(u + v * root, w), Fraction(0)
    return Fraction(u, w), Fraction(v, w)


class ParamScan(Workload):
    name = "param-scan"
    why = (
        "no graph at all: pure certify and spectral integer/Fraction work plus CSV "
        "emission, a path the graph workloads bypass"
    )
    MAX_N = 400
    TUPLES = 24
    PUBLISHED = (324, 152, 70, 72)  # certifies kappa = 9/19

    def generate(self, seed, workdir):
        rows = gen.srg_feasible_tuples(self.MAX_N)
        rng = random.Random(f"{self.name}:{seed}")
        return {"rows": rows, "sample": rng.sample(rows, self.TUPLES)}

    def batch(self, inp):
        return [("scan", "--max-n", str(self.MAX_N))]

    def queries(self, inp):
        cycle = []
        for params in inp["sample"]:
            text = ",".join(map(str, params))
            spectrum = ("spectrum", "--params", text)
            cycle += [("certify", "--params", text, "--sweep-transcript"), spectrum, spectrum]
        return cycle

    def check_batch(self, inp, argv, text):
        rows = parse_scan_csv(text)
        problems = []
        if set(rows) != set(inp["rows"]):
            problems.append(
                f"scan rows differ from the feasible tuples: {len(rows)} vs {len(inp['rows'])}"
            )
        published = rows.get(self.PUBLISHED, {})
        if (published.get("kappa_num"), published.get("kappa_den")) != ("9", "19"):
            problems.append(f"{self.PUBLISHED} does not certify kappa = 9/19: {published}")
        for (n, d, a, b), row in rows.items():
            sharp = any(row[c] == "1" for c in CONDITIONS) or row["sweep"] == "1"
            kappa = (row["kappa_num"], row["kappa_den"])
            expected = Fraction(2 + a, d)
            expected_kappa = (str(expected.numerator), str(expected.denominator)) if sharp else ("", "")
            g, r = divmod(n - 1, 4)
            conference = r == 0 and g >= 1 and (d, a, b) == (2 * g, g - 1, g)
            if kappa != expected_kappa:
                problems.append(f"row {(n, d, a, b)} kappa {kappa} disagrees with its flags")
            if row["conference"] != str(int(conference)):
                problems.append(f"row {(n, d, a, b)} conference flag is wrong")
        return problems

    def check_queries(self, inp, texts, batch_texts):
        (batch_text,) = batch_texts.values()
        rows = parse_scan_csv(batch_text)
        out = {}
        for argv, text in texts.items():
            doc = json.loads(text)
            params = tuple(int(v) for v in argv[2].split(","))
            check = self.certify_problems if argv[0] == "certify" else self.spectrum_problems
            problems = check(params, doc, rows.get(params))
            if problems:
                out[argv] = problems
        return out

    @staticmethod
    def certify_problems(params, doc, row):
        if row is None:
            return ["queried tuple has no scan row"]
        problems = []
        flagged = [c for c in CONDITIONS if row[c] == "1"]
        expected_outcome = (
            "sharp_by_condition" if flagged else "sharp_by_sweep" if row["sweep"] == "1" else "inconclusive"
        )
        if doc["outcome"] != expected_outcome or doc.get("condition") != (flagged[0] if flagged else None):
            problems.append(f"certify says {doc['outcome']}/{doc.get('condition')}, scan row says {expected_outcome}")
        kappa = doc.get("kappa", {"num": "", "den": ""})
        if (kappa["num"], kappa["den"]) != (row["kappa_num"], row["kappa_den"]):
            problems.append("certified kappa disagrees with the scan row")
        for line in doc.get("sweep", []):
            a2, a1, a0, disc = (Fraction(line[k]) for k in ("a2", "a1", "a0", "discriminant"))
            if disc != a1 * a1 - 4 * a2 * a0 or line["feasible"] != (disc >= 0):
                problems.append(f"sweep line b={line['b']} is inconsistent")
        return problems

    @staticmethod
    def spectrum_problems(params, doc, row):
        """Trace identities of L = I - A/d: sum of eigenvalues = n, of squares = n + n/d."""
        n, d, _, _ = params
        m1, m2, m3 = doc["multiplicities"]
        lam2 = in_sqrt_field(*(doc["lambda2"][k] for k in ("u", "v", "w", "D")))
        lam3 = in_sqrt_field(*(doc["lambda3"][k] for k in ("u", "v", "w", "D")))
        disc = Fraction(doc["lambda2"]["D"])

        def square(x):
            return (x[0] * x[0] + x[1] * x[1] * disc, 2 * x[0] * x[1])

        trace = tuple(m2 * p + m3 * q for p, q in zip(lam2, lam3))
        trace_sq = tuple(m2 * p + m3 * q for p, q in zip(square(lam2), square(lam3)))
        if m1 != 1 or m1 + m2 + m3 != n or trace != (n, 0) or trace_sq != (n + Fraction(n, d), 0):
            return [f"spectrum of {params} fails the trace identities"]
        return []


class ResidueSample(Workload):
    name = "residue-sample"
    why = (
        "the quadratic-residue kernel and FieldElement arithmetic: seeded sampling "
        "in GF(25) and GF(37), colex enumeration in GF(13) and GF(17)"
    )
    SAMPLED = (25, 37)
    TRIALS = 3000
    EXHAUSTIVE = {17: 576, 13: 67}  # q -> number of qualifying subsets

    def generate(self, seed, workdir):
        return {"seed": seed}

    def batch(self, inp):
        return [
            ("corollary", "--q", str(q), "--mode", "sampled", "--seed", str(inp["seed"]), "--trials", str(self.TRIALS))
            for q in self.SAMPLED
        ]

    def queries(self, inp):
        a, b = (("corollary", "--q", str(q), "--mode", "exhaustive") for q in self.EXHAUSTIVE)
        return [a, b, b]

    def check_batch(self, inp, argv, text):
        doc = json.loads(text)
        if (doc["q"], doc["mode"], doc["subsets_tested"], doc["failures"], doc["ok"]) != (
            int(argv[2]), "sampled", self.TRIALS, [], True,
        ):
            return [f"sampled corollary q={argv[2]}: {doc}"]
        return []

    def check_queries(self, inp, texts, batch_texts):
        out = {}
        for argv, text in texts.items():
            doc = json.loads(text)
            q = int(argv[2])
            if (doc["q"], doc["subsets_tested"], doc["failures"], doc["ok"]) != (q, self.EXHAUSTIVE[q], [], True):
                out[argv] = [f"exhaustive corollary q={q}: {doc}"]
        return out

    def field_orders(self, inp):
        return list(self.SAMPLED) + list(self.EXHAUSTIVE)


WORKLOADS = {w.name: w for w in (PaleySharp(), RrgFallback(), ParamScan(), ResidueSample())}
