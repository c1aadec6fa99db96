"""Command-line surface: generate families, pick centers, run oracles, verify, bench.

Machine-readable output is one JSON record per line on stdout; human-readable
summaries go to stderr so the two streams can be consumed independently.
Exit codes: 0 ok, 1 malformed input or bad parameters, 2 infeasible girth
parameter, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
from typing import Optional

from .center import CenterCertificate, GTooBigError, Stages, certify
from .embed import GraphFormatError, PlaneGraph, connect_components
from .gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)
from .graphio import dump_plane_graph, dumps_plane_graph, load_plane_graph, loads_plane_graph
from .oracle import all_eccentricities, full_oracle_report, verify_certificate

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

FAMILIES = ("nested", "lowerbound-h", "prism", "random")

# Exact-oracle annotation checks are quadratic-ish; stay at desk scale.
ANNOTATION_ORACLE_LIMIT = 2000


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _load_graph(path: str) -> PlaneGraph:
    try:
        if path == "-":
            return load_plane_graph(sys.stdin)
        return load_plane_graph(path)
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        _say(f"error: cannot read graph from {path}: {exc}")
        raise SystemExit(EXIT_INPUT)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _build_family(family: str, args: argparse.Namespace) -> PlaneGraph:
    if family == "nested":
        if args.g is None or args.k is None:
            raise ValueError("nested requires --g and --k")
        return gen_nested_cycles(args.g, args.k)
    if family == "lowerbound-h":
        if args.g is None or args.k is None:
            raise ValueError("lowerbound-h requires --g and --k")
        return gen_lowerbound_H(args.g, args.k)
    if family == "prism":
        if args.k is None:
            raise ValueError("prism requires --k")
        return gen_prism_grid(args.k)
    if family == "random":
        if args.n is None:
            raise ValueError("random requires --n")
        return gen_random_triangulation(args.n, args.seed)
    raise ValueError(f"unknown family {family!r}")


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        g = _build_family(args.family, args)
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    dump_plane_graph(g, args.out or sys.stdout)
    if args.out:
        _emit(
            {
                "command": "generate",
                "family": args.family,
                "n": g.n,
                "m": g.m,
                "out": args.out,
            }
        )
    _say(f"generate {args.family}: n={g.n} m={g.m} -> {args.out or 'stdout'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# center
# ---------------------------------------------------------------------------


def cmd_center(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if not g.connected:
        g = connect_components(g)
    gval: Optional[int] = None
    if args.g != "auto":
        try:
            gval = int(args.g)
        except ValueError:
            _say(f"error: --g must be 'auto' or an integer, got {args.g!r}")
            return EXIT_INPUT
    try:
        cert = certify(g, g=gval, method=args.mode)
    except GTooBigError as exc:
        _say(f"error: girth parameter infeasible for this graph: {exc}")
        return EXIT_INFEASIBLE
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(cert.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(
        {
            "command": "center",
            "input": args.graph,
            "mode": args.mode,
            "n": g.n,
            "m": g.m,
            "certificate": cert.to_dict(),
            "peel_bound": int(cert.peel_bound),
            "seconds": round(sum(cert.stages.values()), 6),
        }
    )
    _say(
        f"center {cert.center} (case {cert.case}, g={cert.g}): "
        f"eccentricity <= {cert.bound}, peels from face {cert.outerface} <= {cert.peel_bound}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = full_oracle_report(g)
    record = {"command": "oracle", "input": args.graph}
    record.update(report.to_dict())
    _emit(record)
    fence = "skipped" if report.fence_girth_skipped else report.fence_girth
    _say(
        f"oracle: n={report.n} fse={report.fse_outerplanarity} "
        f"(best outerface {report.best_outerface}), rad={report.radius} "
        f"diam={report.diameter}, fence-girth={fence}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _annotation_checks(g: PlaneGraph, cert: dict) -> list[tuple[str, bool, str]]:
    """Cross-check certificate claims against the bounds the generator
    promised in the graph metadata.  An annotation that is present but not
    an integer (a float, a string, a bool) raises ValueError."""
    meta = g.meta or {}
    for key in ("fse_at_least", "diam_at_most", "rad_at_least"):
        value = meta.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"meta annotation {key!r} must be an integer, got {value!r}")
    checks: list[tuple[str, bool, str]] = []
    if "fse_at_least" in meta and cert.get("bound") is not None:
        floor = meta["fse_at_least"]
        peel_bound = cert["bound"] + 1
        checks.append(
            (
                "family-fse-floor",
                peel_bound >= floor,
                f"certified peel bound {peel_bound} vs family minimum {floor}",
            )
        )
    if g.n <= ANNOTATION_ORACLE_LIMIT and g.connected and (
        "diam_at_most" in meta or "rad_at_least" in meta
    ):
        eccs = all_eccentricities(g)
        if "diam_at_most" in meta:
            diam = max(eccs)
            checks.append(
                (
                    "family-diameter",
                    diam <= meta["diam_at_most"],
                    f"diameter {diam} vs promised <= {meta['diam_at_most']}",
                )
            )
        if "rad_at_least" in meta:
            rad = min(eccs)
            checks.append(
                (
                    "family-radius",
                    rad >= meta["rad_at_least"],
                    f"radius {rad} vs promised >= {meta['rad_at_least']}",
                )
            )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    try:
        with open(args.cert, encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _say(f"error: cannot read certificate from {args.cert}: {exc}")
        return EXIT_INPUT
    if not isinstance(cert, dict):
        _say("error: certificate file must hold a JSON object")
        return EXIT_INPUT
    try:
        checks = list(verify_certificate(cert, g).checks) + _annotation_checks(g, cert)
    except ValueError as exc:  # a field or annotation that is not an integer, or a bad graph
        _say(f"error: {exc}")
        return EXIT_INPUT
    ok = all(passed for _, passed, _ in checks)
    _emit(
        {
            "command": "verify",
            "input": args.graph,
            "certificate": args.cert,
            "ok": ok,
            "checks": [
                {"name": name, "ok": passed, "detail": detail}
                for name, passed, detail in checks
            ],
        }
    )
    for name, passed, detail in checks:
        _say(f"  [{'pass' if passed else 'FAIL'}] {name}: {detail}")
    _say("verify: OK" if ok else "verify: FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_sizes(raw: Optional[str], flag: str) -> list[int]:
    if not raw:
        raise ValueError(f"bench requires {flag} with a comma-separated size list")
    try:
        sizes = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad size list {raw!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad size list {raw!r}")
    return sizes


BENCH_RUNS = 3
"""Runs per size of ``peelbound bench``; each stage reports its median."""


def _check_writable(path: str) -> None:
    """Raise OSError now if path cannot be written; leave no trace either way.

    An existing file is opened for writing without truncation; a missing
    one is created and removed again.
    """
    try:
        os.close(os.open(path, os.O_WRONLY))
    except FileNotFoundError:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.remove(path)


def _bench_run(data: bytes) -> tuple[Stages, float, CenterCertificate, bool]:
    """One pass over a size: (stage seconds, verify seconds, certificate, verified).

    ``data`` is the file's bytes, so the load takes the route of a path.
    """
    stages = Stages()
    graph = loads_plane_graph(data)
    stages.lap("load")
    if not graph.connected:
        graph = connect_components(graph)
    stages.lap("connect")
    cert = certify(graph)
    stages.update(cert.stages)
    # verify reads a fresh copy, so it builds its own view like `peelbound verify`
    fresh = loads_plane_graph(data)
    verify = Stages()
    report = verify_certificate(cert.to_dict(), fresh)
    verify.lap("verify")
    return stages, verify["verify"], cert, report.ok


def cmd_bench(args: argparse.Namespace) -> int:
    key = "n" if args.family == "random" else "k"
    try:
        sizes = _parse_sizes(getattr(args, key), f"--{key}")
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    rows = []
    if args.out:
        _check_writable(args.out)  # before any size is generated
    if args.out and args.append:
        try:
            with open(args.out, encoding="utf-8") as fh:
                rows = json.load(fh)
        except FileNotFoundError:
            pass
        except ValueError:  # not JSON, or not text
            rows = None
        if not isinstance(rows, list):
            _say(f"error: --append needs {args.out} to hold a JSON list of rows")
            return EXIT_INPUT
    prev: Optional[float] = None
    for size in sizes:
        try:
            data = dumps_plane_graph(
                _build_family(args.family, argparse.Namespace(**{**vars(args), key: size}))
            ).encode()
        except ValueError as exc:
            _say(f"error: {exc}")
            return EXIT_INPUT
        runs = []
        for _ in range(BENCH_RUNS):
            stages, verify_s, cert, ok = _bench_run(data)
            if not ok:
                _say(f"error: bench {args.family} {size}: the certificate failed verification")
                return EXIT_VERIFY
            runs.append((stages, verify_s))
        stage_s = {
            name: round(statistics.median(st[name] for st, _ in runs), 6) for name in runs[0][0]
        }
        seconds = round(sum(stage_s.values()), 6)
        per_vertex = seconds / cert.n
        ratio = None if prev is None else per_vertex / prev
        prev = per_vertex
        row = {
            "command": "bench",
            "family": args.family,
            "param": size,
            "n": cert.n,
            "bound": int(cert.bound),
            "case": cert.case,
            "stages": stage_s,
            "seconds": seconds,
            "verify": round(statistics.median(v for _, v in runs), 6),
            "per_vertex": round(per_vertex, 9),
            "ratio": None if ratio is None else round(ratio, 3),
        }
        rows.append(row)
        _emit(row)
        _say(
            f"bench {args.family} {size}: n={cert.n} {seconds:.3f}s "
            f"({per_vertex * 1e6:.2f} us/vertex"
            + (f", ratio {ratio:.2f})" if ratio is not None else ")")
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line, like every other input error."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs about a millisecond,
    and ``parse_args`` makes a fresh namespace on every call."""
    parser = _Parser(
        prog="peelbound",
        description="Peel decompositions and certified outerface choices for plane graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="construct a named graph family")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("--g", type=int, default=None, help="girth parameter")
    p_gen.add_argument("--k", type=int, default=None, help="ring / grid parameter")
    p_gen.add_argument("--n", type=int, default=None, help="vertex count (random)")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed (random)")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_center = sub.add_parser("center", help="pick a center and certify its bound")
    p_center.add_argument("graph", help="graph file ('-' for stdin)")
    p_center.add_argument(
        "--g", default="auto", help="girth parameter, or 'auto' (default); girth mode only"
    )
    p_center.add_argument(
        "--mode", choices=("girth", "diameter"), default="girth", help="bound flavor"
    )
    p_center.add_argument("--out", default=None, help="write certificate JSON here")
    p_center.set_defaults(func=cmd_center)

    p_oracle = sub.add_parser("oracle", help="run the brute-force ground truth")
    p_oracle.add_argument("graph", help="graph file ('-' for stdin)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="recheck a certificate against a graph")
    p_verify.add_argument("graph", help="graph file ('-' for stdin)")
    p_verify.add_argument("cert", help="certificate JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the pipeline across doubling sizes")
    p_bench.add_argument("family", choices=("random", "prism", "nested", "lowerbound-h"))
    p_bench.add_argument("--n", default=None, help="comma list of sizes (random)")
    p_bench.add_argument("--k", default=None, help="comma list of parameters")
    p_bench.add_argument(
        "--g", type=int, default=3, help="girth parameter for nested and lowerbound-h (default 3)"
    )
    p_bench.add_argument("--seed", type=int, default=1, help="RNG seed (random)")
    p_bench.add_argument("--out", default=None, help="write rows as JSON here")
    p_bench.add_argument(
        "--append", action="store_true", help="add the rows after those already in --out"
    )
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors, which would collide
        # with our "infeasible parameter" class; usage problems are input
        # errors here.
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return EXIT_INPUT if code == 2 else code
    try:
        return args.func(args)
    except SystemExit as exc:  # _load_graph signals input errors this way
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return code
    except (GraphFormatError, OSError) as exc:  # OSError: an --out path that cannot be written
        _say(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
