#!/usr/bin/env python3
"""Per-stage timing of the decomposition pipeline on doubling sizes.

Generates random triangulations and serializes them (both excluded from the
timing), then times load (parsing the canonical JSON text back) -> root
choice -> layers -> augmentation -> tree -> center separately, reporting
microseconds per vertex and the ratio to the previous size.  A flat ratio
column is the empirical linearity check.  The inputs are connected, so the
CLI's connect stage never runs here.

    python3 scripts/bench_linearity.py --min-exp 13 --max-exp 18
"""

import argparse
import time

from peelbound.center import compute_gstar, find_center
from peelbound.gen import gen_random_triangulation
from peelbound.graphio import dumps_plane_graph, loads_plane_graph
from peelbound.peels import augment, build_tree_of_peels, choose_root, compute_layers


def run_size(n: int, seed: int) -> dict:
    text = dumps_plane_graph(gen_random_triangulation(n, seed))
    stages = {}
    t0 = time.perf_counter()
    graph = loads_plane_graph(text)
    stages["load"] = time.perf_counter() - t0
    del text
    t0 = time.perf_counter()
    root = choose_root(graph)
    stages["root"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ctx = compute_layers(graph, root)
    stages["layers"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    aug = augment(ctx)
    stages["augment"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    tree = build_tree_of_peels(aug)
    stages["tree"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cert = find_center(aug, tree, compute_gstar(tree, n))
    stages["center"] = time.perf_counter() - t0
    total = sum(stages.values())
    return {"n": n, "case": cert.case, "stages": stages, "total": total}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-exp", type=int, default=14)
    ap.add_argument("--max-exp", type=int, default=19)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    names = ("load", "root", "layers", "augment", "tree", "center")
    print(f"{'n':>9}" + "".join(f"{k:>9}" for k in names) + f"{'total':>9}{'us/v':>8}{'ratio':>7}")
    prev = None
    for e in range(args.min_exp, args.max_exp + 1):
        n = 2**e
        row = run_size(n, args.seed + e)
        per_vertex = row["total"] / n
        ratio = "" if prev is None else f"{per_vertex / prev:7.2f}"
        prev = per_vertex
        stages = "".join(f"{row['stages'][k]:>9.3f}" for k in names)
        print(f"{n:>9}{stages}{row['total']:>9.3f}{per_vertex * 1e6:>8.2f}{ratio:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
