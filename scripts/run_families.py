#!/usr/bin/env python3
"""Sweep the graph families: certified bounds next to brute-force truth.

For each instance the table shows the certified eccentricity bound and the
chosen outerface's peel count against the oracle's fse-outerplanarity, so
the slack of the certificate is visible at a glance.  Keep the sizes small:
the oracle column is quadratic-ish.

    python3 scripts/run_families.py
    python3 scripts/run_families.py --gs 3,4 --ks 3,5,7 --json sweep.json
"""

import argparse
import json
import sys

from peelbound.center import Stages, certify
from peelbound.embed import connect_components
from peelbound.gen import gen_lowerbound_H, gen_nested_cycles, gen_prism_grid
from peelbound.oracle import fse_outerplanarity_bruteforce
from peelbound.peels import peel_count_for_outerface


def int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def run_instance(label, graph):
    if not graph.connected:
        graph = connect_components(graph)
    cert = certify(graph)
    realized = peel_count_for_outerface(graph, cert.outerface)
    oracle = Stages()
    fse = fse_outerplanarity_bruteforce(graph).value
    oracle.lap("fse")
    row = {
        "instance": label,
        "n": graph.n,
        "g_effective": cert.g,
        "case": cert.case,
        "peel_bound": cert.peel_bound,
        "realized_peels": realized,
        "fse_bruteforce": fse,
        "certify_seconds": round(sum(cert.stages.values()), 6),
        "oracle_seconds": round(oracle["fse"], 6),
    }
    if not fse <= realized <= cert.peel_bound:
        raise SystemExit(
            f"error: {label}: fse {fse}, realized peels {realized}, peel bound "
            f"{cert.peel_bound} break fse <= realized <= peel bound"
        )
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gs", type=int_list, default=[3, 4, 5], help="girth parameters")
    ap.add_argument("--ks", type=int_list, default=[3, 5, 7], help="ring counts (odd)")
    ap.add_argument("--prisms", type=int_list, default=[1, 2], help="prism parameters")
    ap.add_argument("--json", default=None, help="also write rows to this file")
    args = ap.parse_args(argv)

    rows = []
    for g in args.gs:
        for k in args.ks:
            rows.append(run_instance(f"nested g={g} k={k}", gen_nested_cycles(g, k)))
            if k % 2 == 1 and k >= 3:
                rows.append(run_instance(f"H g={g} k={k}", gen_lowerbound_H(g, k)))
    for k in args.prisms:
        rows.append(run_instance(f"prism k={k}", gen_prism_grid(k)))

    header = f"{'instance':<18}{'n':>5}{'g*':>4}  {'case':<12}{'bound':>6}{'peels':>6}{'fse':>5}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['instance']:<18}{r['n']:>5}{str(r['g_effective']):>4}  "
            f"{r['case']:<12}{r['peel_bound']:>6}{r['realized_peels']:>6}"
            f"{r['fse_bruteforce']:>5}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"\nwrote {len(rows)} rows to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
