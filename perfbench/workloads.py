"""The benchmark's workloads: which graphs each one generates from its seed.

Every input file goes through ``center`` and ``verify``; the small files
marked ``oracle`` also go through ``oracle``.  Each workload holds a few
large graphs, which stress the pipeline's layers, and desk-size graphs of
the same families, on which the exact oracles run.

Sizes are fixed per workload so that runs on different seeds cost the same;
the seed picks the random triangulations and changes nothing else.

Run as ``python3 perfbench/workloads.py REQUEST.json`` (by ``run.py``), it
writes the input files and times their set-up.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

from peelbound.graphio import dump_plane_graph
from peelbound.gen import (
    gen_lowerbound_H,
    gen_nested_cycles,
    gen_prism_grid,
    gen_random_triangulation,
)


@dataclass(frozen=True)
class InputSpec:
    family: str  # random | prism | lowerbound-h | nested
    params: tuple[int, ...]  # (n, seed) | (k,) | (g, k) | (g, k)
    oracle: bool = False

    @property
    def name(self) -> str:
        return "-".join([self.family, *map(str, self.params)])

    def build(self):
        if self.family == "random":
            return gen_random_triangulation(*self.params)
        if self.family == "prism":
            return gen_prism_grid(*self.params)
        if self.family == "lowerbound-h":
            return gen_lowerbound_H(*self.params)
        if self.family == "nested":
            return gen_nested_cycles(*self.params)
        raise ValueError(f"unknown family {self.family!r}")


def interleave(big: list[InputSpec], small: list[InputSpec]) -> list[InputSpec]:
    """Deal the small oracle files out between the large ones, so that the
    oracle is sampled across the whole run.  The largest file comes first:
    the worker warms up and records stage memory on it."""
    out: list[InputSpec] = []
    for i, spec in enumerate(big):
        out += [spec, *small[i :: len(big)]]
    return out


def _tri_large(seed: int, smoke: bool) -> list[InputSpec]:
    # Shallow triangulations: time goes to parse, root choice and augment,
    # where every added edge is parallel to an existing one.  The small
    # triangulations through the oracle make thousands of per-face
    # radial_bfs calls, where a fixed per-call cost shows.
    base = 1000 * seed
    if smoke:
        big = [InputSpec("random", (2**10, base + i)) for i in (1, 2)]
        small = [("random", (20, base + 3)), ("prism", (1,))]
    else:
        big = [InputSpec("random", (2**15, base + i)) for i in (1, 2)]
        small = [
            ("random", (300, base + 3)),
            ("random", (200, base + 4)),
            ("prism", (2,)),
            ("random", (100, base + 5)),
            ("prism", (3,)),
            ("random", (40, base + 6)),
        ]
    return interleave(big, [InputSpec(family, params, oracle=True) for family, params in small])


def _rings(seed: int, smoke: bool) -> list[InputSpec]:
    # Lowerbound-H: depth ~ k, so many BFS rounds in compute_layers, and
    # augment adds real chords.  Disconnected nested cycles: the only input
    # through connect_components.  Both families are deterministic, so the
    # seed does not change them.
    if smoke:
        big = [("lowerbound-h", (4, 101)), ("nested", (16, 11)), ("lowerbound-h", (9, 21)), ("nested", (8, 15))]
        small = [("lowerbound-h", (4, 7)), ("nested", (4, 5)), ("lowerbound-h", (9, 5)), ("nested", (6, 5))]
    else:
        big = [("lowerbound-h", (4, 6001)), ("nested", (16, 99)), ("lowerbound-h", (9, 2001)), ("nested", (8, 149))]
        small = [
            ("lowerbound-h", (4, 51)),
            ("nested", (4, 51)),
            ("lowerbound-h", (9, 41)),
            ("nested", (6, 41)),
            ("lowerbound-h", (3, 9)),
            ("nested", (3, 21)),
            ("lowerbound-h", (5, 9)),
            ("nested", (4, 11)),
            ("lowerbound-h", (4, 7)),
            ("nested", (6, 9)),
            ("lowerbound-h", (9, 5)),
        ]
    return interleave(
        [InputSpec(family, params) for family, params in big],
        [InputSpec(family, params, oracle=True) for family, params in small],
    )


WORKLOADS = {
    "tri-large": _tri_large,
    "rings": _rings,
}


def inputs(workload: str, seed: int, smoke: bool = False) -> list[InputSpec]:
    specs = WORKLOADS[workload](seed, smoke)
    if len({s.name for s in specs}) != len(specs):
        raise ValueError(f"{workload} lists an input twice")
    return specs


# Set-up repeats at least SETUP_REPS times and until SETUP_MIN_S have passed
# (at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_REPS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPS = 15


def setup(workload: str, seed: int, smoke: bool, work: str) -> dict:
    """Generate and write the input files several times; median seconds."""
    specs = inputs(workload, seed, smoke)
    times: list[float] = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        files = []
        t0 = time.perf_counter()
        for spec in specs:
            g = spec.build()
            path = os.path.join(work, f"{spec.name}.json")
            dump_plane_graph(g, path)
            files.append(
                {
                    "name": spec.name,
                    "path": path,
                    "cert": os.path.join(work, f"{spec.name}.cert.json"),
                    "oracle": spec.oracle,
                    "fse_floor": g.meta.get("fse_at_least"),
                    "n": g.n,
                    "m": g.m,
                }
            )
        times.append(time.perf_counter() - t0)
    for f in files:
        f["bytes"] = os.path.getsize(f["path"])
    return {"files": files, "setup_s": statistics.median(times), "reps": len(times)}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    made = setup(req["workload"], req["seed"], req["smoke"], req["dir"])
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(made, fh)
