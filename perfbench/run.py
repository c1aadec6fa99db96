#!/usr/bin/env python3
"""End-to-end benchmark of the peelbound CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload tri-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  A set-up process (``workloads.py``)
generates the workload's graph files from the seed and times that as
``setup_s``; then one fresh worker process (``worker.py``) runs the CLI
commands on them for the given number of seconds and checks every output.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the inputs.  A human-readable table goes to stderr.

``--workload all`` runs every workload in turn.  ``--smoke`` runs every
workload at shrunken sizes, traced and untraced.  Both check that every
metric named in BENCHMARK.json is measured and that no operation failed,
print one JSON object with every result last, and exit 1 if a check failed.

Metric names and units come from BENCHMARK.json; README.md in this
directory says which end-to-end metric each layer metric should move, and
on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170  # a run must end within 180 s


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "peelbound").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        return int(out) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(numpy_version: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "code": code_hash(),
    }


def run_child(script: str, request: dict, work: Path, budget: float) -> dict | None:
    """Run a benchmark script in its own process; returns the result it writes.

    The parent never imports numpy or peelbound, so a child's ``ru_maxrss``,
    which Linux carries over from the parent at fork, starts small.
    """
    request = dict(request, result=str(work / f"{script}.result.json"))
    req_path = work / f"{script}.request.json"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    env = dict(os.environ)
    env.pop("PEELBOUND_THREADS", None)  # the oracle runs its default single thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy starts no thread pool
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), str(req_path)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=max(budget, 1.0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.stderr.write(f"perfbench: {script} exceeded {budget:.0f} s\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: {script} exited with {proc.returncode}\n")
        return None
    with open(request["result"], encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint_problems(out_dir: Path, key: str, facts: dict) -> list[str]:
    """Deterministic results must repeat across runs of the same code and seed."""
    keep = ("certificate", "peel_bound", "peel_count", "fse")
    now = {name: {k: v[k] for k in keep if k in v} for name, v in facts.items()}
    path = out_dir / "fingerprints" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        return [f"{name} differs from an earlier run" for name in now if now[name] != before.get(name, now[name])]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(now, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


def run_workload(workload: str, seed: int, seconds: int, trace: int, smoke: bool, spec: dict) -> dict | None:
    """One benchmark run; returns the result object, or None if it could not run."""
    started = time.perf_counter()
    tag = f"{workload}-s{seed}{'-smoke' if smoke else ''}"
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{tag}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        request = {"workload": workload, "seed": seed, "smoke": smoke, "dir": str(work)}
        made = run_child("workloads.py", request, work, RUN_LIMIT_S)
        res = None
        if made is not None:
            files = made["files"]
            plan = {
                "files": files,
                "seconds": seconds,
                "trace": trace,
                "input_bytes": sum(f["bytes"] for f in files),
                "spans": str(out_dir / f"{tag}-spans.jsonl"),
            }
            res = run_child("worker.py", plan, work, RUN_LIMIT_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    if res is None:
        return None

    env = environment(res["numpy"])
    problems = list(res["problems"])
    failed = res["failed"]
    mismatch = fingerprint_problems(out_dir, f"{tag}-{env['code']}", res["facts"])
    if mismatch:
        problems += mismatch
        failed += len(mismatch)
    values = dict(res["metrics"], setup_s=made["setup_s"])
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    problems += [f"metric {name} was not measured" for name in declared if name not in values]
    l3 = env["l3_bytes"]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "visits": res["visits"],
        "timed_s": res["timed_s"],
        "setup_reps": made["reps"],
        "env": env,
        "inputs": [
            {
                "name": f["name"],
                "n": f["n"],
                "m": f["m"],
                "bytes": f["bytes"],
                "bytes_over_l3": f["bytes"] / l3 if l3 else None,
                "case": res["facts"].get(f["name"], {}).get("certificate", {}).get("case"),
            }
            for f in files
        ],
        "summary": {k: values[k] for k in ("fail_rate", "fse_gap_mean") if k in values},
        "samples": res["samples"],
        "problems": problems,
    }
    return {
        "info": info,
        "values": values,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": res["attempted"],
            "failed": failed,
            "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in declared.items()},
        },
    }


def print_table(out: dict) -> None:
    info, res = out["info"], out["result"]
    w = sys.stderr.write
    w(f"{info['workload']} seed {info['seed']} trace {info['trace']}: "
      f"{info['visits']} file visits, {info['timed_s']:.1f} s timed, "
      f"{res['failed']}/{res['attempted']} failed\n")
    units = {"fail_rate": "ratio", "fse_gap_mean": "count"}
    rows = [(name, m["value"], m["unit"]) for name, m in res["metrics"].items()]
    rows += [(name, value, units[name]) for name, value in info["summary"].items()]
    for name, value, unit in rows:
        shown = "missing" if value is None else f"{value:.6g}"
        w(f"  {name:45s} {shown:>14} {unit}\n")
    for p in info["problems"][:20]:
        w(f"  problem: {p}\n")


def run_all(seed: int, seconds: int, traces: tuple[int, ...], smoke: bool, spec: dict) -> int:
    """Every workload in the given modes; checks that every declared metric
    is a finite number and that no operation failed."""
    ok, results = True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            out = run_workload(workload, seed, seconds, trace, smoke, spec)
            if out is None:
                sys.stderr.write(f"{workload} trace {trace} did not run\n")
                ok = False
                continue
            print_table(out)
            res = results[f"{workload}/trace{trace}"] = out["result"]
            bad = [
                name
                for name, m in res["metrics"].items()
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])
            ]
            extra = set(out["values"]) - set(res["metrics"]) - {"setup_s", "fail_rate", "fse_gap_mean"}
            if not res["correct"] or res["failed"] or bad or extra:
                sys.stderr.write(
                    f"{workload} trace {trace}: correct={res['correct']} "
                    f"not measured={bad} undeclared={sorted(extra)}\n"
                )
                ok = False
    print(json.dumps({"ok": ok, "results": results}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="measured seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads, shrunken, both modes")
    args = ap.parse_args(argv)

    if not (SRC / "peelbound" / "__init__.py").is_file():
        return fail(f"no peelbound sources under {SRC}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        return run_all(args.seed, 1, (0, 1), True, spec)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, (args.trace,), False, spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"--workload must be one of {', '.join(names)}")
    out = run_workload(args.workload, args.seed, args.seconds, args.trace, False, spec)
    if out is None:
        return fail("the run did not complete")
    print_table(out)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
