"""Benchmark worker: one fresh process runs one workload's commands.

    python3 perfbench/worker.py PLAN.json

``run.py`` writes the plan (input files, run length, traced or not) and
reads the result file the worker writes.  The package is imported before
any timing starts.  The worker visits the input files in turn, running
every command on each visited file, until every file has been visited once
and the timed commands have used up the run length.  A timing metric is the
median over a file's visits, summed over the files; checks are untimed.

Untraced visits drive the real CLI path, ``peelbound.cli.main``, for
``center``, ``verify`` and ``oracle``.  Traced visits call the package's
public functions in the same order as ``cmd_center``, ``cmd_verify`` and
``cmd_oracle``, with one span around each call, and read the layer counters
from the objects those calls return.  They also run the untraced CLI
``center`` on every file, so the traced certificate can be compared with
the CLI's and the CLI's own overhead measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from peelbound import cli, embed, graphio, oracle, peels
from peelbound import center as center_mod

from spans import SpanRecorder, per_span_cost

# Mirrors of the fixed choices inside ``cli.cmd_oracle`` /
# ``oracle.full_oracle_report``: the default --budget, and the size up to
# which the fence-girth enumeration runs.
FENCE_BUDGET = 5_000_000
FENCE_MAX_N = 60

RSS_STAGES = (
    "loads_plane_graph",
    "connect_components",
    "choose_root",
    "compute_layers",
    "augment",
    "build_tree_of_peels",
    "find_center",
)

ORACLE_FACTS = ("fse", "best_outerface", "radius", "diameter", "fence_girth")


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


def cli_call(argv: list[str]) -> tuple[float, dict | None, list[str]]:
    """One in-process CLI command: (seconds, its JSON record, problems)."""
    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            rc = "exception"
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    if rc != 0:
        problems.append(f"exit {rc}: {err.getvalue().strip()[-300:]}")
    lines = out.getvalue().splitlines()
    record = None
    if len(lines) == 1:
        try:
            record = json.loads(lines[0])
        except json.JSONDecodeError:
            pass
    if not isinstance(record, dict) or record.get("command") != argv[0]:
        problems.append(f"unparsable record: {out.getvalue()[:200]!r}")
        record = None
    return dt, record, problems


def connected(g):
    return g if g.connected else embed.connect_components(g)


def peel_count_problems(facts: dict, g) -> list[str]:
    """Recount peels from the certified outerface of ``g`` (connected)."""
    facts["peel_count"] = peels.peel_count_for_outerface(g, facts["certificate"]["outerface"])
    if facts["peel_count"] > facts["peel_bound"]:
        return [f"peel count {facts['peel_count']} > peel_bound {facts['peel_bound']}"]
    return []


def fse_problems(facts: dict, floor: int | None) -> list[str]:
    fse, out = facts["fse"], []
    if fse > facts["peel_count"]:
        out.append(f"fse {fse} > peel count {facts['peel_count']}")
    if fse > facts["peel_bound"]:
        out.append(f"fse {fse} > peel_bound {facts['peel_bound']}")
    if floor is not None and fse < floor:
        out.append(f"fse {fse} < family floor {floor}")
    return out


def repeat_problems(facts: dict, ref: dict | None, keys) -> list[str]:
    if ref is None:
        return []
    return [f"{k} changed from {ref.get(k)!r} to {facts.get(k)!r}" for k in keys if facts.get(k) != ref.get(k)]


def center_facts(record: dict) -> dict:
    return {"certificate": record["certificate"], "peel_bound": record["peel_bound"], "n": record["n"]}


# ---------------------------------------------------------------------------
# Untraced: the CLI path
# ---------------------------------------------------------------------------


def untraced_visit(f: dict, tally: Tally, ref: dict | None, op: str):
    """One file through the CLI: (seconds per command, facts, no counters)."""
    sample: dict[str, float] = {}
    facts: dict = {}

    sample["center"], rec, probs = cli_call(["center", f["path"], "--out", f["cert"]])
    if rec is not None:
        facts.update(center_facts(rec))
        if ref is None:
            g = connected(graphio.load_plane_graph(f["path"]))
            probs += peel_count_problems(facts, g)
            del g
        probs += repeat_problems(facts, ref, ("certificate", "peel_bound"))
    tally.record(f"{op} center", probs)

    sample["verify"], rec, probs = cli_call(["verify", f["path"], f["cert"]])
    if rec is not None and not rec["ok"]:
        bad = [c["detail"] for c in rec["checks"] if not c["ok"]]
        probs.append(f"verify ok=false: {bad}")
    tally.record(f"{op} verify", probs)

    if f["oracle"]:
        sample["oracle"], rec, probs = cli_call(["oracle", f["path"]])
        if rec is not None:
            facts.update(
                fse=rec["fse_outerplanarity"],
                best_outerface=rec["best_outerface"],
                radius=rec["radius"],
                diameter=rec["diameter"],
                fence_girth=rec["fence_girth"],
            )
            if ref is None and "peel_count" in facts:
                probs += fse_problems(facts, f["fse_floor"])
            probs += repeat_problems(facts, ref, ORACLE_FACTS)
        tally.record(f"{op} oracle", probs)
    sample["timed"] = sum(sample.values())
    return sample, facts, {}


def per_file(samples: dict[str, list[dict]], get) -> float:
    """Median over each file's visits, summed over the files."""
    return sum(statistics.median(get(s) for s in visits) for visits in samples.values())


def untraced_metrics(samples: dict, refs: dict, tally: Tally) -> dict:
    center_s = per_file(samples, lambda s: s["center"])
    total_n = sum(facts.get("n", 0) for facts in refs.values())
    checked = [x for x in refs.values() if "peel_count" in x]
    with_fse = [x for x in checked if "fse" in x]
    return {
        "center_s": center_s,
        "center_us_per_vertex": center_s * 1e6 / max(total_n, 1),
        "verify_s": per_file(samples, lambda s: s["verify"]),
        "oracle_s": per_file(samples, lambda s: s.get("oracle", 0.0)),
        "peak_rss_mib": rss_mib(),
        "peel_bound_mean": statistics.fmean(x["peel_bound"] for x in checked) if checked else 0.0,
        "peel_count_mean": statistics.fmean(x["peel_count"] for x in checked) if checked else 0.0,
        "fse_slack_ratio": (
            statistics.fmean(x["peel_count"] / x["fse"] for x in with_fse) if with_fse else 0.0
        ),
        # Printed in the summary only: fail_rate is 0 on working code, and
        # the gap is often 0, so neither can carry a relative bound.
        "fail_rate": tally.failed / max(tally.attempted, 1),
        "fse_gap_mean": (
            statistics.fmean(x["peel_count"] - x["fse"] for x in with_fse) if with_fse else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# Traced: the same public calls, one span each
# ---------------------------------------------------------------------------


def parallel_added(aug) -> int:
    """Added edges of H whose endpoint pair is already an edge of G."""
    h, m0 = aug.H, aug.original_edge_count
    eu = np.frombuffer(h.eu, dtype=np.int32).astype(np.int64)
    ev = np.frombuffer(h.ev, dtype=np.int32).astype(np.int64)
    key = np.minimum(eu, ev) * h.n + np.maximum(eu, ev)
    return int(np.isin(key[m0:], key[:m0]).sum())


def traced_center(rec: SpanRecorder, f: dict, run: str, cnt: dict, rss: dict | None):
    """``cmd_center`` with ``--g auto --mode girth``, as its public calls."""

    def mark(stage: str) -> None:
        if rss is not None:
            rss[stage] = rss_mib()

    with rec.span("cli.center", run=run):
        text = read_text(f["path"])
        with rec.span("graphio.loads_plane_graph"):
            g0 = graphio.loads_plane_graph(text)
        mark("loads_plane_graph")
        g = g0
        if not g.connected:
            with rec.span("embed.connect_components"):
                g = embed.connect_components(g0)
        mark("connect_components")
        with rec.span("peels.choose_root"):
            root = peels.choose_root(g)
        mark("choose_root")
        with rec.span("peels.compute_layers"):
            ctx = peels.compute_layers(g, root)
        mark("compute_layers")
        with rec.span("peels.augment"):
            aug = peels.augment(ctx)
        mark("augment")
        with rec.span("peels.build_tree_of_peels"):
            tree = peels.build_tree_of_peels(aug)
        mark("build_tree_of_peels")
        with rec.span("center.compute_gstar"):
            gval = center_mod.compute_gstar(tree, g.n)
        with rec.span("center.find_center"):
            cert = center_mod.find_center(aug, tree, gval)
            cert.outerface = g.first_face_of_vertex(cert.center)
            cert.peel_bound = cert.bound + 1
        mark("find_center")

    cnt["loaded_n"] += g0.n
    cnt.update(
        center_n=g.n,
        connect_edges_added=g.m - g0.m,
        layer_depth=ctx.depth,
        augment_edges_added=aug.H.m - aug.original_edge_count,
        augment_parallel=parallel_added(aug),
        tree_nodes=tree.node_count,
        tree_depth=max(tree.depth),
        gstar=gval or 0,
    )
    return g, cert


def traced_verify(rec: SpanRecorder, f: dict, run: str, cnt: dict) -> list[str]:
    """``cmd_verify``: the certificate recheck plus the family annotation checks."""
    with rec.span("cli.verify", run=run):
        text = read_text(f["path"])
        with rec.span("graphio.loads_plane_graph"):
            g = graphio.loads_plane_graph(text)
        with open(f["cert"], encoding="utf-8") as fh:
            cert = json.load(fh)
        with rec.span("oracle.verify_certificate"):
            report = oracle.verify_certificate(cert, g)
        checks = list(report.checks)
        meta = g.meta or {}
        if "fse_at_least" in meta and cert.get("bound") is not None:
            floor = int(meta["fse_at_least"])
            checks.append(("family-fse-floor", int(cert["bound"]) + 1 >= floor, f"floor {floor}"))
        if g.n <= cli.ANNOTATION_ORACLE_LIMIT and g.connected:
            if "diam_at_most" in meta:
                with rec.span("oracle.diameter_exact"):
                    diam = oracle.diameter_exact(g)
                checks.append(("family-diameter", diam <= int(meta["diam_at_most"]), f"diameter {diam}"))
            if "rad_at_least" in meta:
                with rec.span("oracle.radius_exact"):
                    _, rad = oracle.radius_exact(g)
                checks.append(("family-radius", rad >= int(meta["rad_at_least"]), f"radius {rad}"))
    cnt["loaded_n"] += g.n
    return [f"verify check {name} failed: {detail}" for name, ok, detail in checks if not ok]


def traced_oracle(rec: SpanRecorder, f: dict, run: str, cnt: dict) -> dict:
    """``cmd_oracle`` with its defaults, as ``full_oracle_report``'s calls."""
    with rec.span("cli.oracle", run=run):
        text = read_text(f["path"])
        with rec.span("graphio.loads_plane_graph"):
            g = graphio.loads_plane_graph(text)
        gc = g
        if not g.connected:
            with rec.span("embed.connect_components"):
                gc = embed.connect_components(g)
        with rec.span("oracle.fse_outerplanarity_bruteforce"):
            fse = oracle.fse_outerplanarity_bruteforce(gc, threads=1)
        with rec.span("oracle.all_eccentricities"):
            eccs = oracle.all_eccentricities(gc)
        fence = None
        if gc.n <= FENCE_MAX_N:
            with rec.span("oracle.fence_girth_bruteforce"):
                try:
                    fence = oracle.fence_girth_bruteforce(gc, budget=FENCE_BUDGET)
                except oracle.OracleBudgetError:
                    fence = None
    cnt["loaded_n"] += g.n
    cnt["fse_faces"] = len(fse.per_face)
    if fence == float("inf"):
        fence = "infinity"
    return {
        "fse": fse.value,
        "best_outerface": fse.face,
        "radius": min(eccs),
        "diameter": max(eccs),
        "fence_girth": fence,
    }


def traced_visit(f: dict, tally: Tally, ref: dict | None, op: str, rec: SpanRecorder, cli_first: bool):
    """One file through the traced calls and the untraced CLI ``center``.

    ``cli_first`` alternates which of the two ``center`` runs goes first, so
    neither side of ``cli.overhead_s`` always runs on a freshly freed heap.
    """
    first = len(rec.spans)
    run = op.replace(" ", ":")
    cnt = {"loaded_n": 0, "fse_faces": 0}
    facts: dict = {}

    def cli_center():
        dt, crec, probs = cli_call(["center", f["path"], "--out", f["cert"]])
        tally.record(f"{op} cli center", probs)
        return dt, crec

    if cli_first:
        cli_s, crec = cli_center()
    g, cert = traced_center(rec, f, f"{run}:center", cnt, None)
    traced = {"certificate": cert.to_dict(), "peel_bound": int(cert.peel_bound)}
    probs = repeat_problems(traced, ref, ("certificate", "peel_bound"))
    if ref is None:
        facts.update(traced, n=g.n)
        probs += peel_count_problems(facts, g)
    del g, cert
    if not cli_first:
        cli_s, crec = cli_center()
    if crec is not None:
        probs += repeat_problems(center_facts(crec), traced | {"n": crec["n"]}, ("certificate", "peel_bound"))
    tally.record(f"{op} traced center", probs)

    tally.record(f"{op} traced verify", traced_verify(rec, f, f"{run}:verify", cnt))

    if f["oracle"]:
        found = traced_oracle(rec, f, f"{run}:oracle", cnt)
        facts.update(found)
        probs = repeat_problems(found, ref, ORACLE_FACTS)
        if ref is None:
            probs += fse_problems(facts, f["fse_floor"])
        tally.record(f"{op} traced oracle", probs)

    sample = {
        "self": rec.self_seconds(first),
        "stage_sum": rec.child_seconds("cli.center", first),
        "cli_center": cli_s,
        "spans": len(rec.spans) - first,
        "timed": cli_s + rec.root_seconds(first),
    }
    return sample, facts, cnt


LAYER_SECONDS = (
    "graphio.loads_plane_graph",
    "embed.connect_components",
    "peels.choose_root",
    "peels.compute_layers",
    "peels.augment",
    "peels.build_tree_of_peels",
    "center.compute_gstar",
    "center.find_center",
    "oracle.verify_certificate",
    "oracle.diameter_exact",
    "oracle.radius_exact",
    "oracle.fse_outerplanarity_bruteforce",
    "oracle.all_eccentricities",
    "oracle.fence_girth_bruteforce",
)


def traced_metrics(samples: dict, counters: dict, rss: dict, span_cost: float, input_bytes: int) -> dict:
    cs = list(counters.values())

    def total(key: str) -> int:
        return sum(c[key] for c in cs)

    m = {f"{name}.s": per_file(samples, lambda s, k=name: s["self"].get(k, 0.0)) for name in LAYER_SECONDS}
    m["graphio.loads_plane_graph.us_per_vertex"] = (
        m["graphio.loads_plane_graph.s"] * 1e6 / max(total("loaded_n"), 1)
    )
    m["graphio.input_mib"] = input_bytes / 2**20
    m["embed.connect_components.edges_added"] = total("connect_edges_added")
    m["peels.compute_layers.us_per_vertex"] = m["peels.compute_layers.s"] * 1e6 / max(total("center_n"), 1)
    m["peels.layer_depth"] = max(c["layer_depth"] for c in cs)
    m["peels.augment.edges_added"] = total("augment_edges_added")
    m["peels.augment.parallel_ratio"] = total("augment_parallel") / max(total("augment_edges_added"), 1)
    m["peels.tree_nodes"] = total("tree_nodes")
    m["peels.tree_depth"] = max(c["tree_depth"] for c in cs)
    m["center.gstar"] = total("gstar") / len(cs)
    m["oracle.fse_outerplanarity_bruteforce.faces"] = total("fse_faces")
    for stage in ("import", *RSS_STAGES):
        m[f"rss_after.{stage}_mib"] = rss[stage]
    stage_sum = per_file(samples, lambda s: s["stage_sum"])
    cli_center = per_file(samples, lambda s: s["cli_center"])
    m["cli.overhead_s"] = cli_center - stage_sum
    m["cli.center.stage_share"] = stage_sum / cli_center
    m["trace.overhead_s"] = per_file(samples, lambda s: s["spans"] * span_cost)
    return m


# ---------------------------------------------------------------------------


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    files, seconds, trace = plan["files"], plan["seconds"], plan["trace"]
    tally = Tally()
    refs: dict = {}  # facts of each file's first visit
    counters: dict = {}  # layer counters of each file's first visit
    samples: dict = {f["name"]: [] for f in files}
    rec = SpanRecorder()
    rss = {"import": rss_mib()}
    span_cost = per_span_cost() if trace else 0.0

    # The first command of a fresh process pays for growing the heap; one
    # untimed warm-up on the first file (every workload lists its largest
    # first) keeps that out of the samples.  A traced warm-up records the
    # peak RSS after each stage.
    if trace:
        traced_center(rec, files[0], "warm-up:center", {"loaded_n": 0}, rss)
    else:
        tally.record("warm-up center", cli_call(["center", files[0]["path"], "--out", files[0]["cert"]])[2])

    timed, visits = 0.0, 0
    while visits < len(files) or timed < seconds:
        f = files[visits % len(files)]
        name = f["name"]
        op = f"v{visits // len(files) + 1} {name}"
        ref = refs.get(name)
        if trace:
            sample, facts, cnt = traced_visit(f, tally, ref, op, rec, cli_first=len(samples[name]) % 2 == 1)
        else:
            sample, facts, cnt = untraced_visit(f, tally, ref, op)
        if ref is None:
            refs[name], counters[name] = facts, cnt
        elif cnt != counters[name]:
            tally.record(f"{op} counters", [f"{cnt} differ from the first visit {counters[name]}"])
        samples[name].append(sample)
        timed += sample["timed"]
        visits += 1

    if trace:
        metrics = traced_metrics(samples, counters, rss, span_cost, plan["input_bytes"])
        rec.write(plan["spans"])
    else:
        metrics = untraced_metrics(samples, refs, tally)
    result = {
        "numpy": np.__version__,
        "visits": visits,
        "timed_s": timed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:50],
        "facts": refs,
        "metrics": metrics,
        "samples": {
            name: {k: [v[k] for v in visits] for k in ("center", "verify", "oracle", "cli_center", "stage_sum") if k in visits[0]}
            for name, visits in samples.items()
        },
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
