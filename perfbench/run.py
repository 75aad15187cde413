#!/usr/bin/env python3
"""The repository benchmark: per-step host wall and modeled time of the
parallel Barnes-Hut step on three workloads, with a traced per-layer
breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]   # every workload, both modes

The first form builds the perfbench/ CMake project (which builds the
repository's libraries from source) into .bench_build/perfbench, runs the
measurement binary on one workload in its own process, checks its outputs, and
prints as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken from
spans the binary records around every layer call.

The second form prints every metric of every workload by name with its unit,
the end-to-end metric each per-layer metric should move, and the tracing
overhead (traced minus untraced step_p50_s).

Aggregation rules: an op is one timed step. Times of a layer are the max over
ranks of the call's wall (never summed over threads), counts are summed over
ranks, and a per-op value is reported as the median over the timed ops.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
# Set-up repetitions per run; setup_s is their median. The first one in a
# process runs cold, so it takes several to make the median steady.
SETUPS = 7
# Every statement of an op runs inside a traced layer call, each followed by
# a host barrier, so the layers cover the op wall by construction of
# perfbench.cpp's Rank::call(); the gate catches op code added outside it.
COVERAGE_TOLERANCE = 0.10
# The probe (dtree.build + funcship.force) stands in for the layers inside
# formulations.step; its wall measured 0.96-1.05 x that of the step.
PROBE_TOLERANCE = 0.25

# Correctness bounds per workload: relative energy drift of the trajectory
# against the initial state (None: the workload does not integrate), and the
# fractional potential error against a direct sum on a sampled target set.
BOUNDS = {
    "plummer-fs-traj": {"energy_drift": 1e-3, "force_rel_err": 5e-3},
    "plummer-ds-k4": {"energy_drift": None, "force_rel_err": 1e-4},
    "plummer-serial": {"energy_drift": 1e-3, "force_rel_err": 5e-3},
}

# The force call whose wall and work define the multipole rates.
FORCE_CALL = {
    "plummer-fs-traj": "funcship.force",
    "plummer-ds-k4": "dataship.force",
    "plummer-serial": "tree.force",
}

# Which end-to-end metric each per-layer metric should move, on which
# workload: the prediction a change to that layer is checked against.
MOVES = {
    "mp.p2p_bytes": "modeled_step_s on plummer-ds-k4",
    "mp.p2p_messages": "modeled_step_s on plummer-fs-traj",
    "mp.coll_bytes": "modeled_step_s on plummer-fs-traj",
    "mp.recv_wait_vs": "modeled_step_s on plummer-ds-k4",
    "mp.barrier_wait_s": "step_p50_s on plummer-fs-traj",
    "vt.local_build_s": "modeled_step_s, modeled_efficiency on fs-traj, ds-k4",
    "vt.tree_merge_s": "modeled_step_s, modeled_efficiency on fs-traj, ds-k4",
    "vt.broadcast_s": "modeled_step_s, modeled_efficiency on fs-traj, ds-k4",
    "vt.force_s": "modeled_step_s, modeled_efficiency on fs-traj, ds-k4",
    "vt.load_balance_s": "modeled_step_s, modeled_efficiency on fs-traj",
    "dtree.build_s": "step_p50_s on plummer-ds-k4 and plummer-fs-traj",
    "funcship.force_s": "step_p50_s on plummer-fs-traj; none elsewhere",
    "funcship.items_shipped": "modeled_step_s on plummer-fs-traj",
    "funcship.bins_sent": "modeled_step_s on plummer-fs-traj",
    "funcship.stalls": "modeled_step_s on plummer-fs-traj",
    "funcship.load_imbalance": "modeled_efficiency on plummer-fs-traj",
    "dataship.force_s": "step_p50_s on plummer-ds-k4",
    "dataship.fetch_requests": "modeled_step_s on plummer-ds-k4",
    "dataship.nodes_fetched": "modeled_step_s on plummer-ds-k4",
    "dataship.coalesced": "modeled_step_s on plummer-ds-k4",
    "dataship.suspends": "modeled_step_s on plummer-ds-k4",
    "dataship.cache_hit_ratio": "step_p50_s on plummer-ds-k4",
    "formulations.step_s": "step_p50_s, step_tail_s on plummer-fs-traj",
    "formulations.migrate_s": "step_p50_s, step_tail_s on plummer-fs-traj",
    "formulations.rebalance_s": "step_p50_s, step_tail_s on plummer-fs-traj",
    "tree.build_s": "step_p50_s on plummer-serial",
    "tree.force_s": "step_p50_s on plummer-serial",
    "tree.mac_evals": "force_rel_err, modeled_step_s on every workload",
    "tree.interactions": "force_rel_err, modeled_step_s on every workload",
    "tree.direct_pairs": "force_rel_err, modeled_step_s on every workload",
    "multipole.interactions_per_s": "step_p50_s; most on serial and ds-k4",
    "multipole.gflops": "step_p50_s; most on serial and ds-k4",
    "sim.integrate_s": "step_p50_s on plummer-fs-traj and plummer-serial",
    "sim.allocs": "step_tail_s, peak_rss_mb on plummer-fs-traj",
    "formulations.allocs": "step_tail_s, peak_rss_mb on plummer-fs-traj",
    "dtree.allocs": "step_tail_s, peak_rss_mb on plummer-fs-traj",
    "funcship.allocs": "step_tail_s, peak_rss_mb on plummer-fs-traj",
    "dataship.allocs": "step_tail_s on plummer-ds-k4",
    "tree.allocs": "step_tail_s on plummer-serial",
    "mem.allocs_per_op": "step_tail_s, peak_rss_mb on plummer-fs-traj",
    "trace.step_p50_s": "none: traced op wall; minus step_p50_s = overhead",
    "trace.layer_coverage": "none: layers / op wall, gated to 1 +- 0.1",
    "op.self_s": "none: op wall that no layer span covers",
}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no repository sources beside perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, ops=0, setups=SETUPS):
    """Run the measurement binary: its records grouped by type, and its spans."""
    spans_path = os.path.join(BUILD, "spans-%s.csv" % workload)
    if os.path.exists(spans_path):
        os.remove(spans_path)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--ops", str(ops), "--setups", str(setups)]
    if trace:
        cmd += ["--spans", spans_path]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: measurement binary timed out" % workload)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise BenchError("%s: measurement binary exited with %d" % (workload, p.returncode))
    recs = {"config": None, "setup": [], "ready": None, "op": [], "end": None}
    for line in p.stdout.splitlines():
        r = json.loads(line)
        if isinstance(recs[r["type"]], list):
            recs[r["type"]].append(r)
        else:
            recs[r["type"]] = r
    if not recs["op"] or recs["end"] is None or recs["ready"] is None:
        raise BenchError("%s: measurement binary output incomplete" % workload)
    spans = []
    if trace:
        with open(spans_path) as f:
            for row in csv.DictReader(f):
                spans.append({
                    "name": row["name"], "rank": int(row["rank"]),
                    "op": int(row["op"]), "seq": int(row["seq"]),
                    "parent": int(row["parent"]),
                    "dur": float(row["t1"]) - float(row["t0"]),
                    "allocs": int(row["allocs"]),
                })
    return recs, spans


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(walls):
    """The highest percentile with at least ten samples beyond it (nearest
    rank), and that percentile; with ten or fewer samples, the maximum."""
    xs = sorted(walls)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def modeled_per_op(cfg, op):
    """Modeled op time (max over ranks of the virtual-clock delta) and the
    paper's projected serial force time. The serial workload has no virtual
    clock: its modeled time is its projected serial time."""
    serial_s = cfg["t_flop"] * sum(op["flops"])
    if cfg["ranks"] == 1:
        return serial_s, serial_s
    return max(op["vt"]), serial_s


def failures(name, recs):
    """Count failed ops: non-finite fields, energy drift past the bound, and
    (charged to the last op) a force error past the bound."""
    b = BOUNDS[name]
    ready = recs["ready"]
    e0 = sum(ready["kinetic"]) + sum(ready["potential"])
    failed = []
    for op in recs["op"]:
        bad = not all(op["finite"])
        if b["energy_drift"] is not None:
            e = sum(op["kinetic"]) + sum(op["potential"])
            bad = bad or not abs(e - e0) <= b["energy_drift"] * abs(e0)
        failed.append(bad)
    if not recs["end"]["force_rel_err"] <= b["force_rel_err"]:
        failed[-1] = True
    return sum(failed)


def end_to_end(recs):
    cfg = recs["config"]
    ops = recs["op"]
    walls = [op["wall_s"] for op in ops]
    n = recs["setup"][-1]["n"]
    modeled, eff = [], []
    for op in ops:
        m, serial_s = modeled_per_op(cfg, op)
        modeled.append(m)
        eff.append(serial_s / (cfg["ranks"] * m))
    tail, pct = tail_percentile(walls)
    notes = ["step_tail_s is p%.1f of %d timed ops" % (pct, len(walls)),
             "force_rel_err over %d sampled targets" % recs["end"]["sample"]]
    return {
        "setup_s": median([s["s"] for s in recs["setup"]]),
        "step_p50_s": median(walls),
        "step_tail_s": tail,
        "particle_steps_per_s": n * len(walls) / sum(walls),
        "modeled_step_s": median(modeled),
        "modeled_efficiency": median(eff),
        "force_rel_err": recs["end"]["force_rel_err"],
        "peak_rss_mb": recs["end"]["peak_rss_bytes"] / 1e6,
    }, notes


def per_layer(name, recs, spans):
    """Per-layer metrics of a traced run (see the module docstring)."""
    ops = recs["op"]
    nops = len(ops)
    calls = {}  # (op, seq) -> the spans of that call, one per rank
    for s in spans:
        calls.setdefault((s["op"], s["seq"]), []).append(s)
    roots = {key: ss[0]["name"] for key, ss in calls.items()
             if ss[0]["parent"] == -1}

    layer_s = {}  # call name -> per-op sum over calls of the max over ranks
    allocs = {}   # layer -> per-op allocations summed over calls and ranks
    barrier = [0.0] * nops
    covered = [0.0] * nops
    probed = [0.0] * nops
    for (op, _), ss in sorted(calls.items()):
        first = ss[0]
        if first["parent"] == -1:
            continue
        in_op = roots.get((op, first["parent"])) == "op"
        if first["name"] == "mp.barrier":
            if in_op:
                barrier[op] += sum(s["dur"] for s in ss)
            continue
        wall = max(s["dur"] for s in ss)
        layer_s.setdefault(first["name"], [0.0] * nops)[op] += wall
        layer = first["name"].split(".")[0]
        allocs.setdefault(layer, [0] * nops)[op] += sum(s["allocs"] for s in ss)
        if in_op:
            covered[op] += wall
        else:
            probed[op] += wall

    # Op self time: rank 0's op span minus the spans nested directly in it.
    self_s = [0.0] * nops
    for s in spans:
        if s["rank"] != 0:
            continue
        if s["parent"] == -1 and s["name"] == "op":
            self_s[s["op"]] += s["dur"]
        elif roots.get((s["op"], s["parent"])) == "op":
            self_s[s["op"]] -= s["dur"]

    def layer(call):
        return median(layer_s.get(call, []))

    def total(field):
        return median([sum(op[field]) for op in ops])

    def vmax(field):
        return median([max(op[field]) for op in ops])

    loads = []
    for op in ops:
        mean = sum(op["local_load"]) / len(op["local_load"])
        loads.append(max(op["local_load"]) / mean if mean > 0 else 0.0)
    hits = sum(sum(op["cache_hits"]) for op in ops)
    probes = sum(sum(op["hash_probes"]) for op in ops)

    # Kernel rates over the workload's force call. The function-shipping
    # force runs inside step(), so its wall comes from the probe, which
    # repeats the step's work exactly (check_exact.py asserts it).
    force_wall = sum(layer_s.get(FORCE_CALL[name], []))
    pairs = sum(sum(op["interactions"]) + sum(op["direct_pairs"])
                for op in ops)
    flops = sum(sum(op["flops"]) for op in ops)

    walls = [op["wall_s"] for op in ops]
    coverage = sum(covered) / sum(walls)
    m = {
        "mp.p2p_bytes": total("p2p_bytes"),
        "mp.p2p_messages": total("p2p_messages"),
        "mp.coll_bytes": total("coll_bytes"),
        "mp.recv_wait_vs": vmax("recv_wait_vs"),
        "mp.barrier_wait_s": median(barrier),
        "vt.local_build_s": vmax("vt_local_build"),
        "vt.tree_merge_s": vmax("vt_tree_merge"),
        "vt.broadcast_s": vmax("vt_broadcast"),
        "vt.force_s": vmax("vt_force"),
        "vt.load_balance_s": vmax("vt_load_balance"),
        "dtree.build_s": layer("dtree.build"),
        "funcship.force_s": layer("funcship.force"),
        "funcship.items_shipped": total("items_shipped"),
        "funcship.bins_sent": total("bins_sent"),
        "funcship.stalls": total("stalls"),
        "funcship.load_imbalance": median(loads),
        "dataship.force_s": layer("dataship.force"),
        "dataship.fetch_requests": total("fetch_requests"),
        "dataship.nodes_fetched": total("nodes_fetched"),
        "dataship.coalesced": total("coalesced"),
        "dataship.suspends": total("suspends"),
        "dataship.cache_hit_ratio": hits / probes if probes else 0.0,
        "formulations.step_s": layer("formulations.step"),
        "formulations.migrate_s": layer("formulations.migrate"),
        "formulations.rebalance_s": layer("formulations.rebalance"),
        "tree.build_s": layer("tree.build"),
        "tree.force_s": layer("tree.force"),
        "tree.mac_evals": total("mac_evals"),
        "tree.interactions": total("interactions"),
        "tree.direct_pairs": total("direct_pairs"),
        "multipole.interactions_per_s": pairs / force_wall if force_wall else 0.0,
        "multipole.gflops": flops / force_wall / 1e9 if force_wall else 0.0,
        "sim.integrate_s": layer("sim.integrate"),
        "mem.allocs_per_op": total("allocs"),
        "trace.step_p50_s": median(walls),
        "trace.layer_coverage": coverage,
        "op.self_s": median(self_s),
    }
    for layer_name in ("sim", "formulations", "dtree", "funcship", "dataship",
                       "tree"):
        m[layer_name + ".allocs"] = median(allocs.get(layer_name, []))

    notes = ["layers cover %.1f%% of op wall over %d traced ops"
             % (100 * coverage, nops)]
    ok = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    if not ok:
        notes.append("FAIL: layers do not sum to within 10% of op wall")
    step = layer_s.get("formulations.step")
    if step:
        ratio = sum(probed) / sum(step)
        notes.append("probe dtree.build + funcship.force = %.3f x "
                     "formulations.step_s" % ratio)
        if abs(ratio - 1.0) > PROBE_TOLERANCE:
            ok = False
            notes.append("FAIL: the probe's wall is not within %d%% of the "
                         "step's" % round(100 * PROBE_TOLERANCE))
    return m, notes, ok


def measure(name, seed, seconds, trace):
    """One benchmark run: the result object and human-readable notes."""
    spec = load_spec()
    recs, spans = run_binary(name, seed, seconds, trace)
    failed = failures(name, recs)
    correct = failed == 0
    if trace:
        values, notes, ok = per_layer(name, recs, spans)
        correct = correct and ok
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(recs)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": correct, "attempted": len(recs["op"]),
            "failed": failed, "metrics": metrics}, notes


def report_all(seed, seconds):
    """Every metric of every workload, both modes, plus tracing overhead."""
    for w in load_spec()["workloads"]:
        name = w["name"]
        plain, plain_notes = measure(name, seed, seconds, trace=False)
        traced, traced_notes = measure(name, seed, seconds, trace=True)
        print("== %s: %s" % (name, w["why"]))
        print("   ops attempted/failed: %d/%d untraced, %d/%d traced"
              % (plain["attempted"], plain["failed"], traced["attempted"],
                 traced["failed"]))
        for note in plain_notes + traced_notes:
            print("   " + note)
        for key, v in plain["metrics"].items():
            print("   %-30s %14.6g %s" % (key, v["value"], v["unit"]))
        for key, v in traced["metrics"].items():
            print("   %-30s %14.6g %-8s -> %s"
                  % (key, v["value"], v["unit"], MOVES[key]))
        base = plain["metrics"]["step_p50_s"]["value"]
        over = traced["metrics"]["trace.step_p50_s"]["value"] - base
        print("   tracing overhead: %+.6f s per op (%+.1f%% of step_p50_s)"
              % (over, 100 * over / base))
        print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run [BENCHMARK.json run_seconds]")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="print every metric of every workload, both modes")
    a = ap.parse_args()
    try:
        if a.seconds is None:
            a.seconds = load_spec()["run_seconds"]
        build()
        if a.all:
            report_all(a.seed, a.seconds)
            return 0
        if a.workload not in BOUNDS:
            raise BenchError("unknown workload %r" % a.workload)
        result, notes = measure(a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
