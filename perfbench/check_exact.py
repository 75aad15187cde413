#!/usr/bin/env python3
"""Exact-count check of the benchmark.

Runs every workload twice at one seed, traced, for a fixed number of ops,
and asserts that the quantities the modeled machine makes deterministic
repeat bit for bit: modeled op time and the Table 3 phase times, the
WorkCounter counts, mp bytes and messages, and the function- and
data-shipping counters. Allocation counts depend on the host allocator and
thread interleaving, so a difference there is reported as inexact, not as a
failure. It also asserts that every op passed its correctness checks, that
the traced layers sum to within 10% of the op wall, and that the traced
probe's wall is close to that of the step it repeats.

    python3 perfbench/check_exact.py [--seed N] [--ops K]

Run from the root of a checkout; exits 0 when every check passes.
"""

import argparse
import sys

import run

EXACT = [
    "vt", "vt_local_build", "vt_tree_merge", "vt_broadcast", "vt_force",
    "vt_load_balance", "recv_wait_vs", "mac_evals", "interactions",
    "direct_pairs", "flops", "probe_flops", "p2p_bytes",
    "p2p_messages", "coll_bytes", "items_shipped", "bins_sent", "stalls",
    "local_load", "fetch_requests", "nodes_fetched", "coalesced", "suspends",
    "cache_hits", "hash_probes",
]
INEXACT = ["allocs"]


def check(name, seed, ops):
    """Problems found on one workload, and notes on inexact fields."""
    problems, notes = [], []
    runs = [run.run_binary(name, seed, 0, True, ops=ops, setups=1)
            for _ in range(2)]
    (a, spans), (b, _) = runs
    if len(a["op"]) != ops or len(b["op"]) != ops:
        problems.append("expected %d ops per run" % ops)
    for oa, ob in zip(a["op"], b["op"]):
        for field in EXACT:
            if oa[field] != ob[field]:
                problems.append("op %d: %s differs: %s vs %s"
                                % (oa["op"], field, oa[field], ob[field]))
        for field in INEXACT:
            if oa[field] != ob[field]:
                notes.append("op %d: %s inexact (%d vs %d)"
                             % (oa["op"], field, sum(oa[field]),
                                sum(ob[field])))
        # The traced probe must repeat the force work of the op's step().
        if any(oa["probe_flops"]) and oa["probe_flops"] != oa["flops"]:
            problems.append("op %d: probe work differs from the step's"
                            % oa["op"])
    for recs in (a, b):
        failed = run.failures(name, recs)
        if failed:
            problems.append("%d failed ops" % failed)
    _, layer_notes, ok = run.per_layer(name, a, spans)
    notes += layer_notes
    if not ok:
        problems.append("traced layers miss the op wall, or the probe the "
                        "step's")
    return problems, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=3)
    a = ap.parse_args()
    run.build()
    bad = 0
    for name in run.BOUNDS:
        problems, notes = check(name, a.seed, a.ops)
        print("%s: %s" % (name, "FAIL" if problems else "ok"))
        for line in problems + notes:
            print("   " + line)
        bad += len(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
