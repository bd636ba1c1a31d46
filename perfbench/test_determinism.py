#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/test_determinism.py

Two short runs of single_subject and of role_batch with one seed must print
identical per-layer counts and answer digests, and a run with a second seed
must be made from different inputs. Every run must answer correctly, and
the metrics each run prints must be exactly those BENCHMARK.json names.
Builds through run.py like a benchmark run; exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runs at the benchmark's own size; a 1 s window still completes the counted
# request prefix the per-layer counts are taken over.
SHORT = ["--seconds", "1"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + SHORT
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" % (" ".join(cmd), out.returncode,
                                             out.stderr))
    lines = out.stdout.strip().splitlines()
    prov = next(l for l in lines if l.startswith("provenance "))
    counts = next(l for l in lines if l.startswith("counts "))
    return (json.loads(prov[len("provenance "):]),
            json.loads(counts[len("counts "):]), json.loads(lines[-1]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: [m["name"] for m in bench["end_to_end"]],
             1: [m["name"] for m in bench["per_layer"]]}
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for workload in ("single_subject", "role_batch"):
        prov_a, counts_a, result_a = run(workload, 11, 1)
        prov_b, counts_b, result_b = run(workload, 11, 1)
        prov_c, counts_c, result_c = run(workload, 12, 0)
        for tag, result in (("a", result_a), ("b", result_b), ("c", result_c)):
            check(result["correct"] and result["failed"] == 0,
                  "%s run %s answers correctly" % (workload, tag))
        check(list(result_a["metrics"]) == names[1],
              "%s traced run prints BENCHMARK.json per_layer" % workload)
        check(list(result_c["metrics"]) == names[0],
              "%s untraced run prints BENCHMARK.json end_to_end" % workload)
        check(prov_a["input_digest"] == prov_b["input_digest"],
              "%s same seed, same inputs" % workload)
        check(counts_a == counts_b,
              "%s same seed, same per-layer counts and answer digest"
              % workload)
        check(prov_a["input_digest"] != prov_c["input_digest"],
              "%s second seed, different inputs" % workload)
        check(counts_a["answer_digest"] != counts_c["answer_digest"],
              "%s second seed, different answers" % workload)

    if failures:
        sys.exit("%d check(s) failed" % len(failures))
    print("all checks passed")


if __name__ == "__main__":
    main()
