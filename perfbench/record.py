"""Record the gate's references from the package under `src/`.

    python3 perfbench/record.py

Run at the commit whose outputs are the reference.  Writes
ref/outputs.json from one untraced run of every workload at seed 0, then
adds the call counts of traced runs to ref/counts.json under the digest
of `src/`, one entry per workload and seed in COUNT_SEEDS.
"""

from __future__ import annotations

import json

import gate
import run
import tracing
from workloads import WORKLOADS

COUNT_SEEDS = range(5)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)

    recorder = run.Runner(refs=None)
    version = recorder.cli("version", ["--version"], run.WORK / "version.out")
    refs = {"version": gate.summarize("version", version.out)}
    for workload in WORKLOADS:
        for r in run.run_once(recorder, workload, seed=0):
            if r.label != "verify":
                refs[r.label] = gate.summarize(r.label, r.out)
    if recorder.failures:
        raise SystemExit(f"recording failed: {recorder.failures}")
    gate.REF_PATH.write_text(json.dumps(refs, indent=1) + "\n")

    runner = run.Runner(gate.load_refs())
    counts = {}
    for workload in WORKLOADS:
        for seed in COUNT_SEEDS:
            results, spans = run.run_traced(runner, workload, seed)
            layer = tracing.layer_metrics(
                spans, sum(r.out_bytes for r in results))
            key = run.counts_key(workload, seed)
            counts[key] = run.exact_counts(layer)
            print(key, counts[key])
    if runner.failures:
        raise SystemExit(f"traced runs failed the gate: {runner.failures}")
    store = (json.loads(run.COUNTS_REF.read_text())
             if run.COUNTS_REF.exists() else {})
    store[run.src_digest()] = counts
    run.COUNTS_REF.write_text(json.dumps(store, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
