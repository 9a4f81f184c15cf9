#!/usr/bin/env python3
"""Record the reference output of every benchmark input at the current commit.

    python3 perfbench/record_refs.py [workload ...]

Runs every input of the named workloads' pools (default: all) once
untraced and once traced, requires both outputs to pass the workload's own checks and to
agree, and writes perfbench/refs/<workload>.json.  Re-recording is a change
to the benchmark and belongs in its own change, never in one that claims a
speed-up.
"""

import json
import os
import sys

import run


def record(name: str) -> None:
    import workloads as wl
    from tracer import Tracer

    workload = wl.WORKLOADS[name]()
    items = workload.prepare(os.path.join(run.OUT, "record", name))
    refs = {}
    tracer = Tracer()
    for item in (it for row in items for twins in row for it in twins):
        output, _ = run.run_op(workload, item)
        if isinstance(output, Exception):
            raise RuntimeError(f"{name} {item.key}: {output!r}")
        ref = {"doc": item.digest, **workload.reference(item, output)}
        workload.stage(item)
        for out in (output, workload.run_traced(item, tracer)[0]):
            err = workload.check(item, out, ref)
            if err:
                raise RuntimeError(f"{name} {item.key}: {err}")
        refs[item.key] = ref
    path = os.path.join(wl.REFS_DIR, f"{name}.json")
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"workload": %s, "items": {\n' % json.dumps(name))
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in refs.items()))
        fh.write("\n}}\n")
    print(f"{name}: {len(refs)} references written to {os.path.relpath(path, run.ROOT)}")


def main(argv) -> int:
    error = run.bootstrap()
    if error:
        print(f"record_refs: {error}", file=sys.stderr)
        return 2
    import workloads as wl

    for name in argv or list(wl.WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
