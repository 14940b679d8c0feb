"""One benchmark child process: import couplingcert, then certify once.

Usage (started by run.py, with the checkout root as working directory):

    python3 -I perfbench/worker.py probe
    python3 -I perfbench/worker.py certify <workload> <seed> <traced 0|1>

The worker prints ``ready`` as soon as ``couplingcert`` is imported, so the
parent can time set-up.  ``probe`` then times the reference loop below and
prints its time as one JSON line.  ``certify`` runs ``run_all`` and
``render_report`` once and prints one JSON line with the wall and CPU time
of that call, the peak RSS and the report; a traced certify also carries the
per-layer metrics and writes its spans below ``perfbench/out``.

Right before and right after the call the worker times ``reference()``, a
fixed pure-Python loop that does not touch ``couplingcert``.  The processor
of a shared host runs faster and slower in phases of seconds to a minute;
the reference loop sees the same phase as the certification next to it, so
run.py divides by its time (see README.md, "Host speed").
"""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_RADIUS = 60
REFERENCE_ROUNDS = 20


def reference() -> tuple:
    """(wall, CPU) seconds of a fixed loop: breadth-first search of the
    radius-60 ball of Z^2 with tuple keys in a dict, 20 times over.

    It takes about 0.1 s and adds about 1 MiB to the resident set, far below
    any workload's peak.  The collector is off while it runs, so its time
    does not depend on how many objects the certification left behind.
    """
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    gc.collect()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(REFERENCE_ROUNDS):
        dist = {(0, 0): 0}
        frontier = [(0, 0)]
        for d in range(1, REFERENCE_RADIUS + 1):
            nxt = []
            for x, y in frontier:
                for dx, dy in steps:
                    p = (x + dx, y + dy)
                    if p not in dist:
                        dist[p] = d
                        nxt.append(p)
            frontier = nxt
    wall1, cpu1 = time.perf_counter(), time.process_time()
    gc.enable()
    return wall1 - wall0, cpu1 - cpu0


def main(argv: list) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import couplingcert
    from couplingcert import certify, cli

    if not os.path.abspath(couplingcert.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"couplingcert was imported from {couplingcert.__file__}, not from this checkout")
    print("ready", flush=True)
    import json
    import resource

    if argv[0] == "probe":
        print(json.dumps({"reference_before_s": reference()[0]}), flush=True)
        return

    import workloads

    name, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    cfg = cli.RunConfig(**workloads.config(name, seed))
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ref_before = reference()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    report = cli.render_report(certify.run_all(cfg))
    wall1, cpu1 = time.perf_counter(), time.process_time()
    ref_after = reference()
    result = {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "reference_before_s": ref_before[0],
        "reference_wall_s": (ref_before[0] + ref_after[0]) / 2,
        "reference_cpu_s": (ref_before[1] + ref_after[1]) / 2,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report": report,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["run_all_span_s"], result["run_all_tree_self_s"] = tracer.root("certify.run_all")
        tracer.write_spans(os.path.join(ROOT, "perfbench", "out", f"spans-{name}.json"))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
