"""Certification benchmark for couplingcert.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shear-z2 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 300

Each certification runs in a fresh child process (perfbench/worker.py), one
at a time, for about ``--seconds`` (closed loop, one client): the loop stops
where the next round would end further past ``--seconds`` than stopping now
falls short of it, and never starts a round that could pass the deadline.
Before the loop, set-up probes time interpreter start plus
``import couplingcert``.  Every report goes through the gate in workloads.py.

Each child also times a fixed reference loop right before and right after
its certification.  ``certify_s`` and ``certify_cpu_s`` are the
certification's times scaled to a processor on which that loop takes
``REFERENCE_S`` seconds, which takes out the phases in which a shared host's
processor runs slower (README.md, "Host speed").  ``setup_s`` is scaled by
the loop's first timing in the same child.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced certifications and reports the
per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
median ``certify_s``.  ``--workload all`` runs every workload in interleaved
rounds and reports each metric as ``<workload>.<metric>``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBES = 10               # counted set-up probes, after one warm-up probe
REFERENCE_S = 0.1         # reference-loop seconds that certify_s is scaled to
DEADLINE_SLACK_S = 120    # a run ends within --seconds plus this: 170 s at 50 s


def spawn(args: list, deadline: float) -> tuple:
    """Run one worker; return (setup_s, result, error).

    ``setup_s`` is scaled like ``certify_s``, by the reference loop the
    worker times first after it is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", WORKER, *args], cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, "worker timed out"
    if ready != "ready\n" or proc.returncode != 0:
        tail = (err.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
        return None, None, f"worker failed: {tail}"
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return None, None, "worker printed no result"
    return setup * REFERENCE_S / result["reference_before_s"], result, None


class Tally:
    """Samples and failures of one workload at one seed."""

    def __init__(self, name: str, seed: int, probes: list):
        self.name, self.seed = name, seed
        self.setups = list(probes)
        self.untraced: list = []
        self.traced: list = []
        self.attempted = self.failed = 0
        self.first_report = None

    def certify(self, traced: bool, deadline: float) -> None:
        self.attempted += 1
        setup, res, error = spawn(["certify", self.name, str(self.seed), str(int(traced))],
                                  deadline)
        if error is None:
            error = workloads.check_report(self.name, self.seed, res["report"],
                                           self.first_report)
        if error is not None:
            self.failed += 1
            print(f"{self.name}: certification {self.attempted} failed: {error}",
                  file=sys.stderr)
            return
        if self.first_report is None:
            self.first_report = res["report"]
        res["certify_s"] = res["wall_s"] * REFERENCE_S / res["reference_wall_s"]
        res["certify_cpu_s"] = res["cpu_s"] * REFERENCE_S / res["reference_cpu_s"]
        if traced:
            self.traced.append(res)
        else:
            self.untraced.append(res)
            self.setups.append(setup)

    def median(self, key: str, results=None) -> float:
        values = [r[key] for r in (self.untraced if results is None else results)]
        return statistics.median(values) if values else 0.0

    def end_to_end(self) -> dict:
        return {
            "certify_s": self.median("certify_s"),
            "certify_cpu_s": self.median("certify_cpu_s"),
            "setup_s": statistics.median(self.setups) if self.setups else 0.0,
            "peak_rss_mib": self.median("peak_rss_mib"),
            "pass_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self, names: list) -> dict:
        layers = [r["layers"] for r in self.traced]
        out = {}
        for name in names:
            if name == "trace.overhead_s":
                out[name] = self.median("certify_s", self.traced) - self.median("certify_s")
            else:
                out[name] = statistics.median(l[name] for l in layers) if layers else 0.0
        return out

    def summary(self) -> list:
        times = sorted(r["certify_s"] for r in self.untraced)
        n = len(times)
        lines = [f"{self.name} seed {self.seed}: {self.attempted} certifications, "
                 f"{self.failed} failed (failed_frac {self.failed / self.attempted:.4f})"]
        # the highest percentile with at least ten samples beyond it
        p = math.floor(100 - 1000 / n) if n else 0
        tail = (f", p{p} {statistics.quantiles(times, n=100)[p - 1]:.4f} s" if p >= 50
                else ", no tail percentile (needs 20 samples)")
        e2e = self.end_to_end()
        lines.append(f"  certify_s      median {e2e['certify_s']:.4f} s{tail}, n={n}")
        lines.append(f"  certify_cpu_s  median {e2e['certify_cpu_s']:.4f} s, n={n}")
        lines.append(f"  (unscaled: wall median {self.median('wall_s'):.4f} s, "
                     f"CPU median {self.median('cpu_s'):.4f} s; reference loop median "
                     f"{self.median('reference_wall_s'):.4f} s, n={n})")
        lines.append(f"  setup_s        median {e2e['setup_s']:.4f} s, n={len(self.setups)}")
        lines.append(f"  peak_rss_mib   median {e2e['peak_rss_mib']:.2f} MiB, n={n}")
        lines.append(f"  pass_frac      {e2e['pass_frac']:.4f} ratio")
        return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "couplingcert", "__init__.py")):
        print("perfbench: no src/couplingcert in this checkout", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    deadline = start + args.seconds + DEADLINE_SLACK_S
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workloads.prepare(name, args.seed, ROOT)

    probes = []
    for i in range(PROBES + 1):
        setup, _, error = spawn(["probe"], deadline)
        if error is not None:
            print(f"perfbench: set-up probe failed: {error}", file=sys.stderr)
            return 2
        if i:
            probes.append(setup)

    tallies = [Tally(name, args.seed, probes) for name in names]
    loop_start = time.perf_counter()
    rounds = []
    while True:
        round_start = time.perf_counter()
        for tally in tallies:
            tally.certify(False, deadline)
            if args.trace:
                tally.certify(True, deadline)
        now = time.perf_counter()
        rounds.append(now - round_start)
        # stop where the next round would end nearer to --seconds past the start
        if (now - loop_start + statistics.median(rounds) / 2 >= args.seconds
                or now + max(rounds) > deadline):
            break

    for tally in tallies:
        print("\n".join(tally.summary()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for tally in tallies:
        values = tally.per_layer(wanted) if args.trace else tally.end_to_end()
        prefix = f"{tally.name}." if len(tallies) > 1 else ""
        for name in wanted:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]}
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(t.attempted for t in tallies),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
