"""The slow twin: each configuration certified twice, once as shipped and
once with every fast path swapped for its oracle in ``oracles.py``.  The
two reports must be byte-identical.

``SWAPS`` holds one row per fast path: the ``couplingcert`` module that
defines the routine, its name, and the oracle.  A swap rebinds the name in
every loaded ``couplingcert`` module that holds the routine, so
``from .windows import pair_extremes`` in ``certify`` calls the oracle too.

Run as a script, the file checks the four full-size benchmark workloads of
``perfbench/workloads.py`` instead, and then the demo configurations that
are not among them: no full-size workload builds a distance field, while
the two ``Z^1`` demos each build one in ``check_properness_h`` and one in
``_g_properness``.  Each line gives the wall
seconds of the shipped run and of the oracle run beside the verdict.  From
the checkout root::

    PYTHONPATH=src python tests/test_slow_twin.py
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

import pytest

from couplingcert.certify import CHECK_NAMES, run_all
from couplingcert.cli import DEMO_CONFIGS, RunConfig, render_report

import oracles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SWAPS = (
    ("windows", "pair_extremes", oracles.pair_extremes),
    ("windows", "distances_from", oracles.distances_from),
    ("coupling", "l1_distance", oracles.l1_distance),
    ("coupling", "support_distance", oracles.support_distance),
    ("coupling", "support_diameter", oracles.support_diameter),
    ("certify", "_g_properness", oracles.g_properness),
    ("certify", "_kappa_sublevel_radius", oracles.kappa_sublevel_radius),
    ("certify", "_far_shell", oracles.far_shell),
    ("coarse", "_l1_pair_keys", oracles.l1_pair_keys),
    ("coarse", "_window_table", oracles.window_table),
    ("coarse", "cobounded_radius", oracles.cobounded_radius),
    ("windows", "greedy_net", oracles.greedy_net_scan),
    ("coupling", "_bump_walk", oracles.bump_walk),
    ("windows", "build_window", oracles.build_window),
    ("windows", "ball_window", oracles.ball_window),
    ("windows", "distance_field", oracles.distance_field),
    ("coarse", "homomorphic_moduli", oracles.homomorphic_moduli),
    ("windows", "packing_bound", oracles.packing_bound),
)

# reduced-radius copies of the benchmark workloads (shear-z2 is a demo
# configuration already); the table is written to a temporary directory.
# On Heis, g_action alone would take ~6 s: its candidates need the ball of
# radius tau+2, which the shipped run grows from W_G and the oracle side
# builds afresh, and its oracle resolves every support-to-K_G distance
# pair by pair.
SMALL = {
    "heis-id": dict(radius_H=5, radius_G=8,
                    checks=[c for c in CHECK_NAMES if c != "g_action"]),
    "f2-id": dict(radius_H=6, radius_G=8),
    "table-z2": dict(radius_H=12, radius_G=28),
}

# a grid of 41 g times 321 h, certified whole: the largest sample grid of
# any configuration here
SAMPLED = {
    "sampled-z4": RunConfig(group_H="Z^4", group_G="Z^4", map_descriptor="identity",
                            radius_H=8, radius_G=16, eval_radius=0,
                            checks=["sandwich", "properness_h", "cocompactness_h"]),
}


@contextmanager
def rebound(replace: dict):
    """Each function key of ``replace`` rebound to its value in every loaded
    ``couplingcert`` module that holds it."""
    bound = [(mod, attr, obj)
             for modname, mod in list(sys.modules.items())
             if modname == "couplingcert" or modname.startswith("couplingcert.")
             for attr, obj in list(vars(mod).items())
             if inspect.isfunction(obj) and obj in replace]
    for mod, attr, obj in bound:
        setattr(mod, attr, replace[obj])
    try:
        yield
    finally:
        for mod, attr, obj in bound:
            setattr(mod, attr, obj)


def counted(name: str, fn, calls: Counter):
    """``fn``, counting its calls in ``calls[name]``."""
    def run(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return run


@contextmanager
def slow_paths(calls: Counter):
    """Every ``SWAPS`` routine replaced by its oracle, counting the oracle
    calls in ``calls`` by routine name."""
    with rebound({getattr(import_module(f"couplingcert.{module}"), name):
                  counted(name, oracle, calls) for module, name, oracle in SWAPS}):
        yield


def twin_reports(cfg: RunConfig, calls: Counter) -> tuple:
    """(shipped report, report with every fast path on its oracle, wall
    seconds of the shipped run, wall seconds of the oracle run)."""
    start = time.perf_counter()
    shipped = render_report(run_all(cfg))
    middle = time.perf_counter()
    with slow_paths(calls):
        slow = render_report(run_all(cfg))
    return shipped, slow, middle - start, time.perf_counter() - middle


def small_config(name: str, root) -> RunConfig:
    values = {**workloads.config(name, workloads.DEFAULT_SEED), **SMALL[name]}
    if name == "table-z2":
        path = Path(root) / "table-z2.map"
        path.write_text(workloads.table_text(workloads.DEFAULT_SEED))
        values["map_descriptor"] = f"table:{path}"
    return RunConfig(**values)


TWIN_NAMES = [n for n, _ in DEMO_CONFIGS] + sorted(SMALL) + list(SAMPLED)


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """({name: twin_reports(...)} over every configuration, oracle calls)."""
    calls = Counter()
    named = {**dict(DEMO_CONFIGS), **SAMPLED}
    root = tmp_path_factory.mktemp("twin")
    reports = {name: twin_reports(named[name] if name in named else small_config(name, root),
                                  calls)
               for name in TWIN_NAMES}
    return reports, calls


@pytest.mark.parametrize("name", TWIN_NAMES)
def test_reports_match_on_the_oracles(twins, name):
    shipped, slow, _, _ = twins[0][name]
    assert slow == shipped


def test_a_sampled_grid_gives_the_same_report_every_run(twins):
    # all 13,161 pairs of the grid are certified, whatever the seed: two
    # seeds give one report once the echoed seed is reset
    shipped = twins[0]["sampled-z4"][0]
    assert render_report(run_all(SAMPLED["sampled-z4"])) == shipped
    assert '"sample_count": 13161,' in shipped

    def report(seed):
        cert = run_all(RunConfig(**{**vars(SAMPLED["sampled-z4"]), "seed": seed}))
        cert.window_metadata["seed"] = None
        return render_report(cert)

    assert report(0) == report(5)


def test_every_swap_was_called(twins):
    assert sorted(twins[1]) == sorted(name for _, name, _ in SWAPS)


def test_run_all_never_runs_the_packing_search(tmp_path):
    # the pipeline's M is the volume bound; only the packing subcommand
    # runs the branch and bound, which spends its whole node budget here
    calls = Counter()
    search = import_module("couplingcert.windows").packing_number
    with rebound({search: counted("packing_number", search, calls)}):
        run_all(small_config("table-z2", tmp_path))
    assert not calls


def main() -> int:
    os.chdir(ROOT)  # the table path of table-z2 is relative to the checkout root
    calls = Counter()
    failed = []
    runs = []
    for name in workloads.WORKLOADS:
        workloads.prepare(name, workloads.DEFAULT_SEED, str(ROOT))
        runs.append((name, RunConfig(**workloads.config(name, workloads.DEFAULT_SEED))))
    runs += [(name, cfg) for name, cfg in DEMO_CONFIGS if name not in workloads.WORKLOADS]
    for name, cfg in runs:
        shipped, slow, shipped_s, slow_s = twin_reports(cfg, calls)
        same = slow == shipped
        print(f"{name}: {'identical' if same else 'REPORTS DIFFER'}"
              f" (shipped {shipped_s:.2f} s, oracles {slow_s:.2f} s)")
        if not same:
            failed.append(name)
    missing = [name for _, name, _ in SWAPS if not calls[name]]
    if missing:
        print(f"never called: {missing}")
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
