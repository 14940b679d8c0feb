"""The benchmark's workloads, their seeded inputs and the report gate.

Every workload is one ``couplingcert`` certification (``run_all`` and
``render_report``) of a fixed configuration.  The benchmark seed becomes the
configuration's sampling seed; for ``table-z2`` it also draws the lookup
table.  See README.md beside this file for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

DEFAULT_SEED = 0

# Digests pin each report at the default seed; ``checks=None`` selects all
# six checks.  The table path is part of the report's ``map`` field, so it
# is relative to the checkout root and the same on every run.
TABLE_PATH = "perfbench/out/table-z2.map"
TABLE_RADIUS = 24

WORKLOADS = {
    "shear-z2": {
        "config": dict(group_H="Z^2", group_G="Z^2", map_descriptor="matrix:1,1,0,1",
                       radius_H=10, radius_G=30, eval_radius=2, checks=None),
        "digest": "2310495a6e127524163ac907786d90894aa9dcba2e9a076db4887c2d0075e436",
    },
    "heis-id": {
        "config": dict(group_H="Heis", group_G="Heis", map_descriptor="identity",
                       radius_H=8, radius_G=14, eval_radius=1, checks=None),
        "digest": "efbf30960f7f3a0168d4e52d65d9e5bf2f9f4149ec576a8bfb2d7c8d430597f5",
    },
    "f2-id": {
        "config": dict(group_H="F_2", group_G="F_2", map_descriptor="identity",
                       radius_H=6, radius_G=10, eval_radius=2,
                       checks=["membership_x", "lipschitz", "sandwich"]),
        "digest": "766f66dadee93902b2de5942e06e213fae98eb1e426bb8b27a9a51a750024e12",
    },
    "table-z2": {
        "config": dict(group_H="Z^2", group_G="Z^2", map_descriptor=f"table:{TABLE_PATH}",
                       radius_H=TABLE_RADIUS, radius_G=52, eval_radius=0,
                       checks=["membership_x", "cocompactness_h", "properness_h"]),
        "digest": "73284d5761762c2c2d77da69fe6e6ed8acadaeda91839118d4270b993c6d4a9a",
    },
}


def config(name: str, seed: int) -> dict:
    """RunConfig field values of workload ``name`` at benchmark seed ``seed``."""
    return dict(WORKLOADS[name]["config"], seed=seed)


def seeds_input(name: str) -> bool:
    """True when the seed changes the inputs beyond the report's seed field."""
    return name == "table-z2"


def table_text(seed: int) -> str:
    """The ``table-z2`` map ``v -> v + e(v)`` on B(24) of Z^2, with
    ``e(v)`` drawn from ``{0, e1, e2}``."""
    rnd = random.Random(seed)
    lines = [f"# table-z2 lookup table, seed {seed}"]
    r = TABLE_RADIUS
    for x in range(-r, r + 1):
        for y in range(-(r - abs(x)), r - abs(x) + 1):
            dx, dy = rnd.choice(((0, 0), (1, 0), (0, 1)))
            lines.append(f"({x},{y}) -> ({x + dx},{y + dy})")
    return "\n".join(lines) + "\n"


def prepare(name: str, seed: int, root: str) -> None:
    """Write the workload's generated inputs below ``root`` (before timing)."""
    os.makedirs(os.path.join(root, "perfbench", "out"), exist_ok=True)
    if name == "table-z2":
        with open(os.path.join(root, TABLE_PATH), "w") as fh:
            fh.write(table_text(seed))


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def check_report(name: str, seed: int, report: str, first: str | None) -> str | None:
    """Why ``report`` is wrong, or None when it passes the gate.

    Every run of one seed must give the bytes of its first run, and no
    check may fail.  A report whose inputs the seed does not change must
    equal the pinned report once its seed field is reset to the default
    seed; a seeded input has a pinned digest at the default seed only.
    """
    if first is not None and report != first:
        return "report differs from the first report of this seed"
    try:
        parsed = json.loads(report)
    except ValueError:
        return "report is not JSON"
    failed = [c["name"] for c in parsed["checks"] if c["status"] == "fail"]
    if failed:
        return f"checks failed: {failed}"
    if seed != DEFAULT_SEED:
        if seeds_input(name):
            return None
        parsed["window_metadata"]["seed"] = DEFAULT_SEED
        report = json.dumps(parsed, indent=2) + "\n"
    if digest(report) != WORKLOADS[name]["digest"]:
        return f"report digest {digest(report)[:16]} differs from the pinned digest"
    return None
