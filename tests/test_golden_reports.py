"""Golden reports: the canonical report bytes of the built-in demo
configurations are pinned by SHA-256.

A refactor or speed-up must leave these digests unchanged.  A change that
alters a report on purpose updates the digest here and says why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from couplingcert.certify import run_all
from couplingcert.cli import DEMO_CONFIGS, RunConfig, main, render_report

GOLDEN = {
    "identity-z": "82304e42e90f39f8cd84c553d193c9f25b9aa6cfbc7b34b8771287af39c18bcb",
    "scale2-z": "1bac3e60d751b9b2e258f05ee947988190f136edbba3a38fb97387fef6e3c187",
    "shear-z2": "2310495a6e127524163ac907786d90894aa9dcba2e9a076db4887c2d0075e436",
}


def test_every_demo_config_is_pinned():
    assert sorted(name for name, _ in DEMO_CONFIGS) == sorted(GOLDEN)


@pytest.mark.parametrize("name,cfg", DEMO_CONFIGS, ids=[n for n, _ in DEMO_CONFIGS])
def test_golden_report_digest(name, cfg):
    text = render_report(run_all(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


def _benchmark_workloads():
    """perfbench/workloads.py, which pins the benchmark's reports."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()


# the benchmark workloads outside the demo configurations, at their pinned seed
@pytest.mark.parametrize("name", ["heis-id", "f2-id"])
def test_benchmark_workload_report_digest(name):
    cfg = RunConfig(**WORKLOADS.config(name, WORKLOADS.DEFAULT_SEED))
    text = render_report(run_all(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == WORKLOADS.WORKLOADS[name]["digest"]


@pytest.fixture
def table_z2_checkout(tmp_path, monkeypatch):
    """A working directory holding the ``table-z2`` lookup table at seed 0
    under its relative path, which the report's ``map`` field names."""
    table = tmp_path / WORKLOADS.TABLE_PATH
    table.parent.mkdir(parents=True)
    table.write_text(WORKLOADS.table_text(WORKLOADS.DEFAULT_SEED))
    monkeypatch.chdir(tmp_path)
    return WORKLOADS.TABLE_PATH


def test_table_workload_report_digest(table_z2_checkout):
    # the one pinned workload whose moduli come from the window pair scan
    cfg = RunConfig(**WORKLOADS.config("table-z2", WORKLOADS.DEFAULT_SEED))
    text = render_report(run_all(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == WORKLOADS.WORKLOADS["table-z2"]["digest"]


def test_moduli_subcommand_output_on_the_table_workload(table_z2_checkout, capsys):
    # the only output that prints pair_counts; W_G = B(20) truncates the
    # table at 18 of the 24 requested distances, which the header names.
    # The digest pins the rows below the header.
    argv = ["moduli", "--H", "Z^2", "--G", "Z^2", "--map", f"table:{table_z2_checkout}",
            "--rH", "12", "--rG", "20"]
    assert main(argv) == 0
    head, rows = capsys.readouterr().out.split("\n", 1)
    assert head == (f"# window-estimated moduli of table:{table_z2_checkout}, t_max 18 of "
                    "24 requested, truncated at t=19, where an image distance exceeds "
                    "the target window")
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "a3756240443ad2e224eccf2ba234daa37e5812ae9900f89eeeb7c23114bcc2ca")
