"""CLI: config parsing, subcommands, canonical reports, exit codes."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from couplingcert import cli, coarse, windows
from couplingcert.certify import CHECK_NAMES, Certificate, CheckResult, run_all, validate_config
from couplingcert.cli import (
    _CONFIG_KEYS,
    RunConfig,
    _add_common_flags,
    build_config,
    emit_report,
    main,
    parse_config_file,
    render_report,
)
from couplingcert.errors import PipelineError, PreconditionError


class _Args:
    def __init__(self, **kw):
        self.config = None
        for flag in _CONFIG_KEYS:
            setattr(self, flag, None)
        for k, v in kw.items():
            setattr(self, k, v)


def _parse_flags(argv: list):
    p = argparse.ArgumentParser()
    _add_common_flags(p)
    return p.parse_args(argv)


def test_build_config_from_flags():
    args = _Args(H="Z^1", G="Z^1", map="identity", rH=24, rG=40, eval=8)
    cfg = build_config(args)
    assert cfg == RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor="identity",
                            radius_H=24, radius_G=40, eval_radius=8)


def test_build_config_map_variants():
    cfg = build_config(_Args(map="scale:2", rH=10, rG=20, eval=3))
    assert cfg.map_descriptor == "scale:2"


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# demo\nH = Z^2\nG = Z^2\nmap = matrix:1,1,0,1\n"
                 "rH = 10\nrG = 30\neval = 2\nseed = 3\n")
    values = parse_config_file(p)
    assert values["group_H"] == "Z^2"
    args = _Args(config=str(p), seed=9)  # flags override the file
    cfg = build_config(args)
    assert cfg.seed == 9
    assert cfg.radius_H == 10


# one accepted value per config key, each away from its default
GOOD_VALUES = {"H": "Z^2", "G": "Z^2", "map": "matrix:1,1,0,1", "rH": "10", "rG": "30",
               "eval": "2", "seed": "3", "checks": "lipschitz,sandwich", "out": "r.json"}


@pytest.mark.parametrize("key", list(_CONFIG_KEYS))
def test_a_key_set_by_flag_or_by_file_gives_the_same_config(tmp_path, key):
    p = tmp_path / "run.cfg"
    p.write_text(f"{key} = {GOOD_VALUES[key]}\n")
    by_file = build_config(_parse_flags(["--config", str(p)]))
    by_flag = build_config(_parse_flags([f"--{key}={GOOD_VALUES[key]}"]))
    assert by_flag == by_file != RunConfig()
    field = _CONFIG_KEYS[key][0]
    if isinstance(getattr(RunConfig(), field), int):
        assert type(getattr(by_file, field)) is int


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    text = "H = Z^2\nrH = 2\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert parse_config_file(bom) == parse_config_file(plain) == {"group_H": "Z^2",
                                                                 "radius_H": "2"}
    outputs = []
    for p in (plain, bom):
        assert main(["ball", "--config", str(p)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "13 elements" in outputs[0]


def test_non_ascii_files_read_and_write_under_the_c_locale(tmp_path):
    # a table and a config with UTF-8 comments, the table with a byte order
    # mark, read by a child process whose locale encoding is ASCII; the
    # report it writes is the one an in-process run renders
    table = tmp_path / "shift.map"
    table.write_text("# Verschiebung \u2014 d\u00e9cal\u00e9e\n"
                     + "".join(f"{n} -> {n + 1}\n" for n in range(-8, 9)), encoding="utf-8-sig")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# fen\u00eatre\nmap = table:{table}\nrH = 8\nrG = 16\neval = 2\n",
                   encoding="utf-8")
    out = tmp_path / "report.json"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "couplingcert.cli", "certify", "--config",
                           str(cfg), "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode in (0, 1), done.stderr
    want = render_report(run_all(build_config(_Args(config=str(cfg)))))
    assert out.read_text(encoding="utf-8") == want


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("radius = 3\n")
    with pytest.raises(PreconditionError) as exc:
        parse_config_file(p)
    assert ":1:" in str(exc.value)


def test_config_file_repeated_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("rH = 24\n# smaller\nrG = 30\nrH = 12\n")
    with pytest.raises(PreconditionError) as exc:
        parse_config_file(p)
    msg = str(exc.value)
    assert ":4:" in msg and "line 1" in msg and "'rH'" in msg
    # a flag still overrides a key the file sets once
    p.write_text("rH = 24\nrG = 30\n")
    assert build_config(_Args(config=str(p), rH=12)).radius_H == 12


def test_config_rejects_bad_values():
    with pytest.raises(PreconditionError):
        build_config(_Args(rH=-1))
    with pytest.raises(PreconditionError):
        build_config(_Args(checks="lipschitz,unheard_of"))


@pytest.mark.parametrize("key,text", [("rH", "abc"), ("seed", "1.5"), ("eval", "")])
def test_a_non_integer_prints_one_error_from_flag_or_file(tmp_path, capsys, key, text):
    # flags carry text as file lines do, and build_config parses both
    p = tmp_path / "run.cfg"
    p.write_text(f"{key} = {text}\n")
    field = _CONFIG_KEYS[key][0]
    for given in ([f"--{key}={text}"], ["--config", str(p)]):
        assert main(["certify", *given]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config value for {field} must be an integer: {text!r}\n"
        assert not captured.out


def test_all_selects_every_check_from_flag_or_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("checks = all\n")
    for args in (_parse_flags(["--checks", "all"]), _parse_flags(["--config", str(p)])):
        cfg = build_config(args)
        assert cfg.checks is None and validate_config(cfg) == set(CHECK_NAMES)


@pytest.mark.parametrize("name,text,message", [
    ("run.cfg", "seed = 1\nrH 3\n", "{path}:2: expected 'key = value', got 'rH 3'"),
    ("run.cfg", "seed = 1\n\n seed = 2\n", "{path}:3: key 'seed' already set on line 1"),
    ("run.cfg", "# seed = 1\nradius = 3\n", "{path}:2: unknown key 'radius'"),
    ("phi.map", "0 -> 0\n  1 => 1\n", "[groups] {path}:2: expected '<src> -> <tgt>', got '  1 => 1'"),
    ("phi.map", "0 -> 0\n# again\n0 -> 1\n",
     "[groups] {path}:3: source 0 already mapped on line 1"),
    ("phi.map", "0 -> x\n", "[groups] {path}:1: bad Z^1 element: 'x'"),
    ("absent.cfg", None, "cannot read config file {path}: "),
    ("absent.map", None, "[groups] cannot read lookup table {path}: "),
], ids=["config-separator", "config-repeat", "config-unknown", "table-separator",
        "table-repeat", "table-element", "config-unreadable", "table-unreadable"])
def test_line_file_errors_name_the_file_and_the_line(tmp_path, capsys, name, text, message):
    # config files and lookup tables share one reader and its messages
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    given = ["--config", str(path)] if name.endswith(".cfg") else ["--map", f"table:{path}"]
    assert main(["certify", "--rH", "4", "--rG", "8", "--eval", "0", *given]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path))
    assert text is None or err.endswith(message.format(path=path) + "\n")


def test_ball_subcommand(capsys):
    assert main(["ball", "--H", "Z^1", "--rH", "3"]) == 0
    out = capsys.readouterr().out
    assert "7 elements" in out


def test_moduli_subcommand(capsys):
    assert main(["moduli", "--H", "Z^1", "--G", "Z^1", "--map", "scale:2",
                 "--rH", "4", "--rG", "40"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l and not l.startswith("#")]
    table = {int(l.split()[0]): tuple(int(x) for x in l.split()[1:3]) for l in lines}
    assert table == {t: (2 * t, 2 * t) for t in range(9)}


def test_moduli_subcommand_scans_to_twice_the_source_radius(capsys):
    assert main(["moduli", "--H", "Z^1", "--G", "Z^1", "--map", "scale:2",
                 "--rH", "10", "--rG", "40"]) == 0
    out = capsys.readouterr().out
    assert "t_max 20" in out.splitlines()[0]
    rows = [l.split() for l in out.splitlines() if l and not l.startswith("#")]
    assert [int(r[0]) for r in rows] == list(range(21))
    assert all(int(r[1]) == int(r[2]) == 2 * int(r[0]) for r in rows)


def test_net_subcommand(capsys):
    assert main(["net", "--H", "Z^1", "--rH", "10", "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert "7 points" in out


def test_net_past_the_window_grows_no_ball(monkeypatch, capsys):
    # every element of the radius-6 window lies within 6 < 13 of the
    # identity: the one ball grown is the window's own
    searches = []
    grow = windows._grow

    def spy(*args):
        searches.append(args[-1])
        return grow(*args)

    monkeypatch.setattr(windows, "_grow", spy)
    assert main(["net", "--H", "F_2", "--rH", "6", "--s", "13"]) == 0
    assert capsys.readouterr().out == "# maximal 13-discrete net in F_2 radius 6: 1 points\n1\n"
    assert searches == [6]


def test_net_without_s_exits_2_before_building_a_window(monkeypatch, capsys):
    def no_window(*args):
        raise AssertionError("build_window called")

    monkeypatch.setattr(cli, "build_window", no_window)
    assert main(["net", "--H", "F_2", "--rH", "9"]) == 2
    assert capsys.readouterr().err == "error: net needs --s\n"


def test_packing_subcommand(capsys):
    assert main(["packing", "--G", "Z^1", "--rG", "20", "--diam", "16"]) == 0
    assert "M = 6 (exact)" in capsys.readouterr().out


def test_psi_subcommand(capsys):
    assert main(["psi", "--H", "Z^1", "--G", "Z^1", "--map", "identity",
                 "--rH", "24", "--rG", "40", "--eval", "8", "--h", "0"]) == 0
    out = capsys.readouterr().out
    assert "# block 0 2/3" in out
    assert "# block 3 1/6" in out
    assert "# block -3 1/6" in out


def test_certify_report_is_byte_identical(tmp_path, capsys):
    argv = ["certify", "--H", "Z^1", "--G", "Z^1", "--map", "identity",
            "--rH", "12", "--rG", "24", "--eval", "3", "--seed", "5"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.endswith(b"\n")
    report = json.loads(b1)
    assert list(report) == ["constants", "checks", "window_metadata"]
    # the small window leaves properness_h vacuous; nothing may fail
    assert all(c["status"] in ("pass", "vacuous") for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert report["constants"]["N_empirical"].count("/") == 1  # exact rational text


def test_report_has_no_floats(tmp_path):
    argv = ["certify", "--rH", "12", "--rG", "24", "--eval", "3",
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "r.json").read_text())

    def walk(v):
        assert not isinstance(v, float), v
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        if isinstance(v, list):
            for x in v:
                walk(x)

    walk(report)


def test_exit_codes_from_emit_report(tmp_path, capsys):
    passing = Certificate(
        constants={}, window_metadata={},
        checks=[CheckResult("lipschitz", None, Fraction(1), 1),
                CheckResult("sandwich", None, None, 0)])
    failing = Certificate(
        constants={}, window_metadata={},
        checks=[CheckResult("lipschitz", None, Fraction(-1), 1)])
    assert emit_report(passing, None) == 0
    assert emit_report(failing, None) == 1
    capsys.readouterr()


def test_pipeline_error_exit_code(tmp_path, capsys):
    table = tmp_path / "const.txt"
    table.write_text("\n".join(f"{n} -> 0" for n in range(-12, 13)) + "\n")
    code = main(["certify", "--map", f"table:{table}", "--rH", "12",
                 "--rG", "24", "--eval", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "[scale]" in err and "bounded" in err


def test_a_truncated_table_is_not_blamed_on_the_map(tmp_path, capsys):
    # v -> 5v expands distances, but with rG = 3 every image pair at source
    # distance 1 leaves the target window: the table stops at t = 0, and
    # the error says so instead of calling kappa bounded
    table = tmp_path / "x5.map"
    table.write_text("".join(f"{v} -> {5 * v}\n" for v in range(-4, 5)))
    flags = ["--H", "Z", "--G", "Z", "--map", f"table:{table}", "--rH", "4", "--rG", "3"]
    assert main(["certify", *flags, "--eval", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [scale] kappa reaches only 0 at t_max=0: the table is "
                          "truncated at t=1") and "bounded" not in err
    assert main(["moduli", *flags]) == 0
    assert capsys.readouterr().out == (
        f"# window-estimated moduli of table:{table}, t_max 0 of 8 requested, truncated "
        "at t=1, where an image distance exceeds the target window\n"
        "# t kappa omega pairs\n0 0 0 9\n")


def test_only_the_moduli_subcommand_counts_pairs(tmp_path, monkeypatch, capsys):
    # run_all reads kappa and omega of the table scan, never its pair
    # counts; the moduli subcommand reads them on every row, counted once
    calls = []
    count = coarse._source_pair_counts

    def spy(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(coarse, "_source_pair_counts", spy)
    table = tmp_path / "id.map"
    table.write_text("".join(f"{v} -> {v}\n" for v in range(-10, 11)))
    flags = ["--H", "Z^1", "--G", "Z^1", "--map", f"table:{table}", "--rH", "10", "--rG", "25"]
    cfg = RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor=f"table:{table}",
                    radius_H=10, radius_G=25, eval_radius=2)
    assert run_all(cfg).checks and calls == []
    assert main(["moduli", *flags]) == 0
    rows = [l.split() for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert [int(r[3]) for r in rows] == [21] + [21 - t for t in range(1, 21)]
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--out", "{tmp}/missing/r.json"],
    ["certify", "--config", "{tmp}/absent.cfg"],
    ["certify", "--config", "{tmp}/binary.cfg"],
    ["certify", "--map", "table:{tmp}/absent.map"],
    ["moduli", "--map", "table:{tmp}/absent.map"],
    ["certify", "--map", "table:{tmp}/repeated.map"],
    ["certify", "--config", "{tmp}/repeated.cfg"],
], ids=["unwritable-out", "missing-config", "undecodable-config", "missing-table",
        "missing-table-moduli", "repeated-source", "repeated-config-key"])
def test_bad_outside_input_exits_2(tmp_path, capsys, argv):
    # exit 1 means a check failed; unusable input is an error, exit 2
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "repeated.cfg").write_text("seed = 1\nseed = 2\n")
    (tmp_path / "repeated.map").write_text(
        "\n".join(f"{n} -> {n}" for n in range(-12, 13)) + "\n0 -> 7\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--rH", "12", "--rG", "24", "--eval", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_epsilon_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    # properness, the left action and cocompactness are certified on
    # [K, 1/2] only; a run that asks for another threshold is refused
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--epsilon", "1/3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon 1/3" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 1/3\n")
    assert main(["certify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'epsilon'\n"


BAD_VALUES = [("rH", "0"), ("rG", "0"), ("eval", "-1"), ("checks", "nope")]


@pytest.mark.parametrize("key,text", BAD_VALUES, ids=[f"{k}={v}" for k, v in BAD_VALUES])
def test_a_bad_value_is_rejected_at_configure_everywhere(capsys, key, text):
    # one validator: run_all rejects the value at its configure stage, and
    # certify, psi and moduli, which run no run_all, print the same message
    field = _CONFIG_KEYS[key][0]
    value = [text] if field == "checks" else int(text)
    with pytest.raises(PipelineError) as exc:
        run_all(RunConfig(**{field: value}))
    assert exc.value.stage == "configure"
    for command in ("certify", "psi", "moduli"):
        argv = [command, "--rH", "12", "--rG", "24", "--eval", "3", f"--{key}={text}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {exc.value.cause}\n" and not captured.out, command


@pytest.mark.parametrize("source", ["--checks=", "--checks=,", "config"])
def test_an_empty_check_selection_exits_2(tmp_path, capsys, source):
    # an empty list is not "all": certify, psi and moduli refuse it
    (tmp_path / "empty.cfg").write_text("checks =\n")
    given = ["--config", str(tmp_path / "empty.cfg")] if source == "config" else [source]
    for command in ("certify", "psi", "moduli"):
        assert main([command, "--rH", "12", "--rG", "24", "--eval", "3"] + given) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: checks must be a nonempty list of check names, got []\n"
        assert not captured.out, command


@pytest.mark.parametrize("group", ["C_1", "Z^1 x C_1"])
def test_certify_with_a_trivial_cyclic_factor(tmp_path, group):
    # C_1 has no generator: its identity used to be listed as one, which
    # made every unit ball repeat the identity and every psi fail
    out = tmp_path / "r.json"
    assert main(["certify", "--H", group, "--G", group, "--rH", "12", "--rG", "24",
                 "--eval", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["window_metadata"]["group_H"] == group


def test_a_table_line_with_a_blank_source_exits_2(tmp_path, capsys):
    # a blank F_k word is no spelling of the identity, which is written 1
    table = tmp_path / "blank.map"
    table.write_text(" -> ab\n")
    assert main(["certify", "--H", "F_2", "--G", "F_2", "--map", f"table:{table}",
                 "--rH", "2", "--rG", "4", "--eval", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: [groups] {table}:1: empty F_2 word")
    assert main(["psi", "--H", "F_2", "--G", "F_2", "--rH", "4", "--rG", "8", "--h", " "]) == 2
    assert capsys.readouterr().err.startswith("error: empty F_2 word")


# one run of each subcommand that writes text; certify's report is covered above
TEXT_COMMANDS = {
    "ball": ["ball", "--H", "F_2", "--rH", "2"],
    "moduli": ["moduli", "--H", "Z^1", "--G", "Z^1", "--map", "scale:2", "--rH", "4",
               "--rG", "40"],
    "net": ["net", "--H", "Z^1", "--rH", "10", "--s", "3"],
    "packing": ["packing", "--G", "Z^1", "--rG", "20", "--diam", "16"],
    "psi": ["psi", "--H", "Z^1", "--G", "Z^1", "--map", "identity", "--rH", "24", "--rG", "40",
            "--h", "2"],
}


@pytest.mark.parametrize("command", list(TEXT_COMMANDS))
def test_out_receives_exactly_what_a_subcommand_prints(tmp_path, capsys, command):
    argv = TEXT_COMMANDS[command]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_text(encoding="utf-8") == printed


def test_the_readme_table_lists_every_config_key():
    # one row per key: `key` | `RunConfig field` | flag help, with \| for a
    # literal bar inside a cell
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = [c.strip().replace("\\|", "|")
                     for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows.append((cells[0].strip("`"), (cells[1].strip("`"), cells[2])))
    assert rows == list(_CONFIG_KEYS.items())


def test_demo_subcommand(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "identity-z" in out and "scale2-z" in out and "shear-z2" in out
    assert "FAIL" not in out


def test_render_report_statuses_lowercase():
    cert = Certificate(constants={"s": Fraction(3)}, window_metadata={},
                       checks=[CheckResult("x", None, Fraction(0), 1)])
    text = render_report(cert)
    assert '"status": "pass"' in text
    assert '"s": "3"' in text
