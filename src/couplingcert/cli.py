"""Command-line pipeline: parse configuration, run stages, emit bit-exact
reports.

Configuration is ``key = value`` text (``#`` comments), read by
:func:`couplingcert.coarse.separated_lines`; flags override file values.
One table, ``_CONFIG_KEYS``, names each key, the field of
:class:`couplingcert.certify.RunConfig` it sets and its flag help; the
flags are generated from it.  Flags and file lines both give text, which
:func:`build_config` parses alike: a field of ``INT_FIELDS`` (annotated
``int``) as an integer, ``checks`` as a comma-separated list.  Every
subcommand validates the merged configuration with
:func:`couplingcert.certify.validate_config`, the same call ``run_all``
makes at its ``configure`` stage.  Every subcommand but ``demo`` writes
its text to ``--out`` when given, else to stdout.

Reports are canonical JSON with sorted keys inside each section, exact
rationals rendered as ``num/den`` strings, and a trailing newline, so
identical configs produce byte-identical output.

Exit codes: 0 when every non-vacuous check passes, 1 when any check
fails, 2 on a pipeline error.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

from .certify import (INT_FIELDS, Certificate, RunConfig, fmt_rat, make_models, run_all,
                      validate_config)
from .coarse import choose_scale, estimate_moduli, pipeline_moduli, separated_lines
from .coupling import build_partition, psi, serialize_density
from .errors import CouplingCertError, PreconditionError
from .groups import make_group
from .windows import build_window, greedy_net, packing_number


# config key (and flag name) -> (RunConfig field, flag help), in --help order
_CONFIG_KEYS = {
    "H": ("group_H", "source group descriptor, e.g. Z^1, F_2, Heis"),
    "G": ("group_G", "target group descriptor"),
    "map": ("map_descriptor", "identity | scale:k | embed | swap | matrix:a,b,c,d | table:path"),
    "rH": ("radius_H", "source window radius"),
    "rG": ("radius_G", "target window radius"),
    "eval": ("eval_radius", "evaluation window radius"),
    "seed": ("seed", "recorded in the report; no other effect"),
    "checks": ("checks", "comma-separated check subset, or 'all'"),
    "out": ("output_path", "output path (default stdout)"),
}


# the three built-in demo configurations exercised by `demo`
DEMO_CONFIGS = (
    ("identity-z", RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor="identity",
                             radius_H=24, radius_G=40, eval_radius=8, seed=7)),
    ("scale2-z", RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor="scale:2",
                           radius_H=16, radius_G=40, eval_radius=6)),
    ("shear-z2", RunConfig(group_H="Z^2", group_G="Z^2", map_descriptor="matrix:1,1,0,1",
                           radius_H=10, radius_G=30, eval_radius=2)),
)


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into RunConfig field values, as text.  A
    key on two lines is an error, naming both."""
    values: dict = {}
    line_of: dict = {}
    for lineno, key, value in separated_lines(path, "=", "config file", "key = value",
                                              PreconditionError):
        if key not in _CONFIG_KEYS:
            raise PreconditionError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise PreconditionError(
                f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        values[_CONFIG_KEYS[key][0]] = value
    return values


def build_config(args) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig.
    Both give every value as text, parsed here alike."""
    cfg = RunConfig()
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for flag, (fieldname, _) in _CONFIG_KEYS.items():
        v = getattr(args, flag, None)
        if v is not None:
            values[fieldname] = v
    for fieldname, v in values.items():
        if fieldname == "checks":
            v = [c.strip() for c in v.split(",") if c.strip()]
            if v == ["all"]:
                v = None
        elif fieldname in INT_FIELDS:
            try:
                v = int(v)
            except ValueError:
                raise PreconditionError(f"config value for {fieldname} must be an integer: {v!r}")
        setattr(cfg, fieldname, v)
    validate_config(cfg)
    return cfg


def render_report(cert: Certificate) -> str:
    return json.dumps(cert.to_report(), indent=2) + "\n"


def _write(text: str, path: Optional[str]) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PreconditionError(f"cannot write {path}: {exc}") from None
    else:
        sys.stdout.write(text)


def emit_report(cert: Certificate, path: Optional[str]) -> int:
    """Write (or print) the canonical report; return the exit code."""
    _write(render_report(cert), path)
    return 0 if cert.all_pass() else 1


def _add_common_flags(p) -> None:
    """Add ``--config`` and one flag per config key to the parser ``p``."""
    p.add_argument("--config", help="key = value config file")
    for flag, (_, text) in _CONFIG_KEYS.items():
        p.add_argument(f"--{flag}", help=text)


def _lines(lines: list) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_ball(cfg: RunConfig) -> str:
    H = make_group(cfg.group_H)
    W = build_window(H, cfg.radius_H)
    by_level = Counter(W.lengths)
    return _lines([f"group {H.descriptor} radius {W.radius}: {len(W)} elements"]
                  + [f"  length {l}: {by_level[l]}" for l in sorted(by_level)])


def cmd_moduli(cfg: RunConfig) -> str:
    H, G, phi = make_models(cfg)
    W_H = build_window(H, cfg.radius_H)
    W_G = build_window(G, cfg.radius_G)
    m = estimate_moduli(phi, W_H, W_G, 2 * W_H.radius)
    head = (f"# window-estimated moduli of {phi.descriptor}, t_max {m.t_max} "
            f"of {m.requested_t_max} requested")
    if m.truncated_at is not None:
        head += (f", truncated at t={m.truncated_at}, where an image distance "
                 "exceeds the target window")
    return _lines([head, "# t kappa omega pairs"]
                  + [f"{t} {m.kappa[t]} {m.omega[t]} {m.pair_counts[t]}"
                     for t in range(m.t_max + 1)])


def cmd_net(cfg: RunConfig, s: Optional[int]) -> str:
    if s is None:
        raise PreconditionError("net needs --s")
    H = make_group(cfg.group_H)
    W = build_window(H, cfg.radius_H)
    net = greedy_net(W, s)
    return _lines([f"# maximal {s}-discrete net in {H.descriptor} radius {cfg.radius_H}: "
                   f"{len(net.points)} points"]
                  + [H.format_element(y) for y in net.points])


def cmd_packing(cfg: RunConfig, separation, diam) -> str:
    G = make_group(cfg.group_G)
    W = build_window(G, cfg.radius_G)
    res = packing_number(W, separation, diam)
    kind = "exact" if res.exact else "upper-bound"
    return _lines([f"M = {res.value} ({kind})"] + ([f"# {res.note}"] if res.note else []))


def cmd_psi(cfg: RunConfig, h_text: Optional[str]) -> str:
    H, G, phi = make_models(cfg)
    h = H.identity if h_text is None else H.parse_element(h_text)
    W_H = build_window(H, cfg.radius_H)
    W_G = build_window(G, cfg.radius_G)
    m = pipeline_moduli(phi, W_H, W_G)
    P = build_partition(W_H, W_G, phi, m, choose_scale(m))
    return serialize_density(psi(P, phi, h))


def cmd_certify(cfg: RunConfig) -> int:
    cert = run_all(cfg)
    return emit_report(cert, cfg.output_path)


def cmd_demo() -> int:
    rows = []
    worst = 0
    for name, cfg in DEMO_CONFIGS:
        cert = run_all(cfg)
        statuses = {c.name: c.status for c in cert.checks}
        failed = [n for n, st in statuses.items() if st == "fail"]
        vacuous = [n for n, st in statuses.items() if st == "vacuous"]
        ok = not failed
        worst = max(worst, 0 if ok else 1)
        rows.append((name, cert.constants["s"], cert.constants["M"],
                     "pass" if ok else "FAIL",
                     ",".join(vacuous) if vacuous else "-"))
    print(f"{'config':<12} {'s':>3} {'M':>5} {'verdict':>8}  vacuous")
    for name, s, M, verdict, vac in rows:
        print(f"{name:<12} {fmt_rat(s):>3} {M:>5} {verdict:>8}  {vac}")
    return worst


def main(argv: Optional[list] = None) -> int:
    # imported here, so that importing the package loads no parser
    import argparse

    parser = argparse.ArgumentParser(
        prog="couplingcert",
        description="Finite-window certificates for topological couplings "
                    "built from coarse equivalences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ball", "moduli", "net", "packing", "psi", "certify"):
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name == "net":
            p.add_argument("--s", type=int, help="net scale")
        if name == "packing":
            p.add_argument("--sep", type=int, default=3, help="separation (default 3)")
            p.add_argument("--diam", type=int, required=True, help="diameter bound")
        if name == "psi":
            p.add_argument("--h", dest="h_text", help="evaluation point (element syntax)")
    sub.add_parser("demo")

    args = parser.parse_args(argv)
    try:
        if args.command == "demo":
            return cmd_demo()
        cfg = build_config(args)
        if args.command == "certify":
            return cmd_certify(cfg)
        if args.command == "ball":
            text = cmd_ball(cfg)
        elif args.command == "moduli":
            text = cmd_moduli(cfg)
        elif args.command == "net":
            text = cmd_net(cfg, args.s)
        elif args.command == "packing":
            text = cmd_packing(cfg, args.sep, args.diam)
        else:
            text = cmd_psi(cfg, args.h_text)
        _write(text, cfg.output_path)
        return 0
    except CouplingCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
