"""The package as a whole: what importing it loads, and the record classes'
per-instance state."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from couplingcert.certify import CheckResult
from couplingcert.groups import make_group
from couplingcert.windows import build_window

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_inspect_or_argparse():
    # -I -S: no user site, no environment variables and no site .pth
    # imports, so the modules loaded are the package's own on every machine
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import couplingcert, couplingcert.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_records_do_not_share_a_default_dict():
    Z = make_group("Z^1")
    a, b = build_window(Z, 2), build_window(Z, 2)
    a.kernels[(1,)] = (0, 2)
    assert b.kernels == {} and a.kernels is not b.kernels
    r, s = CheckResult("x", None, None, 0), CheckResult("y", None, None, 0)
    r.details["k"] = 1
    assert s.details == {} and r.details is not s.details
