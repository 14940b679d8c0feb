"""Golden densities: the exact bytes printed by ``couplingcert psi``.

The SHA-256 pins every atom line; the comment tail (normalizer and block
lines) is also spelled out so a failure shows what moved.  A change to the
number format of densities must leave this output unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from couplingcert.cli import main

SHEAR = ["--H", "Z^2", "--G", "Z^2", "--map", "matrix:1,1,0,1", "--rH", "10", "--rG", "30"]
HEIS = ["--H", "Heis", "--G", "Heis", "--map", "identity", "--rH", "6", "--rG", "10"]

GOLDEN = {
    # shear Z^2 at the identity: s = 5, inner radius 4
    "shear-identity": (
        SHEAR,
        "5d9c3624d623986821fea9d8d0b9f29f4160d1590388cb7101e2fd2b74dfc81c",
        31,
        ["# normalizer 1/5", "# block (0,0) 3/5", "# block (5,0) 1/10",
         "# block (5,3) 1/10", "# block (-1,-3) 1/10", "# block (-5,0) 1/10"],
    ),
    # (0,4) has length 4, on the boundary of the inner window
    "shear-boundary": (
        SHEAR + ["--h", "(0,4)"],
        "f0dbc2f41a97c18252cc639e6cf69afbbf9af03a5ff95ad1480032d7f5b5fa6a",
        25,
        ["# normalizer 1/5", "# block (0,0) 2/11", "# block (5,3) 3/11",
         "# block (0,3) 2/11", "# block (6,6) 4/11"],
    ),
    # (1,1,1) is not central in Heis
    "heis-noncentral": (
        HEIS + ["--h", "(1,1,1)"],
        "c1c8b7e5be746ff353ce07bdb359f94b7c0c6e9354c2a474658318f2f412ab43",
        61,
        ["# normalizer 1/5", "# block (0,0,0) 2/15", "# block (3,0,0) 1/15",
         "# block (2,1,1) 1/5", "# block (2,-1,-1) 1/15", "# block (0,-1,1) 1/15",
         "# block (2,1,0) 1/15", "# block (-1,2,0) 1/15", "# block (0,2,1) 2/15",
         "# block (0,2,2) 2/15", "# block (2,3,3) 1/15"],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_psi_subcommand_output_is_pinned(name, capsys):
    argv, digest, n_lines, tail = GOLDEN[name]
    assert main(["psi", *argv]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == n_lines
    assert lines[n_lines - len(tail):] == tail
    assert hashlib.sha256(out.encode()).hexdigest() == digest
