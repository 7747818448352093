"""The benchmark's workloads: the prmhull CLI commands each one issues.

Every command is an argv list for ``prmhull.cli.main``.  ``verify-all`` and
``purity`` are fixed exhaustive sweeps, so their seed is only recorded; in
``tables`` the seed sets the order in which the commands are issued.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ASYM_QS = "2,3,4,5,7,8,9,11,13,16,17,19,23,25,27,29,31,32,37,41,43,47,49"
HERM_QS = "2,3,4,5,7,8,9,11,13,16,17,19,23,25"
AFFINE_HERM_QS = "2,3,4,5,7,8,9,11,13,16"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # field sizes the commands construct; set-up builds them before timing
    fields: tuple[int, ...]
    # (goldens directory, seed) -> argv lists
    commands: Callable[[Path, int], list[list[str]]]


def is_record_stream(argv: list[str]) -> bool:
    """``verify`` prints json-lines check records, checked record by record;
    every other command's stdout is checked against its digest."""
    return argv[0] == "verify"


def table_commands() -> list[list[str]]:
    """The closed-form commands of ``tables``, in their reference order."""
    cmds = [
        ["table", "asym", "--q", ASYM_QS],
        ["table", "herm", "--q", HERM_QS],
        ["table", "affine-herm", "--q", AFFINE_HERM_QS],
    ]
    cmds += [["hull", "hermitian", "--q", "7", "--d", str(d)] for d in range(1, 48)]
    cmds += [
        ["hull", "euclid", "--q", "16", "--d1", str(a), "--d2", str(b)]
        for b in range(1, 31)
        if b != 15
        for a in range(1, b + 1)
    ]
    return cmds


def _shuffled_tables(goldens: Path, seed: int) -> list[list[str]]:
    cmds = table_commands()
    random.Random(seed).shuffle(cmds)
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            "closed forms vs the elimination oracle; codes.rref dominates, no enumeration",
            (3, 4, 5, 7, 8, 9, 16),
            lambda goldens, seed: [["verify", "all", "--goldens", str(goldens)]],
        ),
        Workload(
            "purity",
            "minimum-weight enumeration dominates; 12 of 46 records are budget skips",
            (3, 4),
            lambda goldens, seed: [
                ["verify", "eaqecc", "--q", "3,4", "--purity", "--goldens", str(goldens)]
            ],
        ),
        Workload(
            "tables",
            "closed-form tables and hull bases only: no elimination, no enumeration, 9 MB of output",
            (16, 49),
            _shuffled_tables,
        ),
    )
}
