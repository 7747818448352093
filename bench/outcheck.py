"""The benchmark's output check against the committed reference stdout.

``verify`` commands print json-lines streams of check records ending in
one summary record.  A run passes only if it exited 0, emitted no
``fail`` record, and every non-summary reference record reappears
byte-identical, with one exception: a reference ``info`` record (a budget
skip) may become a ``pass`` record for the same check and parameters.  The
summary is compared on ``status`` and ``failures`` only.

Every other command's stdout is checked on its own against the SHA-256
and line count of the reference.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

# keys of an info record that are not parameters of the check
_VERDICT_KEYS = ("status", "detail")


@dataclass
class Outcome:
    records: int = 0  # non-summary records emitted (or expected, on a crash)
    failed: int = 0
    skipped: int = 0  # "info" records: enumeration budget refusals
    problems: list[str] = field(default_factory=list)

    def add(self, other: Outcome) -> None:
        self.records += other.records
        self.failed += other.failed
        self.skipped += other.skipped
        self.problems += other.problems


def _resolves(info: dict, rec: dict) -> bool:
    return rec.get("status") == "pass" and all(
        rec.get(k) == v for k, v in info.items() if k not in _VERDICT_KEYS
    )


def check_records(reference: list[str], output: list[str], required: tuple[str, ...] = ()) -> Outcome:
    """Check one verify stream against its reference lines.

    ``required`` names checks whose record must be present with a non-zero
    ``rows_checked``.
    """
    problems = []
    parsed = []
    for line in output:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if isinstance(rec, dict):
            parsed.append((line, rec))
        else:
            problems.append(f"not a json record: {line[:120]!r}")
    body = [(line, rec) for line, rec in parsed if rec.get("check") != "summary"]
    summaries = [rec for _, rec in parsed if rec.get("check") == "summary"]

    fails = [line for line, rec in body if rec.get("status") == "fail"]
    problems += [f"fail record: {line[:200]}" for line in fails]

    ref_parsed = [(line, json.loads(line)) for line in reference]
    ref_body = [(line, rec) for line, rec in ref_parsed if rec.get("check") != "summary"]
    ref_summary = [rec for _, rec in ref_parsed if rec.get("check") == "summary"]
    available = Counter(line for line, _ in body)
    passes = [rec for _, rec in body if rec.get("status") == "pass"]
    for line, ref in ref_body:
        if available[line]:
            available[line] -= 1
            continue
        if ref.get("status") == "info" and any(_resolves(ref, rec) for rec in passes):
            continue
        problems.append(f"reference record missing: {line[:200]}")

    if len(summaries) != 1:
        problems.append(f"expected one summary record, got {len(summaries)}")
    elif ref_summary:
        for key in ("status", "failures"):
            if summaries[0].get(key) != ref_summary[0].get(key):
                problems.append(
                    f"summary {key}: {summaries[0].get(key)!r} != reference {ref_summary[0].get(key)!r}"
                )

    for check in required:
        if not any(rec.get("check") == check and rec.get("rows_checked") for _, rec in body):
            problems.append(f"no {check} record with rows_checked > 0")

    records = max(len(body), len(ref_body))
    return Outcome(
        records=records,
        failed=records if problems else 0,
        skipped=sum(1 for _, rec in body if rec.get("status") == "info"),
        problems=problems,
    )


def check_digest(reference: dict, got: dict) -> Outcome:
    problems = [] if got == reference else [f"stdout differs: {got} != reference {reference}"]
    records = max(got["lines"], reference["lines"])
    return Outcome(records=records, failed=records if problems else 0, problems=problems)


def command_key(argv: list[str]) -> str:
    return " ".join(argv)
