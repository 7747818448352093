"""prmhull benchmark: three CLI workloads, an output check, per-layer tracing.

    python3 bench/run.py --workload verify-all|purity|tables --seed N \\
        --seconds S --trace 0|1 [--out RESULT.json]

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  Each measurement is a fresh child interpreter (see
``child.py``) pinned to one thread, started one at a time: a closed loop of
one client, every child with cold caches as a CLI user has.

``--trace 0`` runs whole-workload children, each after a batch of
set-up-only children, and fills the rest of ``--seconds`` with set-up-only
children; it reports the end-to-end metrics as medians.  ``--trace 1`` runs
the workload once untraced and once traced and reports the per-layer
metrics of ``spans.py``; the spans go to ``bench/out/``.  Every child's
stdout passes the check of ``outcheck.py``.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outcheck
from workloads import WORKLOADS, Workload, is_record_stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "goldens"
REFERENCE = BENCH / "reference"

# set-up-only children before each workload child: the set-up samples are
# spread over the run, so that a burst of load on the host does not hit all,
# while most of the run goes to workload children
SETUP_BATCH = 2
DEADLINE_S = 170  # the whole run, children included
PINNED = {
    "PRMHULL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
REQUIRED_RECORDS = ("eaqecc-reference-table",)
# end-to-end metric units; bounds and directions are in BENCHMARK.json
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_ratio": "ratio"}


class ChildError(RuntimeError):
    """A child interpreter exited abnormally or timed out."""


class Runner:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **PINNED}
        records = REFERENCE / f"{workload.name}.jsonl"
        digests = REFERENCE / f"{workload.name}.json"
        self.reference_records = records.read_text().splitlines() if records.is_file() else []
        self.reference_digests = json.loads(digests.read_text()) if digests.is_file() else {}

    def spawn(self, commands, trace: bool = False, env_info: bool = False) -> dict:
        spec = {
            "src": str(SRC),
            "fields": list(self.workload.fields),
            "commands": commands,
            "trace": trace,
            "spans_out": str(self.spans_path()) if trace else None,
            "env_info": env_info,
        }
        if trace:
            self.spans_path().parent.mkdir(exist_ok=True)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py")],
                input=json.dumps(spec),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"child timed out after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise ChildError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout)
        out["setup_s"] = out["setup_done"] - started
        return out

    def spans_path(self) -> Path:
        return BENCH / "out" / f"spans-{self.workload.name}-seed{self.seed}.json.gz"

    def check(self, child: dict) -> outcheck.Outcome:
        total = outcheck.Outcome()
        for res in child["results"]:
            key = outcheck.command_key(res["argv"])
            if is_record_stream(res["argv"]):
                oc = outcheck.check_records(
                    self.reference_records, res["stdout"].splitlines(), REQUIRED_RECORDS
                )
            elif key in self.reference_digests:
                oc = outcheck.check_digest(self.reference_digests[key], res["digest"])
                oc.problems = [f"{key}: {p}" for p in oc.problems]
            else:
                oc = outcheck.Outcome(1, 1, 0, [f"no reference for {key!r}"])
            _fail_on_exit(oc, res)
            total.add(oc)
        return total


def _fail_on_exit(oc: outcheck.Outcome, res: dict) -> None:
    if res["rc"] != 0:
        oc.failed = oc.records
        detail = res["error"] or f"exit code {res['rc']}"
        oc.problems.append(f"{outcheck.command_key(res['argv'])}: {detail}")


def summarize(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_state() -> dict:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
    except OSError:
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Workload children, each after a set-up batch, while another fits in
    ``seconds``; then set-up-only children until ``seconds`` have passed."""
    commands = runner.workload.commands(GOLDENS, runner.seed)
    t0 = time.monotonic()
    setups, children = [], []
    while True:
        setups += [runner.spawn([])["setup_s"] for _ in range(SETUP_BATCH)]
        children.append(runner.spawn(commands))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(children) > seconds:
            break
    while time.monotonic() - t0 < seconds:
        setups.append(runner.spawn([])["setup_s"])
    samples = {
        "wall_s": [c["wall_s"] for c in children],
        "setup_s": setups + [c["setup_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    return samples, children


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result record here")
    args = ap.parse_args(argv)

    if not (SRC / "prmhull" / "cli.py").is_file() or not (GOLDENS / "table1.csv").is_file():
        print(f"bench: no prmhull sources under {SRC} or goldens under {GOLDENS}", file=sys.stderr)
        return 2

    runner = Runner(WORKLOADS[args.workload], args.seed)
    load1 = os.getloadavg()[0]
    try:
        warm = runner.spawn([], env_info=True)  # also compiles and caches bytecode
        if args.trace:
            commands = runner.workload.commands(GOLDENS, args.seed)
            plain = runner.spawn(commands)
            traced = runner.spawn(commands, trace=True)
            children = [plain, traced]
        else:
            samples, children = measure(runner, args.seconds)
    except ChildError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    outcome = outcheck.Outcome()
    for child in children:
        outcome.add(runner.check(child))
    env = {
        **PINNED,
        "src": warm["src"],
        **git_state(),
        "nproc": os.cpu_count(),
        **warm["env"],
        "load1_at_start": load1,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "children": len(children),
        "records": outcome.records,
        "failed": outcome.failed,
        "skipped": outcome.skipped,
        "problems": outcome.problems[:50],
    }
    if args.trace:
        import spans  # numpy; only the traced run needs it in this process

        units = {name: unit for name, unit, _ in spans.per_layer_spec()}
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
        record["untraced_wall_s"] = plain["wall_s"]
        record["traced_wall_s"] = traced["wall_s"]
        record["spans"] = str(runner.spans_path().relative_to(ROOT))
    else:
        record["samples"] = samples
        record["summary"] = {k: summarize(v) for k, v in samples.items()}
        metrics = {k: s["median"] for k, s in record["summary"].items()}
        metrics["decided_ratio"] = 1 - outcome.skipped / outcome.records
        units = UNITS
    record["metrics"] = metrics
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print_report(record, units)
    print(
        json.dumps(
            {
                "correct": not outcome.problems and outcome.failed == 0,
                "attempted": outcome.records,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def print_report(record: dict, units: dict[str, str]) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"children={record['children']}"
    )
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"][:10]:
        print(f"# problem: {problem[:300]}")
    if len(record["problems"]) > 10:
        print(f"# ... {len(record['problems']) - 10} more problems")
    n = record["records"]
    for name, count in (("failed_ratio", record["failed"]), ("skipped_ratio", record["skipped"])):
        print(f"{name:<32} {count / n:.6f} ratio ({count}/{n} records)")
    for name, s in record.get("summary", {}).items():
        print(
            f"{name:<32} {s['median']:.6f} {units[name]} "
            f"(median; q1 {s['q1']:.6f}, q3 {s['q3']:.6f}; n={s['n']})"
        )
    for name, value in record["metrics"].items():
        if name not in record.get("summary", {}):
            print(f"{name:<32} {value} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
