"""Outside-in tracing of prmhull for the benchmark's traced run.

The tracer wraps selected prmhull functions and methods from outside the
package.  It replaces every binding of the original object in every
``prmhull.*`` module, because modules bind names such as ``rref`` and
``prm_code`` with ``from ... import``; methods are replaced on their class.
Each call records a span (name, start, end, parent) in memory, and counters
hooked at the same boundaries record the work done: matrix cells, codewords,
distinct inputs, cache hits.  Nothing in the package itself changes.

The tracer keeps one span stack, so the traced process must run prmhull
single-threaded (``PRMHULL_THREADS=1``).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "prmhull"

# (module, attribute, metric suffixes reported for it).  The span and metric
# name is "<module>.<function>", e.g. "codes.dual" for LinearCode.dual.
TARGETS = (
    ("codes", "rref", ("calls", "self_s")),
    ("codes", "LinearCode.dual", ("calls", "s")),
    ("codes", "LinearCode.intersect", ("calls", "s")),
    ("codes", "LinearCode.sum_with", ("calls", "s")),
    ("codes", "LinearCode.hermitian_dual", ("calls", "s")),
    ("codes", "LinearCode.is_subcode_of", ("calls", "s")),
    ("codes", "LinearCode.min_weight", ("calls", "self_s")),
    ("codes", "LinearCode.min_weight_excluding", ("calls", "self_s")),
    ("prm", "prm_code", ("calls", "s")),
    ("prm", "rm_code", ("calls", "s")),
    ("prm", "prm_params", ("calls", "self_s")),
    ("prm", "rm_params", ("calls", "self_s")),
    ("polynomials", "evaluate_polynomials", ("calls", "self_s")),
    ("polynomials", "evaluate_monomials", ("calls", "self_s")),
    ("polynomials", "format_polynomial", ("calls", "self_s")),
    ("points", "projective_points", ("s",)),
    ("points", "affine_points", ("s",)),
    ("fields", "field_make", ("calls", "s")),
    ("fields", "FieldContext.power_table", ("calls", "s")),
    ("euclidean_hull", "relative_hull_basis", ("calls", "self_s")),
    ("euclidean_hull", "hull_oracle", ("s",)),
    ("euclidean_hull", "verify_relative_hull", ("s",)),
    ("hermitian_hull", "hermitian_hull_oracle", ("s",)),
    ("hermitian_hull", "affine_hull_oracle", ("s",)),
    ("hermitian_hull", "hermitian_hull_dim", ("calls", "self_s")),
    ("hermitian_hull", "hermitian_hull_basis", ("calls", "self_s")),
    ("hermitian_hull", "verify_hermitian_hull", ("s",)),
    ("quantum", "prm_asym_eaqecc", ("calls", "self_s")),
    ("quantum", "herm_eaqecc_prm", ("calls", "self_s")),
    ("quantum", "herm_eaqecc_rm", ("calls", "self_s")),
    ("quantum", "purity_probe", ("s",)),
    ("quantum", "asym_from_codes", ("s",)),
    ("verify", "euclid_sweep", ("s",)),
    ("verify", "hermitian_sweep", ("s",)),
    ("verify", "affine_sweep", ("s",)),
    ("verify", "eaqecc_euclid_sweep", ("s",)),
    ("verify", "purity_sweep", ("s",)),
    ("verify", "table1_diff", ("s",)),
    ("cli", "main", ("calls", "s")),
)

# rref spans are named by matrix width, so that a kernel change that trades
# one size for the other shows
RREF_LARGE_N = 128

_SUFFIX_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}

# metrics derived from counters: (name, unit, better)
DERIVED = (
    ("codes.rref.cells", "count", "lower"),
    ("codes.rref.rank_ratio", "ratio", "higher"),
    ("codes.rref.small.self_s", "s", "lower"),
    ("codes.rref.large.self_s", "s", "lower"),
    ("codes.dual.distinct_ratio", "ratio", "higher"),
    ("codes.min_weight.codewords", "count", "lower"),
    ("codes.min_weight_excluding.codewords", "count", "lower"),
    ("codes.enum.codewords_per_s", "1/s", "higher"),
    ("codes.enum.refusals", "count", "lower"),
    ("prm.prm_code.hit_ratio", "ratio", "higher"),
    ("prm.rm_code.hit_ratio", "ratio", "higher"),
    ("polynomials.evaluate_polynomials.cells", "count", "lower"),
    ("polynomials.evaluate_monomials.cells", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, attr, suffixes in TARGETS:
        for suffix in suffixes:
            unit, better = _SUFFIX_UNITS[suffix]
            out.append((f"{span_name(module, attr)}.{suffix}", unit, better))
    return out + list(DERIVED)


# -- span arithmetic --------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    ``spans`` is a sequence of (name, start, end, parent index or -1).  One
    span stack on one thread nests children inside their parent without
    overlap, so their durations add up to the time they cover.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["s"] += end - start
    return stats


# -- counters hooked at layer boundaries --------------------------------------------


def _count_rref(tr, args, kwargs, out, exc):
    if exc is None:
        nrows, ncols = np.shape(args[1])
        tr.counters["codes.rref.cells"] += nrows * ncols
        tr.counters["codes.rref.rows"] += nrows
        tr.counters["codes.rref.rank"] += len(out[1])


def _count_dual(tr, args, kwargs, out, exc):
    code = args[0]
    m = np.ascontiguousarray(code.matrix)
    key = hashlib.blake2b(m.tobytes(), digest_size=16)
    key.update(repr((code.ctx.q, code.n, m.shape)).encode())
    tr.distinct_duals.add(key.digest())


def _count_enum(label):
    def hook(tr, args, kwargs, out, exc):
        if exc is not None:
            if isinstance(exc, tr.budget_error):
                tr.counters["codes.enum.refusals"] += 1
            return
        code = args[0]
        q = code.ctx.q
        if label == "min_weight":
            covered = q**code.k - 1
        else:
            sub = args[1] if len(args) > 1 else kwargs["sub"]
            covered = q**code.k - q**sub.k
        tr.counters[f"codes.{label}.codewords"] += covered

    return hook


def _count_cells(label):
    def hook(tr, args, kwargs, out, exc):
        if exc is None:
            tr.counters[f"polynomials.{label}.cells"] += int(out.size)

    return hook


HOOKS = {
    "codes.rref": _count_rref,
    "codes.dual": _count_dual,
    "codes.min_weight": _count_enum("min_weight"),
    "codes.min_weight_excluding": _count_enum("min_weight_excluding"),
    "polynomials.evaluate_polynomials": _count_cells("evaluate_polynomials"),
    "polynomials.evaluate_monomials": _count_cells("evaluate_monomials"),
}

CACHED = ("prm.prm_code", "prm.rm_code")


# -- the tracer ---------------------------------------------------------------------


class Tracer:
    """Wraps the TARGETS of an imported package and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.distinct_duals: set[bytes] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, object]] = {}
        self.budget_error = sys.modules[f"{PACKAGE}.codes"].EnumerationBudgetError

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if name == "codes.rref":
            # by width: index 1 holds the id for n >= RREF_LARGE_N
            split = (self._id("codes.rref.small"), self._id("codes.rref.large"))
        else:
            split, nid = None, self._id(name)
        clock, stack = time.perf_counter, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            if split is None:
                names.append(nid)
            else:
                names.append(split[np.shape(args[1])[-1] >= RREF_LARGE_N])
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out, None)
            return out
        return wrapper

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)]
        for module, attr, _ in TARGETS:
            owner = sys.modules[prefix + module]
            name = span_name(module, attr)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            if name in CACHED:
                self._caches[name] = (orig, orig.cache_info())
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def spans(self) -> list[tuple[str, float, float, int]]:
        names = self.names
        return [
            (names[n], s, e, p) for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            out[name] = (after.hits - before.hits, after.misses - before.misses)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped json: parallel arrays plus name table."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        return layer_metrics(
            aggregate(self.spans()),
            self.counters,
            len(self.distinct_duals),
            self.cache_deltas(),
            stdout_bytes,
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, counters, distinct_duals, cache_deltas, stdout_bytes):
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    small = stats.get("codes.rref.small", empty)
    large = stats.get("codes.rref.large", empty)
    stats = dict(stats)
    stats["codes.rref"] = {k: small[k] + large[k] for k in empty}
    out: dict[str, float] = {}
    for module, attr, suffixes in TARGETS:
        name = span_name(module, attr)
        st = stats.get(name, empty)
        for suffix in suffixes:
            out[f"{name}.{suffix}"] = st[suffix]
    c = counters
    mw = stats.get("codes.min_weight", empty)
    mwx = stats.get("codes.min_weight_excluding", empty)
    codewords = c["codes.min_weight.codewords"] + c["codes.min_weight_excluding.codewords"]
    out.update(
        {
            "codes.rref.cells": c["codes.rref.cells"],
            "codes.rref.rank_ratio": _ratio(c["codes.rref.rank"], c["codes.rref.rows"]),
            "codes.rref.small.self_s": small["self_s"],
            "codes.rref.large.self_s": large["self_s"],
            "codes.dual.distinct_ratio": _ratio(distinct_duals, out["codes.dual.calls"]),
            "codes.min_weight.codewords": c["codes.min_weight.codewords"],
            "codes.min_weight_excluding.codewords": c["codes.min_weight_excluding.codewords"],
            "codes.enum.codewords_per_s": _ratio(codewords, mw["self_s"] + mwx["self_s"]),
            "codes.enum.refusals": c["codes.enum.refusals"],
            "polynomials.evaluate_polynomials.cells": c["polynomials.evaluate_polynomials.cells"],
            "polynomials.evaluate_monomials.cells": c["polynomials.evaluate_monomials.cells"],
            "cli.stdout_bytes": stdout_bytes,
        }
    )
    for name in CACHED:
        hits, misses = cache_deltas.get(name, (0, 0))
        out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    return out
