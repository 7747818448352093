"""One benchmark child process: set up prmhull, run CLI commands, report.

Reads a JSON spec on stdin:

    {"src": <dir holding the prmhull package>, "fields": [q, ...],
     "commands": [[argv...], ...], "trace": bool, "spans_out": <path or null>,
     "env_info": bool}

Set-up is importing ``prmhull.cli`` and building ``field_for_size(q)`` for
every listed field.  Each command runs through ``prmhull.cli.main(argv)``
with stdout captured.  Stdout is digested as it is written and dropped,
so the benchmark's buffers stay out of the peak RSS; only the json-lines
records of ``verify`` commands are kept for the record check.  One JSON
object goes to stdout: the ``time.monotonic()`` reading when set-up ended
(the parent took one just before starting this process), the wall time
from the first ``main`` call to the last return, peak RSS, each command's
exit code and stdout digest (plus its text for ``verify``), and under
tracing the per-layer metrics; with env_info, the Python, numpy and BLAS
versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from workloads import is_record_stream  # next to this script, so on sys.path


class DigestStream(io.TextIOBase):
    """A stdout that keeps the SHA-256, line count and byte count of what is
    written, and the text itself only if ``keep``."""

    def __init__(self, keep: bool):
        self.sha = hashlib.sha256()
        self.lines = 0
        self.bytes = 0
        self.parts: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.lines += text.count("\n")
        self.bytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def result(self) -> dict:
        return {
            "digest": {"sha256": self.sha.hexdigest(), "lines": self.lines},
            "bytes": self.bytes,
            "stdout": None if self.parts is None else "".join(self.parts),
        }


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import prmhull
    import prmhull.cli as cli
    from prmhull.fields import field_for_size

    tracer = None
    if spec["trace"]:
        if os.environ.get("PRMHULL_THREADS", "1") != "1":
            raise RuntimeError("tracing needs PRMHULL_THREADS=1")
        import spans  # next to this script, so on sys.path

        tracer = spans.Tracer()
        tracer.install()
    for q in spec["fields"]:
        field_for_size(q)
    setup_done = time.monotonic()

    results = []
    t0 = time.perf_counter()
    for argv in spec["commands"]:
        buf = DigestStream(keep=is_record_stream(argv))
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = None, traceback.format_exc()
        results.append({"argv": argv, "rc": rc, "error": error, **buf.result()})
    wall = time.perf_counter() - t0

    out = {
        "setup_done": setup_done,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
        "src": os.path.dirname(os.path.dirname(os.path.abspath(prmhull.__file__))),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(sum(r["bytes"] for r in results))
        if spec["spans_out"]:
            tracer.write(spec["spans_out"])
    if spec["env_info"]:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["env"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        }
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
