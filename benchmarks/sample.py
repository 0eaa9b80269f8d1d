"""Sample server: run each ``blockrank`` CLI command in a fresh forked child.

Usage: ``python3 benchmarks/sample.py ROOT``

Imports ``blockrank`` from ``ROOT/src`` (and nowhere else) once, then reads
one JSON request per line from stdin: ``{"argv": [...], "trace": 0|1,
"result": PATH, "stdout": PATH, "timeout": S}``.  For each it forks a child
that times ``blockrank.cli.main(argv)`` with stdout and stderr captured in
memory, writes the captured stdout to ``stdout`` and the timing, the
calibration time, exit code, ``ru_maxrss`` of the child and, when ``trace``
is 1, the recorded spans to ``result``.  The server waits for the child to
end (killing it after ``timeout`` seconds) and answers one JSON line.  It
exits when stdin closes.

Forking from a server that has already imported the package saves each
sample the interpreter start-up and imports (about 0.4 s on the 2-vCPU VM
the benchmark was tuned on), which are not part of the timed command.  The
child starts from the same state as a fresh process that has imported the
package, and its ``ru_maxrss`` counts that state too.

The child also times a fixed calibration task right before and right after
the command.  The VM the benchmark was tuned on changes speed by up to 1.7x
for seconds to minutes at a time, and process CPU time moves with wall time,
so the slowdown is the machine's, not another process's; the calibration
time tracks it and lets ``run.py`` scale each sample to a reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.sparse


def calibration():
    """A fixed task whose time tracks the machine's current speed.

    Half interpreter loop, half sparse matrix-vector products, the two kinds
    of work a ``blockrank`` command does; its inputs are built once, here,
    and never depend on the program under test.
    """
    rng = np.random.default_rng(0)
    n, nnz = 20_000, 80_000
    a = scipy.sparse.csr_matrix(
        (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))), shape=(n, n))
    x0 = rng.random(n)

    def task() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        x = x0
        for _ in range(100):
            x = a @ x
            x /= x.sum()
        return time.perf_counter() - start

    return task


def run_command(cli, calibrate, request: dict) -> None:
    """The child's work: time one command and write its result files."""
    spans = None
    if request["trace"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        spans = recorder.spans

    out, err = io.StringIO(), io.StringIO()
    error = None
    cal_s = calibrate()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(request["argv"])
    except SystemExit as exc:          # argparse rejects its arguments this way
        rc = exc.code
    except Exception:                  # any other escape is a failed command
        rc = None
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - start
    cal_s = (cal_s + calibrate()) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    Path(request["stdout"]).write_text(out.getvalue(), encoding="utf-8")
    Path(request["result"]).write_text(json.dumps({
        "rc": rc, "wall_s": wall, "cal_s": cal_s, "rss_mb": rss_mb, "error": error,
        "stderr": err.getvalue()[-2000:], "spans": spans,
    }))


def serve(cli, calibrate, request: dict) -> dict:
    """Fork one child for the request, wait for it and describe how it ended."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # The server's stdin and stdout carry the protocol; keep the
            # command's own file-descriptor output off them.
            devnull = os.open(os.devnull, os.O_RDWR)
            os.dup2(devnull, 0)
            os.dup2(devnull, 1)
            run_command(cli, calibrate, request)
            code = 0
        finally:
            os._exit(code)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], request["timeout"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    finally:
        os.close(pidfd)
    if not ready:
        return {"error": f"child exceeded {request['timeout']} s"}
    code = os.waitstatus_to_exitcode(status)
    return {"error": None} if code == 0 else {"error": f"child exited {code}"}


def main() -> int:
    src = Path(sys.argv[1], "src").resolve()
    sys.path.insert(0, str(src))
    import blockrank.cli

    if not Path(blockrank.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"blockrank imported from {blockrank.cli.__file__}, not {src}")
    import tracer  # noqa: F401  (imported here so traced children do not pay for it)

    calibrate = calibration()
    for line in sys.stdin:
        print(json.dumps(serve(blockrank.cli, calibrate, json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
