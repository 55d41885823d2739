"""Child processes with their own resource accounting.

``getrusage(RUSAGE_CHILDREN)`` is a running maximum over every child
ever reaped, so one large run would mask every later, smaller one. Each
timed child is therefore reaped with :func:`os.wait4`, whose rusage is
that child's own: the CPU time of the child and every descendant it
waited for (the join's worker processes), and the peak RSS of the
largest process in that tree.

On Linux a child's ``ru_maxrss`` also starts from the resident size of
the process that spawned it: fork, vfork and exec carry the spawning
address space's high-water mark into the child's count. The benchmark
process grows while it generates inputs and checks outputs, so it does
not spawn the timed children itself. A :class:`Launcher` helper, which
stays at the size of a bare interpreter, spawns and reaps them and
sends their rusage back over a pipe.

``python3 perfbench/measure.py --serve`` is that helper's entry point.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux >= 3.4).
PR_SET_CHILD_SUBREAPER = 36

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class ChildRun:
    """What one finished child process cost and printed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def crashed(self) -> bool:
        """Non-zero exit or a Python traceback on stderr."""
        return (
            self.returncode != 0
            or "Traceback (most recent call last)" in self.stderr
        )


def child_env(archive: Path) -> Dict[str, str]:
    """The environment of a child: the in-tree package first on the
    path, and the run archive at ``archive`` (a fresh path per run, so
    each run pays the default capture cost on an empty archive and the
    repository's own archives are never written)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_ARCHIVE"] = str(archive)
    return env


def spawn_and_reap(
    argv: List[str], env: Dict[str, str], out_path: str, err_path: str,
    timeout: float,
) -> Dict[str, float]:
    """Run ``argv`` from the repository root to completion.

    Wall time runs from just before spawn to just after reap. Output
    goes to files (a pipe could fill and stall the child). A child
    still running after ``timeout`` seconds is killed.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=env, cwd=str(ROOT),
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
    }


class Launcher:
    """Spawns timed children from a small helper process (see the
    module docstring). Use as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )

    def run(
        self, argv: List[str], env: Dict[str, str], out_dir: Path,
        timeout: float = 170.0,
    ) -> ChildRun:
        out_path, err_path = out_dir / "child.stdout", out_dir / "child.stderr"
        request = {
            "argv": argv, "env": env, "out_path": str(out_path),
            "err_path": str(err_path), "timeout": timeout,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self._proc.wait()}")
        return ChildRun(
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            **json.loads(line),
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve() -> int:
    """The helper's loop: one JSON request per stdin line, one JSON
    reply per stdout line, until stdin closes."""
    adopt_orphans()
    try:
        for line in sys.stdin:
            request = json.loads(line)
            reply = spawn_and_reap(
                request["argv"], request["env"], request["out_path"],
                request["err_path"], request["timeout"],
            )
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        reap_all()
    return 0


def join_argv(flags: List[str], input_path: Path) -> List[str]:
    """``python -m repro join FILE <flags>`` with this interpreter."""
    return [sys.executable, "-m", "repro", "join", str(input_path), *flags]


def setup_argv(workload, input_path: Path) -> List[str]:
    """The set-up probe: everything a run does before routing its first
    record (see ``setup_probe.py``)."""
    return [
        sys.executable, str(Path(__file__).with_name("setup_probe.py")),
        workload.name, str(input_path), repr(workload.window),
    ]


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants.

    A join run leaves helpers behind that outlive it briefly (the
    ``multiprocessing`` resource tracker exits once its parent has).
    Adopted here, they can be waited for by :func:`reap_all`. Where
    ``prctl`` is unavailable this does nothing.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_resource_tracker() -> None:
    """End the resource tracker that an in-process parallel run started
    for this process: closing its pipe makes it exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)  # Python >= 3.12
    if stop is not None:
        stop()
        return
    if tracker._pid is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def reap_all(timeout: float = 30.0) -> None:
    """Wait until every process this one started or adopted has ended."""
    _stop_resource_tracker()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: python3 perfbench/measure.py --serve")
    sys.exit(serve())
