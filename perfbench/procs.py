"""Start a worker interpreter and time it to its ready line."""
from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"


def run_worker(args: list[str], cwd: Path, timeout_s: float) -> tuple[float, bytes]:
    """Run worker.py with the given arguments to completion. Returns the
    seconds from spawn until its first stdout line (the ready line) and its
    whole stdout. Kills the worker if it outlives the timeout."""
    deadline = time.monotonic() + timeout_s
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=cwd,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    buf, ready_at = bytearray(), None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("worker did not finish before its deadline")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            if ready_at is None and b"\n" in buf:
                ready_at = now
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_at is None:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready_at - start, bytes(buf)
