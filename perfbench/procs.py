"""Process hygiene for a benchmark run: every process it starts ends with it.

Ray's workers outlive ``ray.shutdown()`` by a moment: they exit on their
own once they notice the raylet is gone, and by then they are orphans
that init, not the benchmark, would adopt. Marking the benchmark a child
subreaper makes every orphan in its process tree its own child instead,
so ``stop_descendants`` can find, end and reap all of them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
STOP_LIMIT_S = 20.0  # a descendant that outlives SIGKILL this long is an error


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that the run's clean-up runs.
    ``ray.init`` installs a handler that aborts instead: call this again
    after it."""
    signal.signal(signal.SIGTERM, _raise_exit)


def _raise_exit(signum, _frame):
    sys.exit(128 + signum)


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:  # ended while we looked
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    """Every process below this one, zombies included."""
    kids, out, todo = _children_map(), [], [os.getpid()]
    while todo:
        for child in kids.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants() -> list[int]:
    """SIGKILL every descendant and reap until none is left. One pass
    signals the whole tree, so processes orphaned by the kill (or by this
    process dying under it) are already on their way out. Returns the pids
    that were there when it started."""
    found = descendants()
    left = found
    t0 = time.perf_counter()
    while left:
        if time.perf_counter() - t0 > STOP_LIMIT_S:
            raise RuntimeError(f"processes {left} still there after {STOP_LIMIT_S} s")
        for pid in left:  # zombies among them ignore it; _reap ends them
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.01)
        _reap()
        left = descendants()
    return found
