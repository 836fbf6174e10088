"""The process tree below the benchmark, read from ``/proc``.

One scan gives every process's parent and CPU time; the memory watch,
the CPU-time rates and the Ray shutdown all walk the same tree.
"""

from __future__ import annotations

import os
import time

TICK = os.sysconf("SC_CLK_TCK")


def proc_tree() -> dict[int, tuple[int, float]]:
    """pid -> (ppid, CPU seconds of the process and of its reaped
    children) for every live process."""
    out: dict[int, tuple[int, float]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                f = fh.read().rsplit(") ", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields after the name: state ppid ... utime(12) stime(13) cutime(14) cstime(15)
        out[int(d)] = (int(f[1]), sum(int(x) for x in f[11:15]) / TICK)
    return out


def descendants(tree: dict[int, tuple[int, float]] | None = None) -> list[int]:
    """Every live process below this one."""
    tree = proc_tree() if tree is None else tree
    me = os.getpid()
    out = []
    for pid, (ppid, _) in tree.items():
        p, n = ppid, 0
        while p and p != me and n < 64:
            p, n = tree.get(p, (0, 0.0))[0], n + 1
        if p == me:
            out.append(pid)
    return out


def session_cpu_s() -> float:
    """CPU seconds used so far by this process and every process it
    started (Ray's workers included, reaped ones through their parents'
    cumulative child times). Unlike wall time it does not grow with the
    CPU time other guests steal from this host."""
    tree = proc_tree()
    return time.process_time() + sum(tree[p][1] for p in descendants(tree))


def vm_hwm_kb(pid: int) -> int:
    """High-water mark of ``pid``'s resident memory in kB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0
