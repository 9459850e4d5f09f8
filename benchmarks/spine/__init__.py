"""The measurement spine: the repository's benchmark (see README.md).

Importing this package pins BLAS to one thread — before numpy loads, or
the pin does nothing — pins the process to one CPU, pins the C allocator,
and puts the checkout's ``src/`` on ``sys.path``, so the program measured
is the one built from this checkout's sources.
"""

import ctypes
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


def _pin_allocator() -> bool:
    """Make glibc recycle large buffers instead of returning them to the
    kernel, from one arena.

    A spilled session is an 18 MiB blob, and spilling or restoring one
    makes half a dozen transient buffers of that size.  By default glibc
    serves them by ``mmap`` — 15 000 page faults, a third of a restoring
    query's time, at a cost the sandbox's hypervisor varies — or from a
    heap, as its *dynamic* thresholds and per-thread arenas happen to
    stand after the allocations so far: one seed ran ``session_churn`` at
    58 or 95 ms a query, and 280 or 340 MiB, from one run to the next.
    With the thresholds fixed at their maxima and a single arena the
    buffers are recycled on every run.  Returns whether the C library
    took the pin (another C library: the benchmark runs unpinned).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # malloc.h
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 1 << 30)
                and mallopt(m_arena_max, 1))


def _pin_cpu() -> int | None:
    """Run every thread of this process (and its children) on one CPU.

    A 6 ms query over HTTP crosses four thread hand-offs (client, event
    loop, worker, event loop, client).  Spread over the two virtual CPUs
    of a shared host each hand-off wakes a halted vCPU, which costs what
    the host's scheduler makes it cost: the same code read 7 to 12 ms a
    query from run to run.  The program holds the GIL and BLAS has one
    thread, so it uses one core at a time anyway; on one CPU a hand-off
    is a context switch, and the reference kernel (``measure.Rests``)
    reads the core the work runs on.  Returns the CPU, or ``None`` where
    the platform has no affinity call.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


PINNED_CPU = _pin_cpu()
ALLOCATOR_PINNED = _pin_allocator()

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SPINE_DIR / "out"      # everything the benchmark writes

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
