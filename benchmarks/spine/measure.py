"""Statistics and environment probes: the percentile rule, equal-work
segment rates, the driver's spread, noise calibration, the fingerprint."""

from __future__ import annotations

import bisect
import functools
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from . import (ALLOCATOR_PINNED, BLAS_THREAD_VARS, OUT_DIR, PINNED_CPU,
               REPO_ROOT)

N_SEGMENTS = 10
MIN_BEYOND = 10           # samples a reported tail percentile needs beyond it
NOISY_DRIFT = 0.10


class TooFewSamples(ValueError):
    """The sample cannot carry the statistic asked of it."""


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return int(n * (100.0 - pct) / 100.0 + 1e-9)


def percentile(values, pct: float, *, min_beyond: int = MIN_BEYOND) -> float:
    """Linearly interpolated percentile.  A tail percentile (above the
    median) with fewer than ``min_beyond`` samples beyond it is refused:
    it would be the reading of a handful of requests."""
    ordered = sorted(values)
    if not ordered:
        raise TooFewSamples("no samples")
    if pct > 50 and samples_beyond(len(ordered), pct) < min_beyond:
        raise TooFewSamples(
            f"p{pct:g} of {len(ordered)} samples has "
            f"{samples_beyond(len(ordered), pct)} beyond it, "
            f"needs {min_beyond}")
    rank = (len(ordered) - 1) * pct / 100.0
    below = math.floor(rank)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (rank - below)


def highest_supported_percentile(n: int) -> float:
    for pct in (99.0, 95.0, 90.0, 75.0):
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


# ----------------------------------------------------------------------
# Rates
# ----------------------------------------------------------------------
def segment_rates(finish_times, rounds, speeds, *, weight: float = 1.0,
                  n_segments: int = N_SEGMENTS) -> list[float]:
    """Completions per second of work over ``n_segments`` consecutive
    segments of equal *work* (equal-time segments quantise at a few
    completions per second).  ``rounds`` are the ``(start, end)``
    stretches in which the work ran, ``speeds`` the machine's speed in
    each (see :class:`Rests`); the rests between them count for nothing.
    A segment is a whole number of rounds, so a periodic plan puts the
    same mix in each; rounds that do not fill the last segment are
    dropped.  ``weight`` is what one completion counts for (a batch of
    8 answers: 8)."""
    per_segment = len(rounds) // n_segments
    if per_segment < 1:
        raise TooFewSamples(
            f"{len(rounds)} rounds do not fill {n_segments} segments")
    finishes = sorted(finish_times)
    rates = []
    for index in range(n_segments):
        chosen = range(index * per_segment, (index + 1) * per_segment)
        done = (bisect.bisect_right(finishes, rounds[chosen[-1]][1])
                - bisect.bisect_left(finishes, rounds[chosen[0]][0]))
        rates.append(done * weight / sum(
            (rounds[i][1] - rounds[i][0]) * speeds[i] for i in chosen))
    return rates


def spread(values) -> float:
    """The driver's repeatability statistic: the distance between the
    first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Process and machine
# ----------------------------------------------------------------------
def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ReferenceKernel:
    """Two fixed pieces of work that share no code with the program.

    *dispatch*: a chain of small float32 matmuls and reductions (a
    ``phi-2-sim`` feed-forward block at batch 8), cache-resident — what
    most of the program is, many small numpy calls.  *stream*: a 16 MiB
    copy — what the rest of it is, reading crossbar arrays and moving
    session blobs.  The two slow down at different times (another tenant
    may take the core's cycles, or the memory bus), so they are read
    apart; what they read is how fast the machine is just now."""

    STREAM_BYTES = 16 << 20

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._up = rng.normal(size=(56, 144)).astype(np.float32)
        self._down = rng.normal(size=(144, 56)).astype(np.float32)
        self._x = rng.normal(size=(8, 1, 56)).astype(np.float32)
        self._source = np.ones(self.STREAM_BYTES, dtype=np.uint8)
        self._target = np.ones(self.STREAM_BYTES, dtype=np.uint8)

    def time_ms(self) -> tuple[float, float]:
        """``(dispatch, stream)`` milliseconds."""
        np = self._np
        began = time.perf_counter()
        x = self._x
        for _ in range(120):
            y = np.maximum(x @ self._up, 0) @ self._down
            mean = y.mean(axis=-1, keepdims=True)
            x = (y - mean) / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)
        between = time.perf_counter()
        np.copyto(self._target, self._source)
        return ((between - began) * 1e3,
                (time.perf_counter() - between) * 1e3)


@functools.lru_cache(maxsize=1)
def reference_kernel() -> ReferenceKernel:
    """The one kernel of this process (its buffers are 32 MiB)."""
    return ReferenceKernel()


# What the kernel reads on this sandbox in its fast state: (dispatch,
# stream).  Reported times are those of a machine on which it always
# reads exactly this.
REFERENCE_MS = (3.8, 2.7)
# The shares of the program's time that go with the kernel's dispatch and
# stream readings; the rest takes what it takes.  Fitted over 16 runs of
# every workload and of the set-up (README, "Reference speed").
DEFAULT_SHARES = (0.7, 0.3)


class Rests:
    """Stretches of work with the reference kernel timed between them.

    The sandbox changes speed by a third or more, for a tenth of a second
    or for minutes at a time, and takes the program with it.  So whoever
    drives work calls :meth:`rest` before it, after it, and every
    fraction of a second in between, when nothing is in flight.  The
    kernel's readings around a stretch, over ``REFERENCE_MS``, are how
    much longer than on the reference machine each kind of work took in
    it; ``shares`` says how much of the work at hand is of each kind.  A
    time measured inside a stretch, multiplied by the stretch's speed, is
    the time the reference machine would have taken."""

    def __init__(self, shares: tuple[float, float] = DEFAULT_SHARES):
        self.shares = shares
        self.readings_ms: list[tuple[float, float]] = []
        self.stretches: list[tuple[float, float]] = []    # (start, end)
        self._kernel = reference_kernel()
        self._released = None

    def rest(self) -> None:
        arrived = time.perf_counter()
        if self._released is not None:
            self.stretches.append((self._released, arrived))
        self.readings_ms.append(self._kernel.time_ms())
        self._released = time.perf_counter()

    @property
    def speeds(self) -> list[float]:
        """Machine speed during each stretch: 1.0 on the reference
        machine, from the mean of the readings on either side of it."""
        fixed = 1.0 - sum(self.shares)
        return [1.0 / (fixed + sum(
            share * (b + a) / (2.0 * reference)
            for share, b, a, reference
            in zip(self.shares, before, after, REFERENCE_MS)))
            for before, after in zip(self.readings_ms, self.readings_ms[1:])]

    def speeds_at(self, moments) -> list[float]:
        """Speed of the stretch each of ``moments`` lies in."""
        speeds = self.speeds
        starts = [start for start, _ in self.stretches]
        found = []
        for moment in moments:
            index = bisect.bisect_right(starts, moment) - 1
            if index < 0 or moment > self.stretches[index][1]:
                raise ValueError(f"{moment} lies in no stretch of work")
            found.append(speeds[index])
        return found

    def reference_seconds(self) -> float:
        """Seconds of work the stretches would be on the reference
        machine."""
        return sum((end - start) * speed for (start, end), speed
                   in zip(self.stretches, self.speeds))

    def median_slowdowns(self) -> tuple[float, float]:
        """Median ``(dispatch, stream)`` reading over the reference."""
        return tuple(statistics.median(reading[k] for reading
                                       in self.readings_ms) / REFERENCE_MS[k]
                     for k in range(2))


def calibrate(repeats: int = 5) -> dict:
    """Two fixed loops, best of ``repeats``: a 256x256 GEMM chain (BLAS,
    cache and memory speed) and a pure-Python loop (interpreter speed).
    What they read before and after a workload says whether the machine
    changed speed underneath it."""
    import numpy as np

    start = np.full((256, 256), 0.5, dtype=np.float32)
    scale = np.float32(1.0 / 128.0)
    gemm, pyloop = [], []
    for _ in range(repeats):
        began = time.perf_counter()
        a = start
        for _ in range(40):
            a = (a @ a) * scale
        gemm.append(time.perf_counter() - began)
        began = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i & 7
        pyloop.append(time.perf_counter() - began)
    return {"calib_gemm_ms": min(gemm) * 1e3,
            "calib_pyloop_ms": min(pyloop) * 1e3}


def calibration_drift(before: dict, after: dict) -> dict:
    drift = {key: abs(after[key] - before[key]) / before[key]
             for key in before}
    return {"before": before, "after": after, "drift": drift,
            "noisy": max(drift.values()) > NOISY_DRIFT}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _filesystem_of(path) -> str:
    """Type of the filesystem ``path`` (or its nearest existing parent)
    lives on: the on-disk session store's speed is that disk's."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, kind = line.split()[:3]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var)
                         for var in BLAS_THREAD_VARS},
        "pinned_cpu": PINNED_CPU,
        "allocator_pinned": ALLOCATOR_PINNED,
        "commit": _commit(),
        "out_dir_filesystem": _filesystem_of(OUT_DIR),
    }
