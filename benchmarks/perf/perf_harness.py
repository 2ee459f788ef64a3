"""Measurement helpers shared by the four workloads.

Everything here is independent of ``repro``: statistics over samples and
blocks, the speed probe, the open-loop generator, and the brute-force
oracle the workloads check sampled answers against.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_frac(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


class SpeedProbe:
    """A fixed compute-bound spin timed next to every block of work.

    The box this benchmark was designed on changes speed by 1.3-1.8x for
    seconds to minutes at a time (both vCPUs of a shared core busy, or a
    neighbour on the sibling thread), and process CPU time moves with it, so
    no statistic over one run's blocks sees through a slow stretch.  Each
    block is therefore timed together with this spin — before and after it —
    and reported in *nominal seconds*: ``wall * REF_S / spin``.  A change to
    the program moves the block and not the spin; a slow box moves both.
    ``REF_S`` is the spin's time on the review box when undisturbed, so
    nominal and wall seconds agree there.  Raw wall times are kept and
    printed beside the nominal ones.
    """

    REF_S = 0.0026

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((40, 2))
        self._b = rng.random((40, 2))
        self.samples_s: List[float] = []
        self.last_s = self.measure()

    def _spin(self) -> float:
        a, b = self._a, self._b
        start = time.perf_counter()
        total = 0
        slots: Dict[int, int] = {}
        for i in range(9000):
            total += i & 7
            slots[i & 63] = total
        for _ in range(56):
            diff = a[:, None, :] - b[None, :, :]
            np.einsum("abd,abd->ab", diff, diff).min()
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of three spins: one reading, robust to a stray stall."""
        reading = sorted(self._spin() for _ in range(3))[1]
        self.samples_s.append(reading)
        return reading

    def start(self) -> None:
        """Take a fresh reading before a phase (the last one may be stale)."""
        self.last_s = self.measure()

    def lap(self) -> float:
        """Nominal-over-wall factor for the work done since the last reading."""
        now = self.measure()
        factor = self.REF_S / ((self.last_s + now) / 2.0)
        self.last_s = now
        return factor

    @property
    def slowdown(self) -> float:
        """Median spin over the reference: 1.0 on an undisturbed review box."""
        return statistics.median(self.samples_s) / self.REF_S


class BlockTimes:
    """Wall, nominal and CPU time of equal blocks of fixed work."""

    def __init__(self, ops_per_block: int, probe: SpeedProbe, nominal: bool = True) -> None:
        self.ops_per_block = int(ops_per_block)
        self.probe = probe
        # False keeps wall time: for phases that leave the CPU mostly idle the
        # spin reads slow (it starts on a cold, clocked-down core) and scaling
        # by it adds more spread than it removes.
        self.nominal = nominal
        self.wall_s: List[float] = []
        self.nominal_s: List[float] = []
        self.cpu_s: List[float] = []
        # Latency samples in nominal milliseconds, scaled block by block.
        self.nominal_ms: List[float] = []

    def run(self, work: Callable[[], None], samples_ms: Optional[List[float]] = None) -> None:
        """Time one block; ``samples_ms`` is the workload's raw latency list,
        whose entries added by this block are scaled into ``nominal_ms``."""
        if not self.wall_s and self.nominal:
            self.probe.start()
        seen = len(samples_ms) if samples_ms is not None else 0
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        work()
        wall = time.perf_counter() - wall0
        self.cpu_s.append(time.process_time() - cpu0)
        factor = self.probe.lap() if self.nominal else 1.0
        self.wall_s.append(wall)
        self.nominal_s.append(wall * factor)
        if samples_ms is not None:
            self.nominal_ms.extend(ms * factor for ms in samples_ms[seen:])

    @property
    def ops(self) -> int:
        return self.ops_per_block * len(self.wall_s)

    @property
    def ops_per_s(self) -> float:
        """Ops per block over the *median* nominal block time: a block that a
        noisy neighbour stretched moves the median by one rank, not by its
        length."""
        if not self.nominal_s:
            return 0.0
        return self.ops_per_block / statistics.median(self.nominal_s)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops_per_block / statistics.median(self.wall_s) if self.wall_s else 0.0

    @property
    def cpu_ms_per_op(self) -> float:
        return sum(self.cpu_s) * 1e3 / self.ops if self.ops else 0.0


def environment(repo_root) -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    sha = "unknown"
    head = os.path.join(repo_root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(repo_root, ".git", ref[5:]), encoding="utf-8") as handle:
                sha = handle.read().strip()
        else:
            sha = ref
    except OSError:
        pass  # a checkout without .git (the driver's) has no SHA to report
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
class OpenLoopResult:
    """Per-request outcome of one open-loop phase."""

    def __init__(self, n: int) -> None:
        self.due_s = [0.0] * n
        self.sent_s = [0.0] * n
        self.done_s: List[Optional[float]] = [None] * n
        self.results: List[object] = [None] * n
        self.errors: List[Optional[BaseException]] = [None] * n

    @property
    def late_ms(self) -> List[float]:
        """How far behind its schedule the generator sent each request."""
        return [(sent - due) * 1e3 for sent, due in zip(self.sent_s, self.due_s)]

    def latency_ms(self, limit_ms: float) -> List[float]:
        """Latency from each request's *due* time; a request that failed or
        never completed is charged at least the latency limit."""
        out = []
        for due, done, error in zip(self.due_s, self.done_s, self.errors):
            if done is None or error is not None:
                out.append(max(limit_ms, ((done or due) - due) * 1e3))
            else:
                out.append((done - due) * 1e3)
        return out

    @property
    def failed(self) -> int:
        return sum(
            1
            for done, error in zip(self.done_s, self.errors)
            if done is None or error is not None
        )


def run_open_loop(
    submit: Callable[[int], "object"],
    offsets_s: Sequence[float],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    wait_timeout_s: float = 60.0,
) -> OpenLoopResult:
    """Send request ``i`` at ``start + offsets_s[i]`` whatever the service does.

    ``submit(i)`` returns a future (``add_done_callback`` / ``result``).  A
    request is timed from when it was *due*, not from when it was sent: if
    the service (or the interpreter lock) stalls the generator, the requests
    that were due during the stall are charged the wait — no coordinated
    omission — and the generator's own lateness is reported separately.
    """
    n = len(offsets_s)
    out = OpenLoopResult(n)
    futures: List[object] = [None] * n
    start = clock()
    for i, offset in enumerate(offsets_s):
        due = start + offset
        wait = due - clock()
        if wait > 0.0:
            sleep(wait)
        out.due_s[i] = due
        out.sent_s[i] = clock()
        try:
            future = submit(i)
        except Exception as error:  # refused or shed: a failed request
            out.errors[i] = error
            out.done_s[i] = clock()
            continue

        def finished(done, index=i):
            out.done_s[index] = clock()

        future.add_done_callback(finished)
        futures[i] = future
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            out.results[i] = future.result(timeout=wait_timeout_s)
        except Exception as error:
            out.errors[i] = error
    return out


# ----------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------
def _closest_pair(a: np.ndarray, b: np.ndarray) -> float:
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt(np.einsum("abd,abd->ab", diff, diff).min()))


class Oracle:
    """Exact answers by scanning every object (a linear scan that skips an
    object only when the boxes of the two alpha-cuts already prove it cannot
    enter the answer).  Shares no code with the engine under test.
    """

    _TIE = 1e-9

    def __init__(self, objects: Iterable) -> None:
        self.objects = {int(obj.object_id): obj for obj in objects}
        self._by_alpha: Dict[float, tuple] = {}

    def add(self, obj) -> None:
        self.objects[int(obj.object_id)] = obj
        self._by_alpha.clear()

    def _cuts(self, alpha: float):
        cached = self._by_alpha.get(alpha)
        if cached is None:
            ids, cuts, lows, highs = [], [], [], []
            for object_id in sorted(self.objects):
                obj = self.objects[object_id]
                cut = obj.points[obj.memberships >= alpha - 1e-12]
                if cut.shape[0] == 0:
                    continue
                ids.append(object_id)
                cuts.append(cut)
                lows.append(cut.min(axis=0))
                highs.append(cut.max(axis=0))
            cached = (np.asarray(ids), cuts, np.asarray(lows), np.asarray(highs))
            self._by_alpha[alpha] = cached
        return cached

    @staticmethod
    def _box_gap(lo, hi, lows, highs) -> np.ndarray:
        gap = np.maximum(0.0, np.maximum(lows - hi, lo - highs))
        return np.sqrt((gap * gap).sum(axis=1))

    def distances_within(
        self, query, alpha: float, live=None, k: Optional[int] = None,
        radius: Optional[float] = None,
    ) -> List[Tuple[float, int]]:
        """Sorted ``(distance, id)`` of every live object that can be among
        the ``k`` nearest (or within ``radius``) of ``query`` at ``alpha``."""
        ids, cuts, lows, highs = self._cuts(alpha)
        qcut = query.points[query.memberships >= alpha - 1e-12]
        gaps = self._box_gap(qcut.min(axis=0), qcut.max(axis=0), lows, highs)
        found: List[Tuple[float, int]] = []
        bound = float("inf") if radius is None else radius
        for row in np.argsort(gaps, kind="stable"):
            object_id = int(ids[row])
            if live is not None and object_id not in live:
                continue
            if gaps[row] > bound + self._TIE:
                break
            found.append((_closest_pair(qcut, cuts[row]), object_id))
            if k is not None and len(found) >= k:
                bound = sorted(found)[k - 1][0]
        found.sort()
        if radius is not None:
            found = [pair for pair in found if pair[0] <= radius + self._TIE]
        return found

    def check_knn(self, answer_ids, query, k: int, alpha: float, live=None) -> bool:
        """Whether ``answer_ids`` is a valid k-nearest set (ties tolerated)."""
        ranked = self.distances_within(query, alpha, live=live, k=k)
        population = len(live) if live is not None else len(self._cuts(alpha)[0])
        answer = {int(i) for i in answer_ids}
        if len(answer) != min(k, population) or len(answer) != len(list(answer_ids)):
            return False
        kth = ranked[min(k, len(ranked)) - 1][0]
        known = {object_id: d for d, object_id in ranked}
        return all(i in known and known[i] <= kth + self._TIE for i in answer)

    def check_range(self, answer_ids, query, alpha: float, radius: float, live=None) -> bool:
        ranked = self.distances_within(query, alpha, live=live, radius=radius)
        sure = {i for d, i in ranked if d <= radius - self._TIE}
        maybe = {i for d, i in ranked}
        answer = {int(i) for i in answer_ids}
        return sure <= answer <= maybe

    def check_reverse(self, answer_ids, query, k: int, alpha: float) -> bool:
        """``A`` is a reverse neighbour iff fewer than ``k`` other objects are
        strictly closer to ``A`` than the query is."""
        ids, cuts, lows, highs = self._cuts(alpha)
        qcut = query.points[query.memberships >= alpha - 1e-12]
        answer = {int(i) for i in answer_ids}
        for row, object_id in enumerate(ids.tolist()):
            to_query = _closest_pair(cuts[row], qcut)
            gaps = self._box_gap(lows[row], highs[row], lows, highs)
            closer = 0
            borderline = False
            for other in np.argsort(gaps, kind="stable"):
                if other == row:
                    continue
                if gaps[other] >= to_query or closer >= k:
                    break
                distance = _closest_pair(cuts[row], cuts[other])
                if abs(distance - to_query) <= self._TIE:
                    borderline = True
                elif distance < to_query:
                    closer += 1
            member = closer < k
            if not borderline and member != (object_id in answer):
                return False
        return True
