"""Times in reference seconds, corrected for the host's drifting speed.

A shared host's speed drifts: on a 2-CPU cloud host the same
single-threaded pass runs up to 1.6x slower for stretches of seconds
to minutes while neighbours are busy, with the process never off the
CPU (its CPU time equals its wall).  A wall time taken on such a host
mostly measures the neighbours.

The benchmark therefore probes the host's speed with a fixed piece of
work (:func:`probe_s`) right next to what it times, and divides each
measured wall by the host's *slowness* there, the probe's time over
:data:`REFERENCE_S`.  The probe mixes the kinds of work the program
does: dict stores of fresh tuples and strings, a random gather from an
8 MiB array (beyond the private caches, so it feels a neighbour's
cache and memory traffic) and a small sort.  A time
so corrected is in reference seconds: what the wall would have been
had the host run at the probe's reference speed.  A change to the
program leaves the probe as it is, so it shows in full.

:class:`Timeline` cuts a run's wall into segments at chosen calls,
probes at every cut, and gives each segment's wall and reference
time.
"""

from __future__ import annotations

import gc
import time
from functools import cache
from statistics import median

import numpy as np

clock = time.perf_counter

#: The probe's time on a 2-CPU x86-64 cloud host (Python 3.11) at its
#: fast, uncontended speed; a slowness of 1 means that speed.
REFERENCE_S = 0.00100

_PROBE_STORES = 4000


@cache
def _probe_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gather's 8 MiB array and indices, and the array to sort;
    made on the first probe, so runs that never probe do not hold
    them."""
    rng = np.random.default_rng(0)
    return (
        rng.random(1 << 20),
        rng.integers(0, 1 << 20, 40_000),
        rng.random(20_000),
    )


def _probe_work() -> float:
    table: dict[int, tuple[int, str]] = {}
    for i in range(_PROBE_STORES):
        table[i % 997] = (i, str(i))
    values, picks, unsorted = _probe_arrays()
    return float(values[picks].sum() + np.sort(unsorted)[0]) + len(table)


def probe_s(repeats: int = 3) -> float:
    """Median wall of ``repeats`` runs of the probe work, in seconds.

    The collector is off meanwhile, so the probe's time does not
    depend on how much the process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        walls = []
        for __ in range(repeats):
            start = clock()
            _probe_work()
            walls.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return median(walls)


def slowness(repeats: int = 3) -> float:
    """How many times slower than the reference the host runs now."""
    return probe_s(repeats) / REFERENCE_S


class ReferenceClock:
    """Reference seconds since the clock was made, read off the wall
    clock and the latest probe of the host's slowness.

    :meth:`reprobe` measures the slowness again; the reference clock
    stands still while the probe runs, so probes take no reference
    time.  With ``probe=False`` it reads wall seconds.
    """

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        self._factor = slowness() if probe else 1.0
        self._reference = 0.0
        self._wall = clock()

    def now(self) -> float:
        return self._reference + (clock() - self._wall) / self._factor

    def wall_at(self, reference: float) -> float:
        """The wall clock at which this clock will read ``reference``,
        at the current slowness."""
        return self._wall + (reference - self._reference) * self._factor

    def reprobe(self) -> None:
        if self.probe:
            self._reference = self.now()
            self._factor = slowness()
            self._wall = clock()


class Timeline:
    """A run's wall cut into segments, with the host probed at each cut.

    Each cut runs the probe and records the clock before and after it,
    so no segment contains a probe.  With ``probe=False`` the cuts only
    read the clock (traced runs, whose overhead is measured against
    plain passes), and every slowness reads 1.
    """

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        #: Per cut: name, clock before the probe, clock after it, and
        #: the slowness it measured.
        self.names: list[str] = []
        self._before: list[float] = []
        self._after: list[float] = []
        self._slowness: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def cut(self, name: str) -> None:
        before = clock()
        factor = slowness() if self.probe else 1.0
        self.names.append(name)
        self._before.append(before)
        self._after.append(clock() if self.probe else before)
        self._slowness.append(factor)

    @property
    def start(self) -> float:
        return self._after[0]

    @property
    def end(self) -> float:
        return self._before[-1]

    def walls(self) -> np.ndarray:
        """Wall of each segment between consecutive cuts, probes left out."""
        return np.array(self._before[1:]) - np.array(self._after[:-1])

    def reference_s(self) -> np.ndarray:
        """Each segment's wall over the mean slowness at its two ends."""
        factor = np.array(self._slowness)
        return self.walls() / ((factor[1:] + factor[:-1]) / 2.0)

    def wrap(self, owner: object, attr: str, name: str, after=None) -> None:
        """Cut before and after every call of ``owner.attr``; the k-th
        call's cuts are ``<name><k>.start`` and ``<name><k>.end``.
        ``after(timeline, result)`` runs on the result."""
        original = getattr(owner, attr)
        calls = [0]
        timeline = self

        def timed(*args, **kwargs):
            k = calls[0]
            calls[0] += 1
            timeline.cut(f"{name}{k}.start")
            try:
                result = original(*args, **kwargs)
            finally:
                timeline.cut(f"{name}{k}.end")
            if after is not None:
                after(timeline, result)
            return result

        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, timed)

    def wrap_steps(self) -> None:
        """Cut around every network hour (``hour<k>``), every hour of
        each engine built while wrapped (``engine<k>``) and every
        forest prediction (``predict<k>``: one per classify chunk)."""
        import repro.core.experiment as experiment_module
        from repro.core.network import PseudoHoneypotNetwork
        from repro.ml.forest import RandomForestClassifier

        self.wrap(PseudoHoneypotNetwork, "run_hour", "hour")
        self.wrap(RandomForestClassifier, "predict", "predict")
        self.wrap(
            experiment_module,
            "build_engine",
            "build_engine",
            after=lambda timeline, engine: timeline.wrap(
                engine, "run_hour", "engine"
            ),
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


_MISSING = object()
