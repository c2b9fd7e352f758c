"""Host speed probe: measured times scaled to the host's reference speed.

The benchmark host shares its cores and runs a program at one of two
speeds about 1.3-1.7x apart, for stretches from a fraction of a second to
minutes.  A run that sits wholly in a slow stretch reads slow however many
passes it makes and however they are combined.  :class:`SpeedProbe`
therefore times a fixed reference computation (numpy and pure Python,
nothing from the library) between units of work, and
:meth:`SpeedProbe.factors` scales a unit's time by ``REFERENCE_S`` over
the median probe time around it: a time measured in a slow stretch is
scaled down by the probe's own slowdown there.  A change to the library
moves the units, never the probe, so the scaled times move with it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "SpeedProbe", "reference_work"]

#: The reference computation's time at the fast speed of a 2-vCPU Xeon
#: host (about the 5th percentile of its probe times during benchmark
#: runs); scaled times read as seconds at that speed.
REFERENCE_S = 2.1e-3
#: Probes nearest a unit whose median sets its scale.
WINDOW = 5
#: Least time between the probes taken between units; a probe and its
#: warm-up take about 4 ms, 2% of this.
INTERVAL_S = 0.2

_SMALL = np.linspace(0.0, 1.0, 256)
_LARGE = np.linspace(0.0, 1.0, 1 << 17)
_LARGE_OUT = np.empty_like(_LARGE)
_REVERSED = np.linspace(1.0, 0.0, 1 << 16)
_SORTED = np.empty_like(_REVERSED)


def reference_work() -> float:
    """The fixed computation a probe times, in four parts of similar
    length: interpreted dict and list work, small numpy calls driven from
    an interpreted loop, streams over a 1 MiB array, and an in-place sort
    of a 512 KiB array; preallocated buffers keep it from setting a
    segment's peak RSS.  Each part alone, timed beside chunks of the grid
    and serving workloads over stretches with both host speeds in them,
    slowed 0.6-1.35 times as much as the chunks did; the first three
    together slowed as much (log-log slope 0.96-0.98), and the sort tracked
    the chunks best of the parts tried.
    """
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(3000):
        table[i & 255] = i
        items.append(i * 3)
        acc += len(items) + table.get(i & 127, 0)
        if len(items) > 64:
            items.clear()
    x = _SMALL.copy()
    for _ in range(120):
        x = np.cumsum(x) * 1e-3 + _SMALL
        acc += float(x.max())
    for _ in range(12):
        np.multiply(_LARGE, 1.000001, out=_LARGE_OUT)
    np.copyto(_SORTED, _REVERSED)
    _SORTED.sort()
    return acc + float(_LARGE_OUT[-1] + _SORTED[1])


class SpeedProbe:
    """Probe times over a run, and the scale factors they give.

    ``sample()`` times :func:`reference_work` once; ``maybe_sample()`` does
    so when :data:`INTERVAL_S` has passed since the last probe, and is what
    the workloads call between units.  Stamps are ``time.perf_counter()``
    readings, the clock units are stamped with.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time one :func:`reference_work` after an untimed one, so the
        timed run finds warm caches whatever the library ran before it."""
        reference_work()
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.stamps.append((start + end) / 2)
        self.seconds.append(end - start)

    def maybe_sample(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.sample()

    def run_factor(self) -> float:
        """``REFERENCE_S`` over the median of every probe taken."""
        return REFERENCE_S / float(np.median(self.seconds))

    def factors(self, stamps) -> np.ndarray:
        """``REFERENCE_S`` over the median of the :data:`WINDOW` probes
        around each stamp (the probes are taken in time order)."""
        probe_at = np.asarray(self.stamps)
        probe_s = np.asarray(self.seconds)
        window = min(WINDOW, len(probe_s))
        if window == 0:
            raise ValueError("no probe was taken")
        first = np.searchsorted(probe_at, np.asarray(stamps, dtype=float)) - window // 2
        first = np.clip(first, 0, len(probe_s) - window)
        medians = np.median(probe_s[first[:, None] + np.arange(window)], axis=1)
        return REFERENCE_S / medians
