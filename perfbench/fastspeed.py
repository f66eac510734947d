"""CG solve time at the host's fast speed, from its individually timed steps.

The 2-vCPU VM the benchmark was tuned on runs the same code at two speeds
about 1.8x apart (1.7 and 3.1 ms for one disk2d vmult) and switches between
them within a fraction of a second, sometimes staying at one for tens of
seconds.  CPU time equals wall time throughout, so the process is never
descheduled: the host's other load slows it.  A solve of one to three
seconds always straddles both speeds, so its wall time, and any mean or
median of it over a run, moves with the share of the run the host spent
slow; over ten runs such times spread by 0.12-0.30 of their median.

A CG solve is made of identical iterations, though, and each step of an
iteration is short enough to run at one speed.  The benchmark hands cg_solve
an operator that marks the entry and exit of every application, which splits
the solve into steps: a set-up, then applications alternating with the
vector updates between them, then a return.  The fastest application and the
fastest update over all rounds of a run are those steps at the fast speed,
and the solve at the fast speed is the sum over its steps, with the set-up
and return (about 0.1% of a solve) as measured.  A program change that
slows either kind of step moves its fastest time; only the host's speed is
left out.  Over eight 30 s disk2d runs the fastest application spread by
IQR/median 0.014, its 1st percentile by 0.045 and its 5th by 0.068.
"""

from __future__ import annotations

import time

import numpy as np


class Marks:
    """Timestamps at the entry and exit of the wrapped calls."""

    def __init__(self):
        self.times: list[float] = []

    def wrap(self, fn):
        times = self.times

        def marked(*args, **kwargs):
            times.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter())

        return marked


def steps(start: float, marks: list[float], end: float) -> np.ndarray:
    """Durations between consecutive marks, from ``start`` to ``end``.

    With marks at the entry and exit of every application these alternate:
    set-up, application, update, application, ..., application, return.
    """
    return np.diff(np.array([start, *marks, end]))


def fast_step_times(rounds: list[np.ndarray]) -> tuple[float, float]:
    """(update, application) at the fast speed: the fastest of each over all
    rounds."""
    updates = np.concatenate([r[2:-1:2] for r in rounds])
    applications = np.concatenate([r[1::2] for r in rounds])
    return float(updates.min()), float(applications.min())


def fast_solve_time(rounds: list[np.ndarray]) -> float:
    """One solve at the fast speed: its applications and updates at their
    fastest, its set-up and return as measured; the median over rounds."""
    update, application = fast_step_times(rounds)
    return float(np.median([len(r) // 2 * application + (len(r) // 2 - 1) * update + r[0] + r[-1]
                            for r in rounds]))
