"""Machine-speed calibration for CPU-bound timings.

On a shared machine, other tenants can slow the CPU by up to 2x for seconds
at a time. A fixed pure-Python kernel slows by the same factor as mesa's own
CPU work, so a CPU-bound time measured next to the kernel is scaled by
CAL_NOMINAL_S / (kernel time) to read as if the machine ran at the
reference speed. Stdlib only, so set-up processes can import it without
importing mesa.
"""

from __future__ import annotations

from time import perf_counter

CAL_NOMINAL_S = 0.000625  # one kernel run at the reference machine speed


def kernel_seconds() -> float:
    """The fastest of three kernel runs: an interrupt lands in one run, contention in all."""
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return min(times)


def scaled_by_own_kernel(wall_s: float, kernel_s: float) -> float:
    """A process's wall time without its own three kernel runs, at the reference speed."""
    return (wall_s - 3 * kernel_s) * CAL_NOMINAL_S / kernel_s


def kernel() -> int:
    """Fixed pure-Python work: calls, dict lookups and small allocations."""
    table = {i: str(i) for i in range(64)}
    total = 0
    for _ in range(120):
        for key in range(64):
            total += len(table[key]) + (key in table)
        total += len(tuple(range(8)))
    return total


class Speed:
    """Scale factor for CPU-bound times, re-measured at most every `every_s`.

    Callers scale a task by the mean of the factors read just before and just
    after it.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.factors: list[float] = []
        self._measured_at = float("-inf")
        self._factor = 1.0

    def factor(self) -> float:
        if perf_counter() - self._measured_at >= self.every_s:
            self._factor = CAL_NOMINAL_S / kernel_seconds()
            self._measured_at = perf_counter()
            self.factors.append(self._factor)
        return self._factor
