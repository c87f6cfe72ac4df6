"""Adaptive-windowing change detection over a stream of values in [0, 1].

The detector interface used throughout the package is four methods:
``add_element``, ``estimate``, ``width`` and ``reset``. ``AdwinDetector`` is
the real implementation; ``NeverFireDetector`` is an inert stand-in so an
adaptive tree can be collapsed onto its non-adaptive base for differential
testing.
"""

from __future__ import annotations

import math
import operator


class AdwinDetector:
    """Adaptive window backed by an exponential histogram.

    Elements are kept in buckets whose capacities are powers of two, with at
    most ``max_buckets`` buckets per capacity class. At each check the window
    is repeatedly cut at the oldest bucket boundary where the two sub-window
    means differ by at least

        eps_cut = sqrt((1 / (2 m)) * ln(4 / delta'))

    with m = 1 / (1/n0 + 1/n1) (the harmonic-mean term of the sub-window
    sizes) and delta' = delta / (number of cut points tested). Cuts only ever
    drop a prefix of the window.

    ``check_interval`` > 1 runs the cut scan only every that many insertions.
    Insertions in between are only queued; the check first folds them into
    the histogram. A row always merges its two oldest buckets, so folding a
    batch builds exactly the buckets that compressing after every insertion
    would, and every cut, sum and width is the same.
    """

    __slots__ = (
        "delta",
        "max_buckets",
        "check_interval",
        "_rows",
        "_pending",
        "total_count",
        "total_sum",
        "_n_buckets",
        "_ticks",
    )

    def __init__(self, delta: float = 0.002, max_buckets: int = 5, check_interval: int = 1):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if max_buckets < 1 or check_interval < 1:
            raise ValueError("max_buckets and check_interval must be >= 1")
        self.delta = delta
        self.max_buckets = max_buckets
        self.check_interval = check_interval
        self.reset()

    def reset(self) -> None:
        # _rows[i] holds the sums of buckets of exactly 2**i elements, oldest
        # first; _pending holds the elements not yet folded into _rows[0]
        self._rows: list[list[float]] = [[]]
        self._pending: list[float] = []
        self.total_count = 0
        self.total_sum = 0.0
        self._n_buckets = 0
        self._ticks = 0

    @property
    def width(self) -> int:
        return self.total_count

    @property
    def n_buckets(self) -> int:
        self._fold()
        return self._n_buckets

    def estimate(self) -> float:
        """Mean of the current (post-cut) window."""
        if self.total_count == 0:
            raise ValueError("empty detector has no estimate")
        return self.total_sum / self.total_count

    def add_element(self, x: float) -> bool:
        """Append x; return True when at least one cut dropped old data."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"element {x} outside [0, 1]")
        self._pending.append(x)
        self.total_count += 1
        self.total_sum += x
        self._ticks += 1
        if self._ticks % self.check_interval != 0:
            return False
        self._fold()
        return self._cut()

    def _fold(self) -> None:
        """Move pending elements into row 0, then merge each over-full row's
        oldest pairs into the row above until no row exceeds max_buckets."""
        rows = self._rows
        rows[0] += self._pending
        self._n_buckets += len(self._pending)
        self._pending = []
        max_buckets = self.max_buckets
        merged = 0
        # a merge may append a new top row, which this loop then also visits
        for level, row in enumerate(rows):
            if len(row) <= max_buckets:
                break
            # the fewest oldest pairs whose merging leaves <= max_buckets
            n2 = (len(row) - max_buckets + 1) // 2 * 2
            if level + 1 == len(rows):
                rows.append([])
            pairs = iter(row[:n2])
            rows[level + 1] += map(operator.add, pairs, pairs)
            del row[:n2]
            merged += n2 // 2
        self._n_buckets -= merged

    def _cut(self) -> bool:
        if self.total_sum == 0.0 and not any(map(any, self._rows)):
            return False  # every sub-window mean is exactly 0, so no boundary can cut
        cut_any = False
        while self.total_count >= 2 and self._n_buckets >= 2:
            cut_at = self._find_cut()
            if cut_at is None:
                return cut_any
            self._drop_through(*cut_at)
            cut_any = True
        return cut_any

    def _find_cut(self) -> tuple[int, int] | None:
        """(level, index within row) of the last bucket of the oldest prefix
        whose mean differs from the rest's by at least eps_cut."""
        sqrt = math.sqrt
        # delta' spreads the confidence over the boundaries tested in this scan
        dprime = self.delta / max(self._n_buckets - 1, 1)
        log_term = math.log(4.0 / dprime)
        total = self.total_count
        total_sum = self.total_sum
        # scan boundaries oldest-first: head = prefix (older), tail = rest
        head_count = 0.0
        head_sum = 0.0
        rows = self._rows
        for level in range(len(rows) - 1, -1, -1):
            bcount = float(1 << level)
            for idx, bsum in enumerate(rows[level]):
                head_count += bcount
                head_sum += bsum
                tail_count = total - head_count
                if tail_count <= 0:
                    return None
                m = 1.0 / (1.0 / head_count + 1.0 / tail_count)
                eps = sqrt(log_term / (2.0 * m))
                diff = abs(head_sum / head_count - (total_sum - head_sum) / tail_count)
                if diff >= eps:
                    return level, idx
        return None

    def _drop_through(self, level: int, idx: int) -> None:
        """Drop every bucket at least as old as (level, idx)."""
        rows = self._rows
        for lv in range(len(rows) - 1, level, -1):
            for bsum in rows[lv]:
                self.total_sum -= bsum
            self.total_count -= len(rows[lv]) << lv
            self._n_buckets -= len(rows[lv])
            rows[lv] = []
        row = rows[level]
        for bsum in row[: idx + 1]:
            self.total_sum -= bsum
        self.total_count -= (idx + 1) << level
        self._n_buckets -= idx + 1
        del row[: idx + 1]
        while len(rows) > 1 and not rows[-1]:
            rows.pop()
        if self.total_count == 0:
            self.total_sum = 0.0


class NeverFireDetector:
    """Detector stub that accepts every element and never signals change."""

    __slots__ = ()

    def add_element(self, x: float) -> bool:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"element {x} outside [0, 1]")
        return False

    def estimate(self) -> float:
        raise ValueError("empty detector has no estimate")

    @property
    def width(self) -> int:
        return 0

    def reset(self) -> None:
        pass
