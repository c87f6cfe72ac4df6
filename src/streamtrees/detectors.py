"""Adaptive-windowing change detection over a stream of values in [0, 1].

The detector interface the adaptive tree uses is three methods:
``add_element``, ``estimate`` and the ``width`` property. ``AdwinDetector``
is the one implementation. Its window is an exponential histogram that
keeps at most 5 buckets per capacity. A detector is never reset: the
adaptive tree builds a new one.
"""

from __future__ import annotations

import math
import operator


class AdwinDetector:
    """Adaptive window backed by an exponential histogram.

    Elements are kept in buckets whose capacities are powers of two, with at
    most ``MAX_BUCKETS`` buckets per capacity class, the M of Bifet and
    Gavaldà's ADWIN. At each check the window is repeatedly cut at the
    oldest bucket boundary where the two sub-window means differ by at least

        eps_cut = sqrt((1 / (2 m)) * ln(4 / delta'))

    with m = 1 / (1/n0 + 1/n1) (the harmonic-mean term of the sub-window
    sizes) and delta' = delta / (number of cut points tested). Cuts only ever
    drop a prefix of the window.

    Row 0 takes insertions; a check merges over-full rows. ``check_interval``
    > 1 runs the check only every that many insertions, so row 0 may grow
    past ``MAX_BUCKETS`` in between. A row always merges its two oldest
    buckets, so merging a batch builds exactly the buckets that compressing
    after every insertion would, and every cut, sum and width is the same.
    """

    MAX_BUCKETS = 5

    __slots__ = ("delta", "check_interval", "_rows", "total_count", "total_sum", "_ticks")

    def __init__(self, delta: float = 0.002, check_interval: int = 1):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.delta = delta
        self.check_interval = check_interval
        # _rows[i] holds the sums of buckets of exactly 2**i elements, oldest first
        self._rows: list[list[float]] = [[]]
        self.total_count = 0
        self.total_sum = 0.0
        self._ticks = 0

    @property
    def width(self) -> int:
        return self.total_count

    def estimate(self) -> float:
        """Mean of the current (post-cut) window."""
        if self.total_count == 0:
            raise ValueError("empty detector has no estimate")
        return self.total_sum / self.total_count

    def add_element(self, x: float) -> bool:
        """Append x; return True when at least one cut dropped old data."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"element {x} outside [0, 1]")
        self._rows[0].append(x)
        self.total_count += 1
        self.total_sum += x
        self._ticks += 1
        if self._ticks % self.check_interval != 0:
            return False
        self._fold()
        return self._cut()

    def _fold(self) -> None:
        """Merge each over-full row's oldest pairs into the row above until
        no row exceeds MAX_BUCKETS."""
        rows = self._rows
        max_buckets = self.MAX_BUCKETS
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

    def _cut(self) -> bool:
        if self.total_sum == 0.0 and not any(map(any, self._rows)):
            return False  # every sub-window mean is exactly 0, so no boundary can cut
        n_buckets = sum(map(len, self._rows))
        cut_any = False
        while self.total_count >= 2 and n_buckets >= 2:
            k = self._find_cut(n_buckets)
            if not k:
                return cut_any
            self._drop_oldest(k)
            n_buckets -= k
            cut_any = True
        return cut_any

    def _find_cut(self, n_buckets: int) -> int:
        """How many of the oldest buckets form the oldest prefix whose mean
        differs from the rest's by at least eps_cut, or 0 for none."""
        sqrt = math.sqrt
        # delta' spreads the confidence over the boundaries tested in this scan
        dprime = self.delta / max(n_buckets - 1, 1)
        log_term = math.log(4.0 / dprime)
        total = self.total_count
        total_sum = self.total_sum
        # scan boundaries oldest-first: head = prefix (older), tail = rest
        head_count = 0.0
        head_sum = 0.0
        k = 0
        rows = self._rows
        for level in range(len(rows) - 1, -1, -1):
            bcount = float(1 << level)
            for bsum in rows[level]:
                k += 1
                head_count += bcount
                head_sum += bsum
                tail_count = total - head_count
                if tail_count <= 0:
                    return 0
                m = 1.0 / (1.0 / head_count + 1.0 / tail_count)
                eps = sqrt(log_term / (2.0 * m))
                diff = abs(head_sum / head_count - (total_sum - head_sum) / tail_count)
                if diff >= eps:
                    return k
        return 0

    def _drop_oldest(self, k: int) -> None:
        """Drop the k oldest buckets, subtracting their sums oldest first."""
        rows = self._rows
        for level in range(len(rows) - 1, -1, -1):
            row = rows[level]
            n = min(k, len(row))
            for bsum in row[:n]:
                self.total_sum -= bsum
            self.total_count -= n << level
            del row[:n]
            k -= n
            if not k:
                break
        while len(rows) > 1 and not rows[-1]:
            rows.pop()
