"""Adaptive-windowing change detection over a stream of values in [0, 1].

The detector interface the adaptive tree uses is three methods:
``add_element``, ``estimate`` and the ``width`` property. ``AdwinDetector``
is the one implementation. Its window is an exponential histogram that
keeps at most 5 buckets per capacity. A detector is never reset: the
adaptive tree builds a new one. The adaptive tree's chunk step adds runs of
error bits at once through ``_add_bits``, which leaves a detector as
``add_element`` would. Most checks are cleared by a bound on the window's
minority mass and make no fold and no scan (see ``AdwinDetector``).
"""

from __future__ import annotations

import math
import operator
from functools import reduce

# the relative margin by which a certificate's bounds are widened: the
# scan's divisions and square root round by a few units in the last place
_MARGIN = 2.0**-20


def _drift(ticks: int) -> float:
    """How far ``total_sum``, or any sum of a detector's buckets, may have
    rounded away from the exact sum after ``ticks`` insertions in all:
    2**-53 of a sum of at most ``ticks`` at each of fewer than 2 * ticks
    additions and subtractions, and at each level of a bucket's or a head's
    sum, twice over. Sums of bits are exact and do not drift at all."""
    return ticks * (ticks + 1024) * 2.0**-50


class AdwinDetector:
    """Adaptive window backed by an exponential histogram.

    Elements are kept in buckets whose capacities are powers of two, with at
    most ``MAX_BUCKETS`` buckets per capacity class, the M of Bifet and
    Gavaldà's ADWIN. At each check the window is repeatedly cut at the
    oldest bucket boundary where the two sub-window means differ by at least

        eps_cut = sqrt((1 / (2 m)) * ln(4 / delta'))

    with m = 1 / (1/n0 + 1/n1) (the harmonic-mean term of the sub-window
    sizes) and delta' = ``DELTA`` / (number of cut points tested). Cuts
    only ever drop a prefix of the window.

    Row 0 takes insertions; a scan merges over-full rows first. The check
    runs only every ``CHECK_INTERVAL`` insertions, so row 0 may grow past
    ``MAX_BUCKETS`` in between. A row always merges its two oldest
    buckets, so merging a batch builds exactly the buckets that compressing
    after every insertion would, and every cut, sum and width is the same.

    Most checks cannot cut. Write L = ln(4 / delta'), h and t for the
    head's and the tail's element counts at a boundary, diff for the
    difference of their means, and r = min(S, n - S) for the window's
    minority mass (S its sum, n its width). Then eps_cut^2 = L / (2 m) >
    L / (2 min(h, t)), and, for any values in [0, 1]:

        diff <= 1                so a cut needs min(h, t) > L / 2,
        diff <= r / min(h, t)    so a cut needs min(h, t) < 2 r^2 / L,

    since both sub-window means lie in [0, r / min(h, t)], or both of
    their complements do. So a window with r <= L / 2 cannot cut: with L
    at least ln(4 / DELTA), about 7.6, that is a window of bits with at
    most 3 minority values. Nor can a window with a small sum whose two
    ends hold little of it (``_quiet_ends``). Every bound is widened by
    ``_MARGIN`` for the scan's rounding and by ``_drift`` for the rounding
    that sums gather on values other than 0 and 1 (sums of bits are
    exact), so no rounding flips a result.

    A check that either certificate clears at the smallest L, before any
    fold, neither folds nor scans: row 0 keeps its entries until the next
    scan, until it holds more than ``_PENDING``, or until ``_rows`` is
    read. A scan that runs still adds the head sums oldest first, so every
    float it tests is the same, but it tests only the rows that hold a
    boundary whose smaller side holds fewer than hi = 2 r^2 / L elements:
    where the window holds few minority values, the rows at its two ends.
    At each boundary it tests, the divisions and the square root run only
    when a test by products alone does not rule a cut out (``_find_cut``).
    """

    MAX_BUCKETS = 5
    # confidence and cut-check interval (Bifet & Gavaldà, SDM 2007), fixed
    # values read at call time, so a test may patch them
    DELTA = 0.002
    CHECK_INTERVAL = 32

    # row 0 entries that a cleared check may leave unfolded
    _PENDING = 128

    __slots__ = ("_buckets", "total_count", "total_sum", "_ticks")

    def __init__(self):
        # _buckets[i] holds the sums of buckets of exactly 2**i elements,
        # oldest first; row 0 may hold entries not folded yet
        self._buckets: list[list[float]] = [[]]
        self.total_count = 0
        self.total_sum = 0.0
        self._ticks = 0

    @property
    def _rows(self) -> list[list[float]]:
        """The bucket rows with every pending entry folded in."""
        self._fold()
        return self._buckets

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
        self._buckets[0].append(x)
        self.total_count += 1
        self.total_sum += x
        self._ticks += 1
        if self._ticks % self.CHECK_INTERVAL != 0:
            return False
        if self._clear():
            self._settle()
            return False
        return self._cut()

    def _span(self, log_term: float, total_sum: float, total_count: int, ticks: int) -> tuple[float, float]:
        """(lo, hi): a boundary can cut only where lo < min(h, t) < hi, for
        a window of these totals after ``ticks`` insertions in all."""
        mass = min(total_sum, total_count - total_sum) + _drift(ticks)
        return 0.5 * log_term * (1.0 - _MARGIN), 2.0 * mass * mass / log_term * (1.0 + _MARGIN)

    def _cannot_cut(self, total_sum: float, total_count: int, ticks: int) -> bool:
        """Whether no check of a window with these totals can cut, whatever
        its buckets: r <= L / 2 at the smallest L, that of at most two
        buckets, which holds before any fold. Less the margin, it leaves
        ``_span``'s window empty."""
        mass = min(total_sum, total_count - total_sum) + _drift(ticks)
        return mass <= 0.5 * math.log(4.0 / self.DELTA) * (1.0 - _MARGIN)

    def _clear(self) -> bool:
        """Whether the window as it stands cannot cut, folded or not."""
        total, total_sum, ticks = self.total_count, self.total_sum, self._ticks
        if self._cannot_cut(total_sum, total, ticks):
            return True
        # _quiet_ends' premise, tested here: windows that hold many errors
        # fail it at every check
        log_term = math.log(4.0 / self.DELTA)
        drift = _drift(ticks)
        return 4.0 * (total_sum + drift) ** 2 <= total * log_term * (1.0 - _MARGIN) and self._quiet_ends(log_term, drift)

    def _quiet_ends(self, log_term: float, drift: float) -> bool:
        """Whether the window cannot cut because its sum S is small and
        neither end of it holds enough of that sum.

        When 4 S^2 <= n L, the larger side of a boundary inside the
        candidate window (at least n / 2 elements, at most S in sum) has a
        mean of at most 2 S / n <= L / (2 S) < eps_cut, as min(h, t) <
        2 S^2 / L. So only the smaller side's mean can reach eps_cut >
        sqrt(L / (2 min(h, t))), and then its sum passes
        sqrt(L min(h, t) / 2) > L / 2. The smaller side is the oldest or
        the youngest min(h, t) < hi elements. Folding only merges
        neighbouring buckets, so every boundary of the folded window is
        one of the unfolded window's, and the bound needs no fold.
        ``_clear`` tests 4 S^2 <= n L, widened, before it calls this."""
        lo, hi = self._span(log_term, self.total_sum, self.total_count, self._ticks)
        limit = lo * (1.0 - _MARGIN) - drift
        rows = self._buckets
        # the sum of the oldest buckets up to the last boundary whose head
        # holds at most hi elements, then that of the youngest
        count, mass = 0, 0.0
        for level in range(len(rows) - 1, -1, -1):
            row = rows[level]
            k = min(len(row), int((hi - count) / (1 << level)))
            mass += sum(row[:k])
            if k < len(row):
                break
            count += k << level
        if mass > limit:
            return False
        count, mass = 0, 0.0
        for level, row in enumerate(rows):
            k = min(len(row), int((hi - count) / (1 << level)))
            mass += sum(row[len(row) - k:])
            if k < len(row):
                break
            count += k << level
        return mass <= limit

    def _settle(self) -> None:
        """Fold row 0 once it holds more than ``_PENDING`` entries."""
        if len(self._buckets[0]) > self._PENDING:
            self._fold()

    def _fold(self) -> None:
        """Merge each over-full row's oldest pairs into the row above until
        no row exceeds MAX_BUCKETS."""
        rows = self._buckets
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

    def _add_bits(self, bits: list) -> int:
        """Add ``bits``, each 0.0 or 1.0, in order, as ``add_element`` would,
        up to the first one whose check would cut, and return how many were
        added: ``len(bits)`` when no check cuts. The detector is then as
        that many ``add_element`` calls leave it, and the bit that would cut
        is left for ``add_element``.

        Every bucket sum is then a whole number below 2**53, so a run of
        bits adds to ``total_sum`` at once, exactly. When the certificate
        clears the window at the run's end, the whole run goes in at once:
        the minority mass and the tick count only grow along a run, and a
        cut would only shrink the mass, so no check in it can cut."""
        n = len(bits)
        ones = sum(bits)
        if self._cannot_cut(self.total_sum + ones, self.total_count + n, self._ticks + n):
            self._buckets[0] += bits
            self.total_count += n
            self.total_sum += ones
            self._ticks += n
            self._settle()
            return n
        interval = self.CHECK_INTERVAL
        added = 0
        while True:
            # the bits before the next check, then the bit that reaches it
            free = min(interval - 1 - self._ticks % interval, n - added)
            if free:
                run = bits[added:added + free]
                self._buckets[0] += run
                self.total_count += free
                self.total_sum += sum(run)
                self._ticks += free
                added += free
            if added == n or self._check(bits[added], True):
                return added
            added += 1

    def _cuts_with(self, x: float) -> bool:
        """Whether ``add_element(x)`` would cut now; leaves the detector as it is."""
        return (self._ticks + 1) % self.CHECK_INTERVAL == 0 and self._check(x, False)

    def _check(self, x: float, keep: bool) -> bool:
        """Add ``x``, which reaches a check; whether the check would cut.
        Undone when it would, or when ``keep`` is false."""
        before = self.total_count, self.total_sum, self._ticks
        rows = self._buckets
        rows[0].append(x)
        self.total_count += 1
        self.total_sum += x
        self._ticks += 1
        if self._clear():
            if keep:
                self._settle()
                return False
            rows[0].pop()
            cuts = False
        else:
            kept = [rows[0][:-1], *(row[:] for row in rows[1:])]  # the rows without x
            cuts = self._first_cut() != 0
            if keep and not cuts:
                return False
            self._buckets = kept
        self.total_count, self.total_sum, self._ticks = before
        return cuts

    def _cut(self) -> bool:
        cut_any = False
        while k := self._first_cut():
            self._drop_oldest(k)
            cut_any = True
        return cut_any

    def _first_cut(self) -> int:
        """How many of the oldest buckets the next cut drops, or 0 for none;
        the scan reads the rows folded."""
        n_buckets = sum(map(len, self._rows))
        if self.total_count < 2 or n_buckets < 2:
            return 0
        return self._find_cut(n_buckets)

    def _find_cut(self, n_buckets: int) -> int:
        """How many of the oldest buckets form the oldest prefix whose mean
        differs from the rest's by at least eps_cut, or 0 for none.

        With hs the head's sum and S the window's, diff >= eps_cut reads

            |hs n - S h| / (h t) >= sqrt(L n / (2 h t)),
            so (hs n - S h)^2 >= L n h t / 2.

        Computed from the same floats, the second form rounds away from
        the first by far less than ``_MARGIN`` while the window holds
        fewer than 2**26 elements. So a boundary that fails it, widened by
        the margin, fails the first form too, and only a boundary that
        passes runs the divisions and the square root."""
        sqrt = math.sqrt
        # delta' spreads the confidence over the boundaries tested in this scan
        dprime = self.DELTA / max(n_buckets - 1, 1)
        log_term = math.log(4.0 / dprime)
        total = self.total_count
        total_sum = self.total_sum
        lo, hi = self._span(log_term, total_sum, total, self._ticks)
        if hi <= lo:
            return 0
        # scan boundaries oldest-first: head = prefix (older), tail = rest
        head_count = 0.0
        head_sum = 0.0
        k = 0
        rows = self._buckets
        # no boundary has hi elements or more on both sides of it unless
        # the window holds 2 hi
        middle = 2.0 * hi <= total
        bar = 0.5 * log_term * total * (1.0 - _MARGIN) if total < 2**26 else 0.0
        for level in range(len(rows) - 1, -1, -1):
            row = rows[level]
            bcount = float(1 << level)
            if middle and head_count + bcount >= hi <= total - head_count - len(row) * bcount:
                # both sides of each boundary in this row hold hi elements or
                # more, so none can cut: add the row's sums, in order
                head_sum = reduce(operator.add, row, head_sum)
                head_count += len(row) * bcount
                k += len(row)
                continue
            for bsum in row:
                k += 1
                head_count += bcount
                head_sum += bsum
                tail_count = total - head_count
                if tail_count <= 0:
                    return 0
                gap = head_sum * total - total_sum * head_count
                if gap * gap < bar * head_count * tail_count:
                    continue
                m = 1.0 / (1.0 / head_count + 1.0 / tail_count)
                eps = sqrt(log_term / (2.0 * m))
                diff = abs(head_sum / head_count - (total_sum - head_sum) / tail_count)
                if diff >= eps:
                    return k
        return 0

    def _drop_oldest(self, k: int) -> None:
        """Drop the k oldest buckets, subtracting their sums oldest first."""
        rows = self._buckets
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
