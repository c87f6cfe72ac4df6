import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamtrees.detectors import AdwinDetector


class NeverFireDetector:
    """Detector stub that accepts every element and never signals change.

    An adaptive tree built with it (``test_hat.NeverFireHat``) learns exactly
    what the base tree learns, which is the differential oracle for the
    adaptive tree.
    """

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


class ReferenceAdwin:
    """Per-insert ADWIN: the histogram is compressed after every insertion.

    Rows hold explicit ``[sum, count]`` buckets and the cut scan is the same
    arithmetic as ``AdwinDetector``'s, so the two must agree bit for bit.
    """

    max_buckets = 5

    def __init__(self, delta=0.002, check_interval=1):
        self.delta = delta
        self.check_interval = check_interval
        self._rows = [[]]
        self.total_count = 0
        self.total_sum = 0.0
        self.n_buckets = 0
        self._ticks = 0

    @property
    def width(self):
        return self.total_count

    def add_element(self, x):
        self._rows[0].append([x, 1.0])
        self.n_buckets += 1
        self.total_count += 1
        self.total_sum += x
        self._compress()
        self._ticks += 1
        if self._ticks % self.check_interval != 0:
            return False
        return self._cut()

    def _compress(self):
        rows = self._rows
        level = 0
        while level < len(rows):
            row = rows[level]
            if len(row) <= self.max_buckets:
                break
            a = row.pop(0)
            b = row.pop(0)
            if level + 1 == len(rows):
                rows.append([])
            rows[level + 1].append([a[0] + b[0], a[1] + b[1]])
            self.n_buckets -= 1
            level += 1

    def _cut(self):
        cut_any = False
        while self.total_count >= 2 and self.n_buckets >= 2:
            dprime = self.delta / max(self.n_buckets - 1, 1)
            log_term = math.log(4.0 / dprime)
            total = self.total_count
            total_sum = self.total_sum
            head_count = 0.0
            head_sum = 0.0
            cut_at = None
            for level in range(len(self._rows) - 1, -1, -1):
                row = self._rows[level]
                for idx in range(len(row)):
                    bsum, bcount = row[idx]
                    head_count += bcount
                    head_sum += bsum
                    tail_count = total - head_count
                    if tail_count <= 0:
                        break
                    m = 1.0 / (1.0 / head_count + 1.0 / tail_count)
                    eps = math.sqrt(log_term / (2.0 * m))
                    diff = abs(head_sum / head_count - (total_sum - head_sum) / tail_count)
                    if diff >= eps:
                        cut_at = (level, idx)
                        break
                if cut_at is not None:
                    break
            if cut_at is None:
                return cut_any
            self._drop_through(cut_at)
            cut_any = True
        return cut_any

    def _drop_through(self, cut_at):
        level, idx = cut_at
        for lv in range(len(self._rows) - 1, level, -1):
            for bsum, bcount in self._rows[lv]:
                self.total_sum -= bsum
                self.total_count -= int(bcount)
                self.n_buckets -= 1
            self._rows[lv] = []
        row = self._rows[level]
        for bsum, bcount in row[: idx + 1]:
            self.total_sum -= bsum
            self.total_count -= int(bcount)
            self.n_buckets -= 1
        self._rows[level] = row[idx + 1 :]
        while len(self._rows) > 1 and not self._rows[-1]:
            self._rows.pop()
        if self.total_count == 0:
            self.total_sum = 0.0

    def row_sums(self):
        for level, row in enumerate(self._rows):
            assert all(count == 2**level for _, count in row)
        return [[bsum for bsum, _ in row] for row in self._rows]


def assert_matches_reference(xs, delta=0.002, check_interval=1):
    """Feed xs to both detectors; every observable must be exactly equal."""
    det = AdwinDetector(delta, check_interval)
    ref = ReferenceAdwin(delta, check_interval)
    for i, x in enumerate(xs, 1):
        assert det.add_element(x) == ref.add_element(x), i
        assert det.width == ref.width and det.total_sum == ref.total_sum, i
        if i % check_interval == 0:
            # a check tick has folded everything, so the rows are comparable
            assert det._rows == ref.row_sums(), i
            assert sum(map(len, det._rows)) == ref.n_buckets, i
    det._fold()
    assert sum(map(len, det._rows)) == ref.n_buckets
    assert det._rows == ref.row_sums()


def phased_stream(seed, phase_length=600):
    """Bernoulli phases at 0.1/0.5/0.9/0.3/0.05, then uniform floats."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = [rng.random(phase_length) < p for p in (0.1, 0.5, 0.9, 0.3, 0.05)]
    return [float(x) for x in np.concatenate(bits + [rng.random(phase_length)])]


class SuffixOracle:
    """List-backed mirror: tracks the exact retained window of a detector."""

    def __init__(self, detector):
        self.detector = detector
        self.values = []

    def add(self, x):
        self.values.append(x)
        self.detector.add_element(x)
        # cuts only drop a prefix, so the retained window is a suffix
        self.values = self.values[len(self.values) - self.detector.width :]

    def mean(self):
        return sum(self.values) / len(self.values)


def test_constant_stream_never_flags():
    det = AdwinDetector()
    assert not any(det.add_element(0.0) for _ in range(5000))
    assert det.estimate() == 0.0
    assert det.width == 5000


def test_estimate_is_window_mean():
    det = AdwinDetector()
    for x in (1.0, 0.0, 1.0, 0.0):
        det.add_element(x)
    assert det.estimate() == pytest.approx(0.5)


def test_empty_estimate_raises():
    with pytest.raises(ValueError):
        AdwinDetector().estimate()


def test_out_of_range_rejected():
    det = AdwinDetector()
    with pytest.raises(ValueError):
        det.add_element(1.5)
    with pytest.raises(ValueError):
        det.add_element(-0.1)


def test_window_mean_matches_suffix_oracle():
    """Exhaustive check vs a list-backed oracle on 2000-element streams."""
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = np.concatenate(
            [(rng.random(1000) < 0.3), (rng.random(1000) < 0.7)]
        ).astype(float)
        det = AdwinDetector(delta=0.01)
        oracle = SuffixOracle(det)
        for x in xs:
            oracle.add(float(x))
            assert det.width == len(oracle.values)
            assert det.estimate() == pytest.approx(oracle.mean(), abs=1e-6)
            assert det.total_sum == pytest.approx(sum(oracle.values), abs=1e-6)


@pytest.mark.parametrize("check_interval", [1, 5, 7, 32, 64])
@pytest.mark.parametrize("seed", [100, 200, 300, 500])
def test_matches_per_insert_reference(seed, check_interval):
    xs = phased_stream(seed + check_interval)
    assert_matches_reference(xs, 0.002, check_interval)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.booleans(), max_size=3000),
    check_interval=st.integers(min_value=1, max_value=70),
)
def test_a_detector_that_fires_keeps_a_nonempty_window(bits, check_interval):
    """A cut leaves a non-empty tail, so ``width >= 1`` whenever ``add_element``
    returns True: the adaptive tree compares a detector that just fired
    without checking its width."""
    det = AdwinDetector(0.002, check_interval)
    for bit in bits:
        if det.add_element(float(bit)):
            assert det.width >= 1


def sparse_error_stream(seed):
    """Error bits of a mostly right learner: zero runs, rare errors, one burst of errors."""
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = [np.zeros(700), rng.random(1500) < 0.01, np.ones(300),
             np.zeros(2500), rng.random(1000) < 0.002]
    return [float(x) for x in np.concatenate(parts)]


@pytest.mark.parametrize("seed, check_interval", [(501, 1), (507, 7), (207, 7)])
def test_matches_reference_on_sparse_error_streams(seed, check_interval):
    xs = sparse_error_stream(seed)
    assert_matches_reference(xs, 0.002, check_interval)
    # the all-zero windows that skip the cut scan occur both before and after a cut
    det = AdwinDetector(0.002, check_interval)
    cut = zero_before_cut = zero_after_cut = False
    for i, x in enumerate(xs, 1):
        cut |= det.add_element(x)
        if i % check_interval == 0 and det.total_sum == 0.0:
            zero_before_cut |= not cut
            zero_after_cut |= cut
    assert zero_before_cut and zero_after_cut


@pytest.mark.parametrize("check_interval", [5, 64, 32, 7])
def test_reading_between_checks_changes_nothing(check_interval):
    xs = phased_stream(11, phase_length=1000)
    read = AdwinDetector(0.002, check_interval)
    unread = AdwinDetector(0.002, check_interval)
    for x in xs:
        assert read.add_element(x) == unread.add_element(x)
        read._fold()  # merging between checks builds the buckets a check would
        assert read.width == unread.width
        if read.width:
            assert read.estimate() == unread.estimate()
        assert read.total_sum == unread.total_sum
    unread._fold()
    assert read._rows == unread._rows


def test_detects_mean_shift_quickly_across_seeds():
    """2000 draws at 0.2 then 2000 at 0.8 flag within 500 in >= 99/100 runs."""
    detected = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = np.concatenate(
            [(rng.random(2000) < 0.2), (rng.random(2000) < 0.8)]
        ).astype(float)
        det = AdwinDetector(delta=0.002)
        for i, x in enumerate(xs):
            if det.add_element(float(x)) and i >= 2000:
                if i - 2000 <= 500:
                    detected += 1
                break
    assert detected >= 99


def test_stationary_false_positives_rare():
    """Over 10,000 stationary Bernoulli(0.5) draws, <= 5/100 seeded runs fire."""
    fired_runs = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        xs = (rng.random(10_000) < 0.5).astype(float)
        det = AdwinDetector(delta=0.002)
        if any(det.add_element(float(x)) for x in xs):
            fired_runs += 1
    assert fired_runs <= 5


def test_bucket_count_logarithmic_at_1e6():
    det = AdwinDetector(check_interval=32)
    rng = np.random.Generator(np.random.PCG64(7))
    for x in (rng.random(1_000_000) < 0.5).astype(float):
        det.add_element(float(x))
    # 5 buckets per capacity class, ~log2(1e6) classes
    det._fold()
    assert sum(map(len, det._rows)) <= 150
    assert det.width == 1_000_000


def test_monotone_forgetting_only_drops_prefix():
    rng = np.random.Generator(np.random.PCG64(3))
    xs = np.concatenate([(rng.random(800) < 0.1), (rng.random(800) < 0.9)]).astype(float)
    det = AdwinDetector()
    history = []
    for x in xs:
        history.append(float(x))
        det.add_element(float(x))
        # the retained suffix of the raw history reproduces the window sums
        suffix = history[len(history) - det.width :]
        assert det.total_sum == pytest.approx(sum(suffix), abs=1e-9)


def test_never_fire_stub_interface():
    det = NeverFireDetector()
    assert not any(det.add_element(1.0) for _ in range(1000))
    assert det.width == 0
    with pytest.raises(ValueError):
        det.estimate()
    with pytest.raises(ValueError):
        det.add_element(2.0)


def test_detectors_share_three_method_interface():
    public = {"add_element", "estimate", "width"}
    assert {n for n in dir(NeverFireDetector) if not n.startswith("_")} == public
    state = {"MAX_BUCKETS", "delta", "check_interval", "total_count", "total_sum"}
    assert {n for n in dir(AdwinDetector) if not n.startswith("_")} == public | state


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        AdwinDetector(delta=0.0)
    with pytest.raises(ValueError):
        AdwinDetector(delta=1.0)
    with pytest.raises(ValueError):
        AdwinDetector(check_interval=0)
