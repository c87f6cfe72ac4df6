import math
from contextlib import contextmanager

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


@contextmanager
def adwin_settings(delta, check_interval):
    """Inside the block ``AdwinDetector`` reads these values for its constants.
    A block, not the function-scoped ``monkeypatch`` fixture, so that a
    hypothesis test patches once per example."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AdwinDetector, "DELTA", delta)
        mp.setattr(AdwinDetector, "CHECK_INTERVAL", check_interval)
        yield


def assert_matches_reference(xs, delta=0.002, check_interval=1):
    """Feed xs to both detectors; every observable must be exactly equal."""
    with adwin_settings(delta, check_interval):
        det = AdwinDetector()
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


def test_constant_stream_never_flags(monkeypatch):
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", 1)
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


def test_window_mean_matches_suffix_oracle(monkeypatch):
    """Exhaustive check vs a list-backed oracle on 2000-element streams."""
    monkeypatch.setattr(AdwinDetector, "DELTA", 0.01)
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", 1)
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = np.concatenate(
            [(rng.random(1000) < 0.3), (rng.random(1000) < 0.7)]
        ).astype(float)
        det = AdwinDetector()
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
    with adwin_settings(0.002, check_interval):
        det = AdwinDetector()
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
def test_matches_reference_on_sparse_error_streams(seed, check_interval, monkeypatch):
    xs = sparse_error_stream(seed)
    assert_matches_reference(xs, 0.002, check_interval)
    # the all-zero windows that skip the cut scan occur both before and after a cut
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", check_interval)
    det = AdwinDetector()
    cut = zero_before_cut = zero_after_cut = False
    for i, x in enumerate(xs, 1):
        cut |= det.add_element(x)
        if i % check_interval == 0 and det.total_sum == 0.0:
            zero_before_cut |= not cut
            zero_after_cut |= cut
    assert zero_before_cut and zero_after_cut


def detector_state(det):
    """Every field of a detector, floats by repr."""
    return repr(det._rows), repr(det.total_sum), det.total_count, det._ticks


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), check_interval=st.sampled_from([1, 3, 32]),
       sizes=st.lists(st.integers(1, 200), min_size=1, max_size=20))
def test_add_bits_leaves_the_detector_as_add_element_does(seed, check_interval, sizes):
    """``_add_bits`` adds a run of bits up to the first one whose check
    would cut, leaving the detector as that many ``add_element`` calls
    do; ``_cuts_with`` then foresees the cut without changing anything."""
    bits = [float(x) for x in phased_stream(seed, phase_length=300)[:1500] if x in (0.0, 1.0)]
    cuts = 0
    with adwin_settings(0.002, check_interval):
        bulk, single = AdwinDetector(), AdwinDetector()
        start = 0
        for size in sizes * (len(bits) // sum(sizes) + 1):
            run = bits[start:start + size]
            if not run:
                break
            added = bulk._add_bits(run)
            assert not any(single.add_element(x) for x in run[:added])
            assert detector_state(bulk) == detector_state(single)
            if added < len(run):
                before = detector_state(bulk)
                assert bulk._cuts_with(run[added])
                assert detector_state(bulk) == before
                assert bulk.add_element(run[added]) and single.add_element(run[added])
                added += 1
                cuts += 1
            start += added
        assert detector_state(bulk) == detector_state(single)
    # the phases shift the mean, so runs stop at cuts
    assert cuts > 0


@st.composite
def edge_windows(draw):
    """A window of majority values with 0-8 minority values packed at its
    young end, packed at its old end or spread out, then a stretch of
    majority values that moves the checks over them: around the
    certificate's edge of about 4 minority values, where a cut first
    becomes possible. The minority values are ones, or uniform floats; the
    majority is zeros, or the whole window is complemented."""
    k = draw(st.integers(0, 8))
    n = draw(st.integers(k, 1200))
    place = draw(st.sampled_from(["young", "old", "spread"]))
    if place == "young":
        at = range(n - k, n)
    elif place == "old":
        at = range(k)
    else:
        at = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)) if n else []
    floats = draw(st.booleans())
    xs = [0.0] * (n + draw(st.integers(0, 100)))
    for i in at:
        xs[i] = draw(st.floats(0.0, 1.0)) if floats else 1.0
    return [1.0 - x for x in xs] if draw(st.booleans()) else xs


@settings(max_examples=500, deadline=None)
@given(xs=edge_windows(), check_interval=st.sampled_from([1, 7, 32]))
def test_matches_reference_at_the_certificates_edge(xs, check_interval):
    """The checks a certificate clears cut nowhere the full scan would, and
    the candidate-only scan cuts where the full scan does."""
    assert_matches_reference(xs, 0.002, check_interval)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), check_interval=st.sampled_from([1, 7, 32]),
       rate=st.sampled_from([0.0, 0.001, 0.01, 0.05]), floats=st.booleans(),
       sizes=st.lists(st.integers(1, 2000), min_size=1, max_size=5))
def test_folding_after_pending_runs_matches_the_reference(seed, check_interval, rate, floats, sizes):
    """Fed in runs of 1-2,000 values with no read in between, so that the
    checks the certificates clear leave row 0 unfolded, a detector cuts as
    the per-insert reference does, and reading its rows folds them into
    the reference's buckets. A twin that takes the runs of bits through
    ``_add_bits`` ends each run in the same state."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = sum(sizes)
    # quiet stretches of rare minority values around a burst
    minority = rng.random(n) < rate
    minority[n // 2:n // 2 + min(n // 8, 300)] = rng.random(min(n // 8, 300)) < 0.5
    xs = [float(x) for x in np.where(minority, rng.random(n) if floats else 1.0, 0.0)]
    with adwin_settings(0.002, check_interval):
        det, ref, bulk = AdwinDetector(), ReferenceAdwin(0.002, check_interval), AdwinDetector()
        start = 0
        for size in sizes:
            run = xs[start:start + size]
            start += size
            for i, x in enumerate(run):
                assert det.add_element(x) == ref.add_element(x), (start, i)
            assert det.width == ref.width and det.total_sum == ref.total_sum
            assert det._rows == ref.row_sums()
            if not floats:
                added = 0
                while added < len(run):
                    added += bulk._add_bits(run[added:])
                    if added < len(run):
                        assert bulk.add_element(run[added])
                        added += 1
                assert detector_state(bulk) == detector_state(det)


def test_cleared_checks_leave_row_0_unfolded():
    """A check on a window that cannot cut folds nothing; row 0 folds once
    it holds more than ``_PENDING`` entries, or when the rows are read."""
    det = AdwinDetector()
    for _ in range(100):
        det.add_element(0.0)
    assert len(det._buckets[0]) == 100
    assert max(map(len, det._rows)) <= AdwinDetector.MAX_BUCKETS
    for x in [0.0] * 2000 + [1.0, 0.0] * 50:
        det.add_element(x)
        assert len(det._buckets[0]) <= AdwinDetector._PENDING + AdwinDetector.CHECK_INTERVAL


@pytest.mark.parametrize("check_interval", [5, 64, 32, 7])
def test_reading_between_checks_changes_nothing(check_interval, monkeypatch):
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", check_interval)
    xs = phased_stream(11, phase_length=1000)
    read = AdwinDetector()
    unread = AdwinDetector()
    for x in xs:
        assert read.add_element(x) == unread.add_element(x)
        read._fold()  # merging between checks builds the buckets a check would
        assert read.width == unread.width
        if read.width:
            assert read.estimate() == unread.estimate()
        assert read.total_sum == unread.total_sum
    unread._fold()
    assert read._rows == unread._rows


def test_detects_mean_shift_quickly_across_seeds(monkeypatch):
    """2000 draws at 0.2 then 2000 at 0.8 flag within 500 in >= 99/100 runs."""
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", 1)
    detected = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        xs = np.concatenate(
            [(rng.random(2000) < 0.2), (rng.random(2000) < 0.8)]
        ).astype(float)
        det = AdwinDetector()
        for i, x in enumerate(xs):
            if det.add_element(float(x)) and i >= 2000:
                if i - 2000 <= 500:
                    detected += 1
                break
    assert detected >= 99


def test_stationary_false_positives_rare(monkeypatch):
    """Over 10,000 stationary Bernoulli(0.5) draws, <= 5/100 seeded runs fire."""
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", 1)
    fired_runs = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        xs = (rng.random(10_000) < 0.5).astype(float)
        det = AdwinDetector()
        if any(det.add_element(float(x)) for x in xs):
            fired_runs += 1
    assert fired_runs <= 5


def test_bucket_count_logarithmic_at_1e6():
    assert AdwinDetector.CHECK_INTERVAL == 32
    det = AdwinDetector()
    rng = np.random.Generator(np.random.PCG64(7))
    for x in (rng.random(1_000_000) < 0.5).astype(float):
        det.add_element(float(x))
    # 5 buckets per capacity class, ~log2(1e6) classes
    det._fold()
    assert sum(map(len, det._rows)) <= 150
    assert det.width == 1_000_000


def test_monotone_forgetting_only_drops_prefix(monkeypatch):
    monkeypatch.setattr(AdwinDetector, "CHECK_INTERVAL", 1)
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
    state = {"MAX_BUCKETS", "DELTA", "CHECK_INTERVAL", "total_count", "total_sum"}
    assert {n for n in dir(AdwinDetector) if not n.startswith("_")} == public | state

