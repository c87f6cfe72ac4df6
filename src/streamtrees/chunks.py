"""The chunk step: a VFDT counts runs of unit-weight instances with numpy.

Between two grace checks a leaf of ``HoeffdingTreeClassifier`` only adds to
its statistics: its class distribution, its weight and instance counters,
its nominal tables or its per-class Gaussians and, when eidetic, its replay
buffer. So a run of instances that reaches no leaf's grace check can be
learned at once: each is routed to its leaf, predicted as the first argmax
of that leaf's running class distribution, and its updates are deferred per
leaf. A leaf's deferred updates are written back before its next grace
check; the instance that reaches the check goes through the tree's own
``predict_label`` and ``train``, so evaluation, splitting, evisceration and
replay happen in ``learn_at_leaf`` alone. ``flush`` writes every deferred
update back. Leaves learn independently, so the instances after a check go
to the next pass of the same chunk, which routes them again.

Two counters share that hand-off and differ in how they route and count:

- ``NominalCounter``, for schemas without numeric attributes, counts with
  whole numbers: weight 1.0 adds exactly 1.0 to whole-number counts, and
  whole numbers below 2**53 add exactly in any grouping.
- ``NumericCounter``, for schemas without nominal attributes, keeps every
  float in learn order: a running sum is an ``np.cumsum`` along a padded
  axis from the leaf's own start value, which adds in the order the loop
  adds, and each (leaf, class) Welford chain takes its k-th instance in one
  numpy step, with ``NodeStatistics.observe``'s expressions.

A ``HoeffdingAdaptiveTreeClassifier`` on a schema without numeric
attributes is counted by ``hatchunks.HatCounter``, on ``NominalCounter``'s
cells, slots, pending tables and write-back, in runs between the events
that change the tree. Both count a leaf's rows with the same two methods:
``_running`` gives their running class counts and ``_add`` defers them.

``counter_for`` picks one, or none: a mixed schema, another learner, or a
learner with its own ``predict_label`` or ``train`` (a tracer or a recorder
that must see every instance) runs one instance at a time.

A chunk is ``streams.Rows``: a generator's rows as arrays, valid by
construction and taken as they are (``evaluate.prequential_run`` hands a
counter nothing else). A row is built into an ``Instance`` only when it
goes through the tree or into an eidetic leaf's buffer.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from itertools import accumulate, chain, repeat
from operator import itemgetter

import numpy as np

from . import tree
from .hat import HoeffdingAdaptiveTreeClassifier
from .schema import Instance
from .streams import Rows
from .tree import HoeffdingTreeClassifier, SplitNode, _leaf_counter, walk

# a nominal leaf is counted while its counts are whole numbers below this:
# adding 1.0s to them stays exact until they pass 2**53, 2**52 instances later
_WHOLE_BELOW = 2.0**52

# the most instances a nominal leaf counts between two write-backs, so that a
# pending count fits an int16; a longer grace period sends one instance in
# this many through the tree
_MAX_LEFT = 2**15 - 1
# a pending count's unit; np.add.at is 50 times slower when the added value's
# type differs from the table's
_ONE = np.int16(1)

# the most instances one numeric pass counts: its padded running sums hold
# (longest leaf run) x (leaves) cells, at most a quarter of this squared
_NUMERIC_PASS = 512

_values_of = itemgetter(0)
# the running sums of a numeric pass, in the fields _leaf_counter reads
_Running = namedtuple("_Running", "total_weight node_time")


def counter_for(learner):
    """The counter that can learn chunks on ``learner``, or None when its
    instances must go through ``predict_label`` and ``train`` one at a time."""
    kind = type(learner)
    if kind is not HoeffdingTreeClassifier and kind is not HoeffdingAdaptiveTreeClassifier:
        return None
    if _holds(learner, "predict_label") or _holds(learner, "train"):
        return None
    schema = learner.schema
    if kind is HoeffdingAdaptiveTreeClassifier:
        # drawn weights and replay buffers take each instance through the tree
        if schema.numeric_attrs or learner._draws_weights() or _replays(learner._root):
            return None
        from .hatchunks import HatCounter

        return HatCounter(learner)
    if not schema.numeric_attrs:
        return NominalCounter(learner)
    if not schema.nominal_attrs:
        return NumericCounter(learner)
    return None


def _holds(learner, name: str) -> bool:
    """Whether ``learner`` holds ``name`` itself (a tracer's or a recorder's
    wrapper) rather than through its class: an attribute it holds reads
    back as the same object, a method as a new bound method at each read.
    ``vars(learner)`` would tell as well, but gives the object a dict of
    its own, and every later attribute read on it is then slower."""
    return getattr(learner, name) is getattr(learner, name)


def _replays(root) -> bool:
    """Whether the leaves under ``root`` keep replay buffers, as its
    leftmost leaf does."""
    node = root.mainline
    while node.__class__ is SplitNode:
        node = node.children[0].mainline
    return node.buffer is not None


def _counted(leaf) -> bool:
    """Whether a nominal leaf's instances can be counted: its counts are
    whole numbers below 2**52 (every count is at most total_weight), which
    adding 1.0s keeps exact."""
    counts = chain(leaf.class_dist, chain.from_iterable(chain.from_iterable(leaf.nominal)),
                   (leaf.total_weight, leaf.counter_at_last_eval))
    return leaf.total_weight < _WHOLE_BELOW and all(map(float.is_integer, map(float, counts)))


def _left(since) -> int:
    """The instances a counted leaf learns before its grace check, when its
    counter is ``since`` past its last evaluation (``learn_at_leaf``'s test,
    counter - counter_at_last_eval < GRACE_PERIOD, on whole numbers)."""
    return min(max(0, math.ceil(tree.GRACE_PERIOD - since) - 1), _MAX_LEFT)


def _runs(keys):
    """The start and the length of each run of equal entries of ``keys``."""
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = len(keys) - starts[-1]
    return starts, lengths


class _Counter:
    """What both counters share: slots, the pass loop and the grace-check
    hand-off. A slot is a leaf's row in the counter's numpy tables of
    deferred updates; every table has one row per slot, ``count`` (the
    instances deferred) and ``buffers`` (whether the leaf buffers) among
    them. ``TABLES`` names the others."""

    TABLES: tuple[str, ...] = ()
    SLOTS = 16  # slots before the tables first grow
    PASS = 2**31  # the most instances one pass counts

    def __init__(self, learner):
        self.learner = learner
        self.class_count = learner.schema.class_count
        # the chunk being counted, its labels, and the slot of each counted
        # instance whose leaf buffers and has not taken it yet
        self.chunk: Rows | None = None
        self.labels = np.zeros(0, np.int64)
        self.buffer_slot = np.zeros(0, np.int64)
        self.count = np.zeros(self.SLOTS, np.int64)
        self.buffers = np.zeros(self.SLOTS, bool)

    def _forget(self) -> None:
        """Drop every slot and route; nothing is deferred."""
        self.positions: list = []
        self.slot_of: dict = {}
        self.free: list[int] = []
        self._unroute(None)

    def _grow(self, n: int) -> None:
        """Give every slot table ``n`` rows."""
        for name in ("count", "buffers", *self.TABLES):
            table = getattr(self, name)
            grown = np.zeros((n, *table.shape[1:]), table.dtype)
            grown[:len(table)] = table
            setattr(self, name, grown)

    def _new_slots(self, positions) -> list[int]:
        positions = list(positions)
        reused, self.free = self.free[:len(positions)], self.free[len(positions):]
        first = len(self.positions)
        slots = reused + list(range(first, first + len(positions) - len(reused)))
        self.positions += [None] * (len(slots) - len(reused))
        if len(self.positions) > len(self.count):
            self._grow(max(len(self.positions), len(self.count) * 3 // 2))
        for slot, position in zip(slots, positions):
            self.positions[slot] = position
        self.slot_of.update(zip(positions, slots))
        self.buffers[slots] = [position.mainline.buffer is not None for position in positions]
        self._refresh(slots)
        return slots

    def _write_buffers(self, slot: int | None) -> None:
        """Buffer the chunk's counted instances at one slot, or at all slots."""
        marks = self.buffer_slot
        if slot is None:
            taken = np.flatnonzero(marks >= 0)
            taken = taken[np.argsort(marks[taken], kind="stable")]
        else:
            taken = np.flatnonzero(marks == slot)
        if not taken.size:
            return
        slots = marks[taken]
        marks[taken] = -1
        cuts = [0, *(np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist(), len(taken)]
        values = list(map(_values_of, self.chunk.instances(taken)))
        labels = self.labels[taken].tolist()
        for a, b, owner in zip(cuts, cuts[1:], slots[cuts[:-1]].tolist()):
            leaf = self.positions[owner].mainline
            weights = leaf.buffer_weights
            # as LearningLeaf.learn does: a new run of weight 1.0 unless one is open
            if not weights or weights[-1] != 1.0:
                leaf.buffer_runs.append(len(leaf.buffer))
                weights.append(1.0)
            leaf.buffer.extend(values[a:b])
            leaf.buffer_labels.extend(labels[a:b])

    def flush(self) -> None:
        """Write every deferred update back to its leaf, and forget the slots."""
        self._write_buffers(None)
        self._write_back(np.flatnonzero(self.count).tolist())
        self._forget()

    def _check(self, inst: Instance, slot: int) -> bool:
        """The grace-check hand-off: write the leaf's deferred updates back,
        send the instance that reaches its grace check through the tree,
        and read the leaf back into its slot, or drop the slot if the leaf
        split; returns whether its prediction was wrong."""
        self._write_buffers(slot)
        if self.count[slot]:
            self._write_back([slot])
        learner = self.learner
        wrong = learner.predict_label(inst) != inst.class_label
        learner.train(inst)
        if self.positions[slot].mainline.__class__ is SplitNode:
            self._release(slot)
        else:
            self._refresh([slot])
        return wrong

    def _release(self, slot: int) -> None:
        """Drop the slot of a leaf that split, and the routes to it."""
        del self.slot_of[self.positions[slot]]
        self.positions[slot] = None
        self.free.append(slot)
        self._unroute(slot)

    def step(self, chunk: Rows) -> list:
        """Predict, then learn, each row of ``chunk`` in order; returns
        whether each prediction was wrong."""
        self._prepare(chunk)
        self.chunk = chunk
        self.buffer_slot = np.full(len(chunk), -1, np.int64)
        wrong = np.zeros(len(chunk), bool)
        # Each pass counts, for every leaf, its instances up to its grace
        # check and sends each instance at a check through the tree. Leaves
        # learn independently, so the instances after a check wait for the
        # next pass, which routes them again: a split reroutes only the
        # instances that reached the split leaf. A pass takes at most PASS
        # instances, the first ones left.
        todo = np.arange(len(chunk))
        while todo.size:
            now, rest = todo[:self.PASS], todo[self.PASS:]
            slots = self._route(now)
            order = np.argsort(slots, kind="stable")
            by_slot = slots[order]
            # each instance's rank among this pass's instances at its leaf
            starts, lengths = _runs(by_slot)
            rank = np.arange(len(order)) - np.repeat(starts, lengths)
            limit = self._limits(now[order], by_slot[starts], rank, lengths)
            keep = rank < limit
            if keep.any():
                self._count(now[order[keep]], by_slot[keep], rank[keep], wrong)
            at_check = rank == limit
            for k, slot in sorted(zip(now[order[at_check]].tolist(), by_slot[at_check].tolist())):
                wrong[k] = self._check(chunk[k], slot)
            later = np.zeros(len(now), bool)
            later[order[rank > limit]] = True
            todo = np.concatenate([now[later], rest])
        self._write_buffers(None)
        return wrong.tolist()


class NominalCounter(_Counter):
    """Predicts and learns chunks on a ``HoeffdingTreeClassifier`` whose
    schema has no numeric attribute.

    A nominal chunk's rows are the stream's cells: the row-major index of a
    values tuple (attribute 0 slowest). A leaf is counted only while its
    counts are whole numbers below 2**52; a leaf with other counts takes
    each of its instances through the tree. ``route[cell]`` is the slot of
    the leaf the cell reaches, or -1 when not known; it grows to the largest
    cell seen, and so holds at most 8 bytes per cell of the stream's table,
    which itself keeps two classes per cell. The slot tables are ``dist``
    (class counts, deferred ones included), ``pending`` (nominal table
    counts, one row per attribute value laid end to end, ``class_count``
    wide) and ``left`` (instances a leaf can count before its grace check).
    They are kept small, since every grid worker holds one: 2 bytes per
    pending cell.
    """

    TABLES = ("dist", "pending", "left")

    def __init__(self, learner):
        super().__init__(learner)
        schema = learner.schema
        self.sizes = [attr.n_values for attr in schema.attributes]
        # attribute a's value rows start at row first_row[a] of a leaf's table
        self.first_row = list(accumulate(self.sizes, initial=0))
        self.route = np.full(64, -1, np.int64)
        n = self.SLOTS
        self.dist = np.zeros((n, self.class_count))
        self.pending = np.zeros((n, self.first_row[-1] * self.class_count), _ONE.dtype)
        self.left = np.zeros(n, np.int64)
        self._forget()

    # -- cells ----------------------------------------------------------------

    def _prepare(self, chunk: Rows) -> None:
        self.chunk_cells, self.labels = cells, labels = chunk.x, chunk.labels
        top = int(cells.max()) + 1
        if top > len(self.route):
            more = max(top, len(self.route) * 3 // 2) - len(self.route)
            self.route = np.concatenate([self.route, np.full(more, -1, np.int64)])
        # each row's cell in a leaf's pending table, per attribute: the row
        # of its value, first_row[a] + value, times class_count plus its label
        rows = np.empty((len(cells), len(self.sizes)), np.int64)
        for a in reversed(range(len(self.sizes))):
            cells, rows[:, a] = np.divmod(cells, self.sizes[a])
        rows += self.first_row[:-1]
        rows *= self.class_count
        rows += labels[:, None]
        self.rows = rows

    def _cell_values(self, cells: list[int]) -> dict[int, tuple]:
        """The values tuple of each of ``cells``."""
        return dict(zip(cells, zip(*(values.tolist() for values in np.unravel_index(cells, self.sizes)))))

    # -- slots ----------------------------------------------------------------

    def _route(self, now):
        """The slot of each instance's leaf, walking the cells not routed yet."""
        cells = self.chunk_cells[now]
        slots = self.route[cells]
        if slots.min() < 0:
            for cell, values in self._cell_values(list(dict.fromkeys(cells[slots < 0].tolist()))).items():
                position = walk(self.learner.root, values)[-1]
                slot = self.slot_of.get(position)
                self.route[cell] = self._new_slots([position])[0] if slot is None else slot
            slots = self.route[cells]
        return slots

    def _unroute(self, slot: int | None) -> None:
        """Forget the routes to a slot, or to every slot."""
        if slot is None:
            self.route.fill(-1)
        else:
            self.route[self.route == slot] = -1

    def _refresh(self, slots) -> None:
        """Read leaves with nothing deferred into their slots."""
        config = self.learner.config
        for slot in slots:
            leaf = self.positions[slot].mainline
            self.dist[slot] = leaf.class_dist
            # each instance adds 1 to the counter; the one that brings it
            # GRACE_PERIOD past the last evaluation reaches the grace check
            self.left[slot] = _left(_leaf_counter(leaf, config) - leaf.counter_at_last_eval) if _counted(leaf) else 0

    def _write_back(self, slots) -> None:
        """Apply slots' deferred counts to their leaves."""
        for slot in slots:
            n = int(self.count[slot])
            leaf = self.positions[slot].mainline
            leaf.node_time += n
            leaf.total_weight += n
            leaf.class_dist = self.dist[slot].tolist()
            # cell by cell, as observe adds: a cell that saw nothing keeps its
            # float object, which the leaf's zero cells share
            pending = self.pending[slot].reshape(-1, self.class_count)
            hit_rows, hit_labels = np.nonzero(pending)
            rows = list(chain.from_iterable(leaf.nominal))
            for r, c, added in zip(hit_rows.tolist(), hit_labels.tolist(),
                                   pending[hit_rows, hit_labels].tolist()):
                rows[r][c] += added
            pending.fill(0)
            self.count[slot] = 0

    # -- the step -------------------------------------------------------------

    def _limits(self, index, gslots, rank, lengths):
        return np.repeat(self.left[gslots], lengths)

    def _running(self, slots, labels, first):
        """The running class counts of rows grouped by their leaves'
        ``slots``, in stream order within a group: the leaf's counts plus
        the ``labels`` of the group's earlier rows. ``first`` is the first
        row of each row's group. Computed in place: these arrays are a
        step's largest."""
        onehot = np.zeros((len(slots), self.class_count), np.int32)
        onehot[np.arange(len(slots)), labels] = 1
        before = np.cumsum(onehot, axis=0, dtype=np.int32)
        before -= onehot
        before -= before[first]
        running = self.dist[slots]
        running += before
        return running

    def _add(self, index, slots) -> None:
        """Defer the counts of rows ``index`` of the chunk to their leaves'
        ``slots``: class counts, instances and pending-table cells."""
        np.add.at(self.dist, (slots, self.labels[index]), 1.0)
        added = np.bincount(slots, minlength=len(self.count))
        self.count += added
        self.left -= added
        # each row's pending cells, in its slot's row of the table
        cells = self.rows[index]
        cells += (slots * self.pending.shape[1])[:, None]
        np.add.at(self.pending.reshape(-1), cells.ravel(), _ONE)

    def _count(self, index, slots, rank, wrong) -> None:
        """Predict and defer the counts of instances ``index`` of the chunk,
        grouped by their leaves' ``slots``, in stream order within a group."""
        label = self.labels[index]
        running = self._running(slots, label, np.arange(len(index)) - rank)
        wrong[index] = running.argmax(axis=1) != label
        self._add(index, slots)
        buffered = self.buffers[slots]
        self.buffer_slot[index[buffered]] = slots[buffered]


class NumericCounter(_Counter):
    """Predicts and learns chunks on a ``HoeffdingTreeClassifier`` whose
    schema has no nominal attribute, keeping every float in learn order.

    The chunk's values are one float64 array, and an instance is routed by a
    walk of the flattened tree (``_flatten``) that compares
    ``values[attr] <= threshold`` in float64, as ``walk`` does.

    Why it is exact: each of a leaf's sums (class distribution, weight,
    instance count, per-class counts) only adds 1.0s, in learn order, to the
    leaf's own start value, and ``np.cumsum`` along a padded axis makes the
    same additions in the same order, whatever the start's fraction. The
    per-class means and M2 sums of a (leaf, class) pair depend on the order
    of that pair's instances only, and each step updates the k-th instance
    of every pair at once with ``observe``'s expressions; ``lo`` and ``hi``
    keep the first of equal extremes, as ``observe``'s strict comparisons do.

    A slot's row of ``state`` holds its leaf's fields side by side:
    ``class_dist``, ``total_weight`` and ``node_time`` (together ``sums``),
    ``counter_at_last_eval`` (``last_eval``), then ``counts``, ``means``,
    ``m2s``, ``lo`` and ``hi``, each a view of its columns. The write-back
    hands each leaf its own lists again.
    """

    TABLES = ("state",)
    SLOTS = 64
    PASS = _NUMERIC_PASS

    def __init__(self, learner):
        super().__init__(learner)
        c = self.class_count
        self.n_attributes = m = learner.schema.n_attributes
        # where counts, means, m2s, lo and hi start in a state row, and its width
        self.starts = list(accumulate((c, 1, 1, 1, c, c * m, c * m, m, m), initial=0))[4:]
        self.state = np.zeros((self.SLOTS, self.starts[-1]))
        self._views()
        self._forget()

    def _grow(self, n: int) -> None:
        super()._grow(n)
        self._views()

    def _views(self) -> None:
        c, m, state = self.class_count, self.n_attributes, self.state
        counts, means, m2s, lo, hi, _ = self.starts
        self.sums = state[:, :c + 2]
        self.last_eval = state[:, c + 2]
        self.counts = state[:, counts:means]
        self.means = state[:, means:m2s].reshape(-1, c, m)
        self.m2s = state[:, m2s:lo].reshape(-1, c, m)
        self.lo = state[:, lo:hi]
        self.hi = state[:, hi:]

    def _prepare(self, chunk: Rows) -> None:
        self.x = chunk.x.reshape(-1)
        self.labels = chunk.labels

    # -- routing --------------------------------------------------------------

    def _flatten(self) -> None:
        """Number the tree's nodes breadth first. Node k's entries sit at
        2k and 2k + 1 of ``attrs``, ``thresholds`` and ``kids``: a split's
        attribute and threshold twice, and 2 x its child 1 and child 0; a
        leaf's are 0, +inf and 2k, so a walk stays there."""
        positions = [self.learner.root]
        attrs, thresholds, kids = [], [], []
        depth, level_end = 0, 1
        for k, position in enumerate(positions):
            if k == level_end:
                depth += 1
                level_end = len(positions)
            node = position.mainline
            if node.__class__ is SplitNode:
                attrs += (node.attr, node.attr)
                thresholds += (node.threshold, node.threshold)
                kids += (2 * len(positions) + 2, 2 * len(positions))
                positions += node.children
            else:
                attrs += (0, 0)
                thresholds += (math.inf, math.inf)
                kids += (2 * k, 2 * k)
        self.attrs = np.array(attrs)
        self.thresholds = np.array(thresholds)
        self.kids = np.array(kids)
        self.flat = positions
        self.depth = depth
        self.node_slot = np.fromiter(map(self.slot_of.get, positions, repeat(-1)), np.int64, len(positions))

    def _route(self, now):
        if self.flat is None:
            self._flatten()
        node = np.zeros(len(now), np.int64)  # 2 x the node's number
        at = now * self.n_attributes
        x = self.x
        for _ in range(self.depth):
            # walk's branch rule: values[attr] <= threshold goes to child 0
            left = x[at + self.attrs[node]] <= self.thresholds[node]
            node = self.kids[node + left]
        node >>= 1
        slots = self.node_slot[node]
        if slots.min() < 0:
            # np.unique would import numpy.ma, half a megabyte
            fresh = np.flatnonzero(np.bincount(node[slots < 0], minlength=len(self.flat)))
            self.node_slot[fresh] = self._new_slots(map(self.flat.__getitem__, fresh.tolist()))
            slots = self.node_slot[node]
        return slots

    def _unroute(self, slot: int | None) -> None:
        """Forget the flattened tree: a slot is only dropped when its leaf
        split."""
        self.flat = None

    # -- leaves ---------------------------------------------------------------

    def _refresh(self, slots) -> None:
        """Read leaves with nothing deferred into their slots."""
        row = []  # list += is the fastest way to lay the leaves' lists end to end
        for slot in slots:
            leaf = self.positions[slot].mainline
            row += leaf.class_dist
            row += (leaf.total_weight, leaf.node_time, leaf.counter_at_last_eval)
            row += leaf.counts
            for means in leaf.means:
                row += means
            for m2s in leaf.m2s:
                row += m2s
            row += leaf.lo
            row += leaf.hi
        self.state[slots] = np.frombuffer(struct.pack(f"{len(row)}d", *row)).reshape(len(slots), -1)

    def _write_back(self, slots) -> None:
        """Set slots' leaves' fields to their rows, as the leaves' own lists
        (``_count`` sets ``lo`` and ``hi`` as they move)."""
        if not slots:
            return
        c, rows = self.class_count, np.array(slots)
        sums = self.sums[rows]
        columns = (sums[:, :c], sums[:, c], self.counts[rows], self.means[rows], self.m2s[rows])
        for slot, n, dist, weight, counts, means, m2s in zip(
                slots, self.count[rows].tolist(), *(column.tolist() for column in columns)):
            leaf = self.positions[slot].mainline
            leaf.node_time += n
            leaf.class_dist = dist
            leaf.total_weight = weight
            leaf.counts = counts
            leaf.means = means
            leaf.m2s = m2s
        self.count[rows] = 0

    # -- the step -------------------------------------------------------------

    def _limits(self, index, gslots, rank, lengths):
        """The rank of the instance at each leaf's grace check, or one past
        the pass's longest run. Keeps the pass's running sums for ``_count``."""
        c = self.class_count
        group = np.repeat(np.arange(len(gslots)), lengths)
        # the running class_dist, total_weight and node_time of each leaf,
        # row r after its first r instances; padding adds 0.0
        sums = np.zeros((int(rank.max()) + 2, len(gslots), c + 2))
        sums[0] = self.sums[gslots]
        sums[rank + 1, group, self.labels[index]] = 1.0
        sums[rank + 1, group, c:] = 1.0
        np.cumsum(sums, axis=0, out=sums)
        # learn_at_leaf's test, counter - counter_at_last_eval < GRACE_PERIOD;
        # a counter never falls, so once reached, the check stays reached
        counter = _leaf_counter(_Running(sums[1:, :, c], sums[1:, :, c + 1]), self.learner.config)
        first = len(counter) - (counter - self.last_eval[gslots] >= tree.GRACE_PERIOD).sum(axis=0)
        self.pass_sums, self.pass_slots = sums, gslots
        self.pass_learned = np.minimum(first, lengths)
        return np.repeat(first, lengths)

    def _count(self, index, slots, rank, wrong) -> None:
        """Predict and learn instances ``index`` of the chunk, grouped by
        their leaves' ``slots``, in stream order within a group."""
        c, sums, gslots, learned = self.class_count, self.pass_sums, self.pass_slots, self.pass_learned
        labels = self.labels[index]
        group = np.repeat(np.arange(len(gslots)), learned)
        wrong[index] = sums[rank, group, :c].argmax(axis=1) != labels
        self.sums[gslots] = sums[learned, np.arange(len(gslots))]
        self.count[gslots] += learned
        x = self.x.reshape(-1, self.n_attributes)[index]
        starts = np.flatnonzero(rank == 0)
        owners = slots[starts]
        for table, name, reduce, pick in ((self.lo, "lo", np.minimum, np.argmin),
                                          (self.hi, "hi", np.maximum, np.argmax)):
            old = table[owners]
            new = reduce(old, reduce.reduceat(x, starts, axis=0))
            # set the bounds that moved, in place, as observe sets them: an
            # unmoved bound keeps its object
            moved, at = np.nonzero(new != old)
            if not moved.size:
                continue
            table[owners] = new
            for g, slot, j, v in zip(moved.tolist(), owners[moved].tolist(), at.tolist(),
                                     new[moved, at].tolist()):
                if v == 0.0:
                    # 0.0 and -0.0 are equal: observe's strict v < lo and
                    # v > hi keep the first of them
                    column = x[starts[g]:starts[g + 1] if g + 1 < len(starts) else len(x), j]
                    v = column[pick(column)].item()
                    table[slot, j] = v
                getattr(self.positions[slot].mainline, name)[j] = v
        self._welford(x, group * c + labels, gslots)
        buffered = self.buffers[slots]
        self.buffer_slot[index[buffered]] = slots[buffered]

    def _welford(self, x, key, gslots) -> None:
        """Welford's update for each (leaf, class) chain of rows of ``x``,
        keyed ``group * class_count + label``, one chain position a step."""
        c = self.class_count
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts, lengths = _runs(key)
        n, chains = len(key), len(starts)
        # chains longest first, so that the chains still running at step k
        # are a prefix; each step's values are then one contiguous block
        by_length = np.argsort(-lengths, kind="stable")
        place = np.empty(chains, np.int64)
        place[by_length] = np.arange(chains)
        within = np.arange(n) - np.repeat(starts, lengths)
        at = np.repeat(place, lengths)
        # step k's block starts after the chains running at earlier steps
        running = np.bincount(within)
        blocks = np.cumsum(running) - running
        values = np.empty_like(x)
        values[blocks[within] + at] = x[order]
        chain_key = key[starts[by_length]]
        slot, label = gslots[chain_key // c], chain_key % c
        # observe's count = counts[label] + weight, once per instance
        counts = np.zeros((len(running) + 1, chains))
        counts[0] = self.counts[slot, label]
        counts[within + 1, at] = 1.0
        np.cumsum(counts, axis=0, out=counts)
        means = self.means[slot, label]
        m2s = self.m2s[slot, label]
        # observe: delta = v - mean; mean += weight * delta / count;
        # m2 += weight * delta * (v - mean), with weight 1.0; the steps
        # write into two scratch rows instead of allocating
        deltas, terms = np.empty((2, *means.shape))
        end = 0
        for k, a in enumerate(running.tolist(), 1):
            v = values[end:end + a]
            end += a
            mean, delta, term = means[:a], deltas[:a], terms[:a]
            np.subtract(v, mean, out=delta)
            np.divide(delta, counts[k, :a, None], out=term)
            mean += term
            np.subtract(v, mean, out=term)
            term *= delta
            m2s[:a] += term
        self.means[slot, label] = means
        self.m2s[slot, label] = m2s
        self.counts[slot, label] = counts[lengths[by_length], np.arange(chains)]
