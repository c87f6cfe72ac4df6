"""The chunk step: a nominal VFDT counts runs of unit-weight instances with numpy.

Between two grace checks a leaf of ``HoeffdingTreeClassifier`` only adds to
its counts: its class distribution, its weight and instance counters, its
nominal tables and, when eidetic, its replay buffer. On a nominal schema with
weight 1.0 each instance adds exactly 1.0 to whole-number counts, and whole
numbers below 2**53 add exactly in any grouping. So a run of instances that
reaches no leaf's grace check can be counted at once: each is routed through
a values -> leaf map that ``walk`` fills, predicted as the first argmax of
its leaf's running class counts, and its count updates are deferred per leaf.
A leaf's deferred updates are written back before its next grace check; the
instance that reaches the check goes through the tree's own ``predict_label``
and ``train``, so evaluation, splitting, evisceration and replay happen in
``learn_at_leaf`` alone. ``flush`` writes every deferred update back.

A chunk is counted only when each of its instances is an ``Instance`` of
weight 1.0 whose label and values are in-range ``int``s in a ``tuple``, and
a leaf only while its counts are whole numbers below 2**52. Any other chunk
goes through ``predict_label`` and ``train`` one instance at a time, and a
leaf with other counts takes each of its instances that way.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from . import tree
from .schema import Instance
from .tree import SplitNode, _leaf_counter, walk

# the most instance objects, and value tuples, a ChunkCounter keeps codes for
_MAX_KEPT = 2**14
# a leaf is counted while its counts are whole numbers below this: adding
# 1.0s to them stays exact until they pass 2**53, 2**52 instances later
_WHOLE_BELOW = 2.0**52

# the most instances a leaf counts between two write-backs, so that a pending
# count fits an int16; a longer grace period sends one instance in this many
# through the tree
_MAX_LEFT = 2**15 - 1
# a pending count's unit; np.add.at is 50 times slower when the added value's
# type differs from the table's
_ONE = np.int16(1)

_values_of = itemgetter(0)


def _group_starts(slots):
    """For each entry of a run-grouped array, the index of its group's first entry."""
    starts = np.empty(len(slots), bool)
    starts[0] = True
    np.not_equal(slots[1:], slots[:-1], out=starts[1:])
    return np.flatnonzero(starts)[np.cumsum(starts) - 1]


class ChunkCounter:
    """Predicts and learns chunks of instances on one nominal
    ``HoeffdingTreeClassifier``, counting what it can (see the module).

    An instance's code is ``cell * class_count + label``; a cell is a values
    tuple's index in ``cell_values``. Codes are kept by instance identity,
    since nominal streams hand out shared instances: an instance is checked
    once, when first seen. ``route[cell]`` is the slot of the leaf the cell
    reaches, or -1 when not known. A slot is a leaf's index in the numpy
    tables of deferred updates: ``dist`` (class counts, deferred ones
    included), ``pending`` (nominal table counts, one row per attribute value
    laid end to end, ``class_count`` wide), ``count`` (instances) and
    ``left`` (instances it can count before its grace check). The tables
    are kept small, since every grid worker holds one: 24 bytes per instance
    object seen, at most ``_MAX_KEPT`` of them, and 2 bytes per pending cell.
    """

    def __init__(self, learner):
        schema = learner.schema
        self.learner = learner
        self.class_count = schema.class_count
        self.sizes = [attr.n_values for attr in schema.attributes]
        # attribute a's value rows start at row first_row[a] of a leaf's table
        self.first_row = list(accumulate(self.sizes, initial=0))
        # the codes of the instances seen, by id: ``ids`` sorted, ``id_codes``
        # beside it, and the instances in ``kept``, so that no id is reused
        self._forget_codes()
        self.cells: dict[tuple, int] = {}
        self.cell_values: list[tuple] = []
        self.cell_rows = np.zeros((64, len(self.sizes)), np.int64)  # first_row[a] + value a
        self.route = np.full(64, -1, np.int64)
        self._forget()
        # the chunk being counted, its labels, and the slot of each counted
        # instance whose leaf buffers and has not taken it yet
        self.chunk: list[Instance] = []
        self.labels = np.zeros(0, np.int64)
        self.buffer_slot = np.zeros(0, np.int64)

    def _forget(self) -> None:
        """Drop every slot and route."""
        self.positions: list = []
        self.slot_of: dict = {}
        self.free: list[int] = []
        self.dist = np.zeros((16, self.class_count))
        self.pending = np.zeros((16, self.first_row[-1] * self.class_count), _ONE.dtype)
        self.count = np.zeros(16, np.int64)
        self.left = np.zeros(16, np.int64)
        self.buffers = np.zeros(16, bool)
        self.route.fill(-1)

    # -- codes and cells ------------------------------------------------------

    def _codes(self, chunk):
        """The chunk's codes as an array, or None when it does not qualify."""
        # a chunk adds at most one code and one cell per instance
        if len(self.cells) > _MAX_KEPT - len(chunk):
            self.cells.clear()
            self.cell_values.clear()
            self.route.fill(-1)
            self._forget_codes()
        if len(self.kept) > _MAX_KEPT - len(chunk):
            self._forget_codes()
        keys = np.fromiter(map(id, chunk), np.int64, len(chunk))
        at = np.searchsorted(self.ids, keys)
        np.minimum(at, len(self.ids) - 1, out=at)
        codes = self.id_codes[at]
        unknown = np.flatnonzero(self.ids[at] != keys)
        if unknown.size:
            new: dict[int, int] = {}
            for k in unknown.tolist():
                inst = chunk[k]
                code = new.get(id(inst))  # an instance drawn twice in one chunk is coded once
                if code is None:
                    code = self._code(inst)
                    if code is None:
                        return None
                    new[id(inst)] = code
                    self.kept.append(inst)
                codes[k] = code
            ids = np.concatenate([self.ids, np.fromiter(new, np.int64, len(new))])
            order = np.argsort(ids)
            self.ids = ids[order]
            self.id_codes = np.concatenate([self.id_codes, np.fromiter(new.values(), np.int64, len(new))])[order]
        return codes

    def _forget_codes(self) -> None:
        # -1 is no id: searches always land on an entry
        self.ids = np.full(1, -1, np.int64)
        self.id_codes = np.full(1, -1, np.int64)
        self.kept = []

    def _code(self, inst):
        if inst.__class__ is not Instance:
            return None
        values, label, weight = inst
        if (weight.__class__ is not float or weight != 1.0
                or label.__class__ is not int or not 0 <= label < self.class_count
                or values.__class__ is not tuple or len(values) != len(self.sizes)):
            return None
        for v, n in zip(values, self.sizes):
            if v.__class__ is not int or not 0 <= v < n:
                return None
        cell = self.cells.get(values)
        if cell is None:
            cell = self.cells[values] = len(self.cell_values)
            self.cell_values.append(values)
            if cell == len(self.route):
                self.route = np.concatenate([self.route, np.full(cell // 2, -1, np.int64)])
                self.cell_rows = np.concatenate([self.cell_rows, self.cell_rows[:cell // 2]])
            self.cell_rows[cell] = np.add(self.first_row[:-1], values)
        return cell * self.class_count + label

    # -- slots ----------------------------------------------------------------

    def _route(self, cells):
        """The slot of each cell's leaf, walking the cells not routed yet."""
        slots = self.route[cells]
        if slots.min() < 0:
            for cell in dict.fromkeys(cells[slots < 0].tolist()):
                position = walk(self.learner.root, self.cell_values[cell])[-1]
                slot = self.slot_of.get(position)
                self.route[cell] = self._new_slot(position) if slot is None else slot
            slots = self.route[cells]
        return slots

    def _new_slot(self, position) -> int:
        if self.free:
            slot = self.free.pop()
        else:
            slot = len(self.positions)
            self.positions.append(None)
            if slot == len(self.count):
                for name in ("dist", "pending", "count", "left", "buffers"):
                    table = getattr(self, name)
                    setattr(self, name, np.concatenate([table, np.zeros_like(table[:slot // 2])]))
        self.positions[slot] = position
        self.slot_of[position] = slot
        leaf = position.mainline
        self.buffers[slot] = leaf.buffer is not None
        self._refresh(slot, leaf)
        return slot

    def _refresh(self, slot: int, leaf) -> None:
        """Read a leaf with nothing deferred into its slot."""
        self.dist[slot] = leaf.class_dist
        # every count is at most total_weight
        counts = chain(leaf.class_dist, chain.from_iterable(chain.from_iterable(leaf.nominal)),
                       (leaf.total_weight, leaf.counter_at_last_eval))
        if leaf.total_weight < _WHOLE_BELOW and all(map(float.is_integer, map(float, counts))):
            # each instance adds 1 to the counter; the one that brings it
            # GRACE_PERIOD past the last evaluation reaches the grace check
            since = _leaf_counter(leaf, self.learner.config) - leaf.counter_at_last_eval
            self.left[slot] = min(max(0, math.ceil(tree.GRACE_PERIOD - since) - 1), _MAX_LEFT)
        else:
            self.left[slot] = 0

    def _write_back(self, slot: int) -> None:
        """Apply a slot's deferred counts to its leaf."""
        n = int(self.count[slot])
        if not n:
            return
        leaf = self.positions[slot].mainline
        leaf.node_time += n
        leaf.total_weight += n
        leaf.class_dist = self.dist[slot].tolist()
        # cell by cell, as observe adds: a cell that saw nothing keeps its
        # float object, which the leaf's zero cells share
        pending = self.pending[slot].reshape(-1, self.class_count)
        hit_rows, hit_labels = np.nonzero(pending)
        rows = list(chain.from_iterable(leaf.nominal))
        for r, c, added in zip(hit_rows.tolist(), hit_labels.tolist(), pending[hit_rows, hit_labels].tolist()):
            rows[r][c] += added
        pending.fill(0)
        self.count[slot] = 0

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
        values = list(map(_values_of, map(self.chunk.__getitem__, taken.tolist())))
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
        for slot in np.flatnonzero(self.count).tolist():
            self._write_back(slot)
        self._forget()

    # -- the step -------------------------------------------------------------

    def _count(self, index, slots, labels, rows, wrong) -> None:
        """Predict and defer the counts of instances ``index`` of the chunk,
        grouped by their leaves' ``slots``, in stream order within a group."""
        label = labels[index]
        # running class counts: the leaf's, plus the labels counted there
        # earlier in this pass (in place: these arrays are the step's largest)
        onehot = np.zeros((len(index), self.class_count), np.int32)
        onehot[np.arange(len(index)), label] = 1
        before = np.cumsum(onehot, axis=0, dtype=np.int32)
        before -= onehot
        before -= before[_group_starts(slots)]
        running = self.dist[slots]
        running += before
        wrong[index] = running.argmax(axis=1) != label
        np.add.at(self.dist, (slots, label), 1.0)
        added = np.bincount(slots, minlength=len(self.count))
        self.count += added
        self.left -= added
        flat = rows[index]
        flat += (slots * self.pending.shape[1])[:, None]
        np.add.at(self.pending.reshape(-1), flat.ravel(), _ONE)
        buffered = self.buffers[slots]
        self.buffer_slot[index[buffered]] = slots[buffered]

    def _check(self, inst: Instance, slot: int) -> bool:
        """Send the instance that reaches its leaf's grace check through the
        tree, with the leaf's deferred counts written back first; returns
        whether its prediction was wrong."""
        self._write_buffers(slot)
        self._write_back(slot)
        learner = self.learner
        wrong = learner.predict_label(inst) != inst.class_label
        learner.train(inst)
        position = self.positions[slot]
        if position.mainline.__class__ is SplitNode:
            self.route[self.route == slot] = -1
            self.positions[slot] = None
            del self.slot_of[position]
            self.free.append(slot)
        else:
            self._refresh(slot, position.mainline)
        return wrong

    def step(self, chunk: list) -> list:
        """Predict, then learn, each instance of ``chunk`` in order; returns
        whether each prediction was wrong."""
        codes = self._codes(chunk)
        learner = self.learner
        if codes is None:
            self.flush()
            wrong = []
            for inst in chunk:
                wrong.append(learner.predict_label(inst) != inst.class_label)
                learner.train(inst)
            return wrong
        c = self.class_count
        cells, labels = np.divmod(codes, c)
        # each instance's cell in a leaf's pending table, per attribute
        rows = self.cell_rows[cells]
        rows *= c
        rows += labels[:, None]
        self.chunk = chunk
        self.labels = labels
        self.buffer_slot = np.full(len(chunk), -1, np.int64)
        wrong = np.zeros(len(chunk), bool)
        # Leaves learn independently: a leaf's state depends only on the
        # instances it takes, in their order, and a split reroutes only the
        # instances that reached the split leaf. So each pass counts, for
        # every leaf, its instances up to its grace check, sends each
        # instance at a check through the tree, and leaves the instances
        # after a check to the next pass, which routes them again.
        todo = np.arange(len(chunk))
        while todo.size:
            slots = self._route(cells[todo])
            order = np.argsort(slots, kind="stable")
            by_slot = slots[order]
            # each instance's rank among this pass's instances at its leaf
            rank = np.arange(len(order)) - _group_starts(by_slot)
            limit = self.left[by_slot]
            keep = rank < limit
            if keep.any():
                self._count(todo[order[keep]], by_slot[keep], labels, rows, wrong)
            at_check = rank == limit
            for k, slot in sorted(zip(todo[order[at_check]].tolist(), by_slot[at_check].tolist())):
                wrong[k] = self._check(chunk[k], slot)
            later = np.zeros(len(todo), bool)
            later[order[rank > limit]] = True
            todo = todo[later]
        self._write_buffers(None)
        return wrong.tolist()
