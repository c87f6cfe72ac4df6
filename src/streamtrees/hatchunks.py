"""The chunk step for the adaptive tree: ``HatCounter`` learns the runs of
unit-weight instances between a ``HoeffdingAdaptiveTreeClassifier``'s
events with numpy, on the cells, slots, pending tables, row counting
(``_running`` and ``_add``) and write-back of ``chunks.NominalCounter``.

It has a module of its own, imported by ``chunks.counter_for`` only for an
adaptive tree: CPython keeps much of the memory that compiling a module
takes, so a process that counts no adaptive tree does not compile it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

import numpy as np

from . import tree
from .chunks import _MAX_LEFT, NominalCounter, _counted, _left, _Running
from .detectors import AdwinDetector
from .streams import Rows
from .tree import SplitNode, _leaf_counter, walk

# where an adaptive-tree instance learns: the slot of one leaf it reaches, the
# alternate that leaf's subtree roots (-1 on the mainline), the indices of the
# detectors on the path to the leaf, which take its error bit, and the path
_Unit = namedtuple("_Unit", "slot alternate detectors path")

# numpy keeps up to 7 freed buffers of each size below 1,024 bytes for
# reuse, so a run allocates no small array whose size follows the number of
# touches (masks, 16-bit copies): over many runs of varying size the kept
# buffers would add up to megabytes
_SMALL = 512
# the unit that pads a program's voters: it lands past every touch
_PAST = 2**40


def _stable_order(keys, bound: int):
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, bound)``: numpy
    sorts 16-bit keys by radix, several times faster."""
    if bound <= 2**15 and len(keys) >= _SMALL:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


class HatCounter(NominalCounter):
    """Predicts and learns chunks on a ``HoeffdingAdaptiveTreeClassifier``
    whose schema has no numeric attribute, in runs between events.

    An adaptive-tree instance trains several coupled nodes: the detectors on
    its mainline path take the mainline leaf's error bit, each alternate off
    that path trains on it (its own detectors taking its own leaf's bit, and
    so on down), and the mainline leaf learns it. A *unit* is one of those
    leaves with the detectors on its path, and a cell's *program* is its
    units and, in ``_vote``'s order, the units whose leaves vote. An *event*
    is an instance that reaches a grace check at one of its leaves, an
    alternate's replacement check, a detector check that would cut, or
    checks at several of its detectors; only events can change the tree.
    Between two events every program is fixed, so each bit, vote and count
    is arithmetic on running class counts: leaf counts are whole numbers,
    which add exactly in any grouping, and each vote normalises and adds in
    ``_vote``'s order. Detectors take their bits, the ints 0 and 1,
    through ``AdwinDetector._add_bits``, which makes each check as
    ``add_element`` does. A grace check at a leaf that stays pure only sets
    its ``counter_at_last_eval``, which the counter does itself.

    An event goes through the tree's own ``predict_label`` and ``train``
    once everything its route reads is up to date: its leaves written back,
    its detectors' bits added and its alternates' instances counted. When
    it changed its route's shape (a sprout, a split, a promotion or a
    discard) or eviscerated a leaf, the rest of the chunk is routed afresh.
    """

    def _unroute(self, slot: int | None) -> None:
        """Forget every program: units by leaf position, programs by their
        units, and the places of the detectors and alternates they read."""
        self.route.fill(-1)
        self.units: list[_Unit] = []
        self.unit_at: dict = {}
        self.programs: list[tuple] = []  # (units, mainline first; voting units)
        self.program_at: dict = {}
        self.detector_at: dict = {}
        self.alternate_at: dict = {}
        self.tabulated = None

    def _reroute(self, positions: list) -> None:
        """After an event changed the shape of its route: read back the
        slots of the route's positions, or drop those where a split now
        stands, and forget every program. The other slots still hold their
        leaves."""
        slots = [slot for slot in dict.fromkeys(map(self.slot_of.get, positions)) if slot is not None]
        for slot in slots:
            if self.positions[slot].mainline.__class__ is SplitNode:
                self._release(slot)
        self._refresh([slot for slot in slots if self.positions[slot] is not None])
        self._unroute(None)

    # -- programs -------------------------------------------------------------

    def _programs_of(self, cells):
        """Each cell's program, made for the cells without one."""
        programs = self.route[cells]
        if programs.min() < 0:
            self._programs(list(dict.fromkeys(cells[programs < 0].tolist())))
            programs = self.route[cells]
        if self.tabulated != (len(self.units), len(self.programs)):
            self._tabulate()
        return programs

    def _programs(self, cells: list[int]) -> None:
        """Give each of ``cells`` its program, in one walk down the tree."""
        values_of = self._cell_values(cells)
        units_of = {values: [] for values in values_of.values()}
        fresh: list = []
        self._descend(self.learner._root, list(units_of), (), -1, units_of, fresh)
        if fresh:
            leaves = [path[-1] for _, path in fresh]
            self._new_slots([position for position in leaves if position not in self.slot_of])
            place = self.detector_at.setdefault
            for position, (alternate, path) in zip(leaves, fresh):
                self.units.append(_Unit(self.slot_of[position], alternate,
                                        [place(node.detector, len(self.detector_at)) for node in path], path))
        learner = self.learner
        for cell, values in values_of.items():
            key = tuple(units_of[values])
            program = self.program_at.get(key)
            if program is None:
                votes: list = []
                learner._alternate_votes(walk(learner._root, values), values, votes)
                # a voter is the unit of the program whose leaf holds that distribution
                dists = [self.units[u].path[-1].mainline.class_dist for u in key]
                program = self.program_at[key] = len(self.programs)
                self.programs.append((key, [next(i for i, dist in enumerate(dists) if dist is vote)
                                            for vote in votes]))
            self.route[cell] = program

    def _descend(self, position, tuples: list, path: tuple, alternate: int, units_of: dict, fresh: list) -> None:
        """Add the units the values tuples ``tuples`` reach below
        ``position``: the leaf each reaches, then those of the alternates on
        the way, as ``_train_subtree`` trains them."""
        path = (*path, position)
        node = position.mainline
        if node.__class__ is SplitNode:
            groups: dict = {}
            attr = node.attr
            for values in tuples:
                groups.setdefault(values[attr], []).append(values)
            for value, group in groups.items():
                self._descend(node.children[value], group, path, alternate, units_of, fresh)
        else:
            unit = self.unit_at.get(position)
            if unit is None:
                unit = self.unit_at[position] = len(self.units) + len(fresh)
                fresh.append((alternate, path))
            for values in tuples:
                units_of[values].append(unit)
        if position.alternate is not None:
            place = self.alternate_at.setdefault(position.alternate, len(self.alternate_at))
            self._descend(position.alternate, tuples, (), place, units_of, fresh)

    def _tabulate(self) -> None:
        """Lay the units and programs out in arrays: a program's units and a
        unit's detectors are runs of ``program_units`` and ``unit_detectors``."""
        units, programs = self.units, self.programs
        self.detectors = list(self.detector_at)
        self.alternates = list(self.alternate_at)
        self.unit_slot = np.array([unit.slot for unit in units])
        self.unit_alternate = np.array([unit.alternate for unit in units])
        self.unit_detector_count = np.array([len(unit.detectors) for unit in units])
        self.unit_detector_first = np.cumsum(self.unit_detector_count) - self.unit_detector_count
        self.unit_detectors = np.array(list(chain.from_iterable(unit.detectors for unit in units)))
        self.program_size = np.array([len(units) for units, _ in programs])
        self.program_first = np.cumsum(self.program_size) - self.program_size
        self.program_units = np.array(list(chain.from_iterable(units for units, _ in programs)))
        width = max(len(voters) for _, voters in programs)
        self.voters = np.array([voters + [_PAST] * (width - len(voters)) for _, voters in programs], np.int64)
        self.tabulated = (len(units), len(programs))

    # -- the step -------------------------------------------------------------

    def step(self, chunk: Rows) -> list:
        self._prepare(chunk)
        self.chunk = chunk
        wrong = np.zeros(len(chunk), bool)
        start = 0
        while start < len(chunk):
            start = self._runs_from(start, wrong)
        return wrong.tolist()

    def _runs_from(self, start: int, wrong) -> int:
        """Predict and learn the chunk from instance ``start`` on, in runs
        between events, up to its end or to an event that changes the shape
        of its route; returns where the next routing starts."""
        run = _Run(self, start, wrong)
        learner = self.learner
        while True:
            event = run.next_event()
            if event == run.size:
                run.apply(event)
                return len(self.chunk)
            route, units = run.bring_up(event)
            positions = [position for unit in units for position in unit.path]
            shape = [(position.mainline, position.alternate) for position in positions]
            weights = [self.positions[slot].mainline.total_weight for slot in route]
            inst = self.chunk[start + event]
            wrong[start + event] = learner.predict_label(inst) != inst.class_label
            learner.train(inst)
            if (any(position.mainline is not mainline or position.alternate is not alternate
                    for position, (mainline, alternate) in zip(positions, shape))
                    or any(self.positions[slot].mainline.total_weight != weight + 1.0
                           for slot, weight in zip(route, weights))):
                run.apply(event + 1)
                self._reroute(positions)
                return start + event + 1
            self._refresh(route)
            run.after(event, route, units)

    def _pure_check(self, slot: int, counts, label: int, deferred: int):
        """The counter at a grace check that leaves a slot's leaf pure, or
        None. ``counts`` are its class counts before the instance at the
        check, and ``deferred`` the instances it learned since its last
        write-back, that one included. None, too, when the leaf is not
        counted, or when counting on to its next check could overflow its
        pending counts."""
        counts = counts.tolist()
        counts[label] += 1.0
        leaf = self.positions[slot].mainline
        if sum(m > 0.0 for m in counts) > 1 or not _counted(leaf) or deferred + _left(0) > _MAX_LEFT:
            return None
        counter = _leaf_counter(_Running(leaf.total_weight + deferred, leaf.node_time + deferred), self.learner.config)
        return counter if counter - leaf.counter_at_last_eval >= tree.GRACE_PERIOD else None


class _Run:
    """The instances of a chunk from ``start`` on, as a ``HatCounter``
    learns them between events.

    A *touch* is one (instance, unit) pair; touches are laid out in stream
    order (``t_*``, an instance's mainline touch first) and by slot
    (``s_*``, in stream order within a slot). An *entry* is one bit a
    detector takes, one per touch of a unit on its path. ``*_done`` marks
    what is applied: counts to the slot tables, bits to the detectors and
    instances to the alternates.
    """

    def __init__(self, counter: HatCounter, start: int, wrong):
        self.counter = counter
        self.start = start
        self.size = len(counter.chunk) - start
        labels = counter.labels[start:]
        programs = counter._programs_of(counter.chunk_cells[start:])
        self._touches(programs, labels)
        wrong[start:] = self._predictions(programs) != labels
        self._entries()
        self._checks()

    def _touches(self, programs, labels) -> None:
        """Each touch's running class counts: its leaf's, plus the labels of
        the earlier touches there (an event adds the same counts in the
        tree), and the first argmax of those counts, its leaf's prediction."""
        counter = self.counter
        self.sizes = sizes = counter.program_size[programs]
        self.first = first = np.cumsum(sizes)  # each instance's first touch
        self.n_touches = n = int(first[-1])
        first -= sizes
        self.t_inst = t_inst = np.repeat(np.arange(self.size), sizes)
        t_unit = np.repeat(counter.program_first[programs] - first, sizes)
        t_unit += np.arange(n)
        self.t_unit = t_unit = counter.program_units[t_unit]
        self.t_slot = t_slot = counter.unit_slot[t_unit]
        t_label = labels[t_inst]
        n_slots = len(counter.count)
        self.order = order = _stable_order(t_slot, n_slots)
        self.by_slot = by_slot = t_slot[order]
        self.s_length = np.bincount(t_slot, minlength=n_slots)
        self.s_first = np.cumsum(self.s_length) - self.s_length
        self.s_label = s_label = t_label[order]
        self.running = running = counter._running(by_slot, s_label, np.repeat(self.s_first, self.s_length))
        self.where = where = np.empty(n, np.int64)  # each touch's place by slot
        where[order] = np.arange(n)
        self.t_pred = running.argmax(axis=1)[where]
        # each touch's error bit, 1 when its leaf's prediction is wrong
        self.t_bit = (self.t_pred != t_label).astype(np.intp)

    def _predictions(self, programs):
        """Each instance's prediction: its mainline leaf's, or ``_vote``'s
        sum of normalised distributions, the mainline's first, then the
        voters' in order."""
        voters = self.counter.voters
        if not voters.shape[1]:
            return self.t_pred[self.first]
        # Every instance's sum, the voters' rows padded with a zero row:
        # adding 0.0 leaves a sum as it is, and where no alternate votes the
        # normalised counts have the first argmax of the counts, since whole
        # counts below 2**52 keep their order when divided by their total.
        running, n = self.running, self.n_touches
        totals = running.sum(axis=1, keepdims=True)
        shares = np.zeros((n + 1, running.shape[1]))
        np.divide(running, totals, out=shares[:-1], where=totals > 0.0)
        where = np.append(self.where, n)
        combined = shares[where[self.first]]
        for voter in voters[programs].T:
            combined += shares[where[np.minimum(self.first + voter, n)]]
        return combined.argmax(axis=1)

    def _entries(self) -> None:
        """Each detector's entries in stream order, their bits, and those
        that reach a check that could cut."""
        counter, m = self.counter, self.size
        detectors = counter.detectors
        n_detectors = len(detectors)
        d_count = counter.unit_detector_count[self.t_unit]
        e_first = np.cumsum(d_count)  # each touch's first entry
        n = int(e_first[-1])
        e_first -= d_count
        e_det = np.repeat(counter.unit_detector_first[self.t_unit] - e_first, d_count)
        e_det += np.arange(n)
        e_det = counter.unit_detectors[e_det]
        e_order = _stable_order(e_det, n_detectors)
        e_det = e_det[e_order]
        e_inst = np.repeat(self.t_inst, d_count)[e_order]
        e_bit = np.repeat(self.t_bit, d_count)[e_order]
        self.bits = e_bit.tolist()
        d_start = np.searchsorted(e_det, np.arange(n_detectors))
        ticks = np.fromiter((detector._ticks for detector in detectors), np.int64, n_detectors) - d_start
        ticks = ticks[e_det]
        ticks += np.arange(1, n + 1)
        ticks %= AdwinDetector.CHECK_INTERVAL
        checks = np.flatnonzero(ticks == 0)
        # the checks of a detector that the certificate clears at the end of
        # its entries cannot cut (see ``AdwinDetector._add_bits``): they are
        # made as its bits are added, not here
        checked = e_det[checks].tolist()
        if checked:
            added = np.bincount(e_det, minlength=n_detectors).tolist()
            ones = np.bincount(e_det, e_bit, n_detectors).tolist()
            cleared = {d for d in set(checked)
                       if detectors[d]._cannot_cut(detectors[d].total_sum + ones[d], detectors[d].total_count + added[d])}
            if cleared:
                checks = np.array([at for at, d in zip(checks.tolist(), checked) if d not in cleared], np.int64)
        # in stream order: by instance, then by detector, as entries are laid out
        key = e_inst[checks]
        key *= n
        key += checks
        key.sort()
        checks = key % n
        self.check_inst, self.check_det, self.check_at = (key // n).tolist(), e_det[checks].tolist(), checks.tolist()
        self.k = 0  # the first check not made
        self.e_key = e_det * m + e_inst  # ascending
        self.d_done = d_start.tolist()

    def _checks(self) -> None:
        """Where each slot's next grace check and each alternate's next
        replacement check fall: the instance there, or ``size``."""
        counter, m, n = self.counter, self.size, self.n_touches
        n_slots = len(counter.count)
        s_first, s_length = self.s_first, self.s_length
        self.s_inst = s_inst = np.append(self.t_inst[self.order], m)
        self.s_key = self.by_slot * (m + 1) + s_inst[:-1]  # ascending: slot, then instance
        self.s_done = np.zeros(n_slots, np.int64)
        self.g_rank = g_rank = counter.left.copy()  # the rank of each slot's next grace check
        self.grace = np.where(g_rank < s_length, s_inst[np.minimum(s_first + g_rank, n)], m)

        alternates = counter.alternates
        n_alternates = len(alternates)
        self.t_alt = t_alt = counter.unit_alternate[self.t_unit]
        a_order = np.flatnonzero(t_alt + 1)  # the touches that train an alternate
        a_order = a_order[_stable_order(t_alt[a_order], n_alternates)]
        by_alt = t_alt[a_order]
        self.a_first = a_first = np.searchsorted(by_alt, np.arange(n_alternates))
        self.a_length = a_length = np.searchsorted(by_alt, np.arange(n_alternates), "right") - a_first
        self.a_inst = a_inst = np.append(self.t_inst[a_order], m)
        self.t_arank = np.zeros(n, np.int64)  # each touch's rank at its alternate
        self.t_arank[a_order] = np.arange(len(a_order)) - a_first[by_alt]
        due = np.array([counter.learner._instances_to_check(alt) - 1 for alt in alternates], np.int64)
        self.replace = np.where(due < a_length, a_inst[np.minimum(a_first + due, len(a_order))], m)
        self.a_done = [0] * n_alternates

    def _grace_at(self, slot: int, rank: int) -> None:
        """Place a slot's next grace check at its ``rank``-th touch."""
        self.g_rank[slot] = rank
        self.grace[slot] = self.s_inst[self.s_first[slot] + rank] if rank < self.s_length[slot] else self.size

    # -- the run --------------------------------------------------------------

    def next_event(self) -> int:
        """The next instance that goes through the tree, or ``size``; the
        detector checks before it are made and the grace checks at leaves
        that stay pure are counted on the way."""
        m = self.size
        while True:
            checked, replaced = int(self.grace.min(initial=m)), int(self.replace.min(initial=m))
            event = self._checks_before(min(checked, replaced))
            if event == m or not event == checked < replaced or not self._pure_checks(event):
                return event

    def _checks_before(self, bound: int) -> int:
        """Make the detector checks before instance ``bound``, in stream
        order; returns the instance of the first that would cut, or of the
        first with several checks, which the tree makes, or ``bound``."""
        check_inst, check_det, check_at = self.check_inst, self.check_det, self.check_at
        detectors, bits, done = self.counter.detectors, self.bits, self.d_done
        k, n = self.k, len(check_at)
        while k < n and check_inst[k] < bound:
            if k + 1 < n and check_inst[k + 1] == check_inst[k]:
                bound = check_inst[k]
                break
            d, at = check_det[k], check_at[k]
            done[d] += detectors[d]._add_bits(bits[done[d]:at + 1])
            if done[d] <= at:
                bound = check_inst[k]
                break
            k += 1
        self.k = k
        return bound

    def _pure_checks(self, event: int) -> bool:
        """Count the grace checks at ``event`` when every leaf there stays
        pure; returns whether they were counted."""
        counter = self.counter
        slots = np.flatnonzero(self.grace == event).tolist()
        counters = []
        for slot in slots:
            rank = int(self.g_rank[slot])
            at = int(self.s_first[slot]) + rank
            deferred = int(counter.count[slot]) + rank + 1 - int(self.s_done[slot])
            value = counter._pure_check(slot, self.running[at], int(self.s_label[at]), deferred)
            if value is None:
                return False
            counters.append(value)
        moved = 1 + _left(0)
        for slot, value in zip(slots, counters):
            counter.positions[slot].mainline.counter_at_last_eval = value
            counter.left[slot] += moved
            self._grace_at(slot, int(self.g_rank[slot]) + moved)
        return True

    def bring_up(self, event: int):
        """Bring the route of ``event`` up to date: write its leaves back,
        add its detectors' bits and count its alternates' instances; returns
        its slots and units."""
        counter = self.counter
        touch = self.first[event]
        span = slice(touch, touch + self.sizes[event])
        route = self.t_slot[span].tolist()
        units = [counter.units[u] for u in self.t_unit[span].tolist()]
        new: list[int] = []
        for slot, r in zip(route, self.where[span].tolist()):
            a = int(self.s_first[slot])
            new += range(a + int(self.s_done[slot]), r)
            self.s_done[slot] = r - a + 1
        if new:
            counter._add(self.start + self.s_inst[new], self.by_slot[new])
        counter._write_back([slot for slot in route if counter.count[slot]])
        alternates, a_done = counter.alternates, self.a_done
        for unit, r in zip(units, self.t_arank[span].tolist()):
            if unit.alternate >= 0:
                alternates[unit.alternate].instances += r - a_done[unit.alternate]
                a_done[unit.alternate] = r + 1
        detectors, bits, done = counter.detectors, self.bits, self.d_done
        route_detectors = [d for unit in units for d in unit.detectors]
        ends = np.searchsorted(self.e_key, np.array(route_detectors) * self.size + event).tolist()
        for d, at in zip(route_detectors, ends):
            detectors[d]._add_bits(bits[done[d]:at])
            done[d] = at + 1
        return route, units

    def after(self, event: int, route: list, units: list) -> None:
        """Place the next checks of the route of ``event``, which went
        through the tree and whose leaves were read back."""
        counter, m = self.counter, self.size
        for slot in route:
            self._grace_at(slot, int(self.s_done[slot] + counter.left[slot]))
        for unit in units:
            a = unit.alternate
            if a >= 0:
                r = self.a_done[a] - 1 + counter.learner._instances_to_check(counter.alternates[a])
                self.replace[a] = self.a_inst[self.a_first[a] + r] if r < self.a_length[a] else m
        while self.k < len(self.check_at) and self.check_inst[self.k] == event:
            self.k += 1

    def apply(self, end: int) -> None:
        """Apply every update of the touches before instance ``end`` not
        applied yet."""
        counter, m = self.counter, self.size
        # each slot's touches before end not applied: a run of its touches
        n_slots = len(counter.count)
        s_end = np.searchsorted(self.s_key, np.arange(n_slots) * (m + 1) + end)
        added = s_end - self.s_first
        added -= self.s_done
        np.maximum(added, 0, out=added)
        if added.any():
            new = np.repeat(self.s_first + self.s_done - np.cumsum(added) + added, added)
            new += np.arange(len(new))
            counter._add(self.start + self.s_inst[new], self.by_slot[new])
        alternates = counter.alternates
        if alternates:
            trained = self.t_alt[:self.first[end] if end < m else self.n_touches] + 1
            totals = np.bincount(trained, minlength=len(alternates) + 1).tolist()[1:]
            for alt, total, done in zip(alternates, totals, self.a_done):
                alt.instances += total - done
        detectors, bits, done = counter.detectors, self.bits, self.d_done
        for d, end_d in enumerate(np.searchsorted(self.e_key, np.arange(len(detectors)) * m + end).tolist()):
            if end_d > done[d]:
                detectors[d]._add_bits(bits[done[d]:end_d])
