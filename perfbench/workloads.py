"""The benchmark's workloads and the program calls that build and run them.

Each workload stresses a different layer of streamtrees (see README.md):

- ``vfdt-hyperplane``: the numeric observer and numeric split evaluation;
- ``hat-stagger-vote``: ADWIN and alternate voting;
- ``grid-amnesia``: generation, the process pool and the CSV writers.

A run of a single-cell workload is ``CELLS`` cells, one after another, and
a run of the grid is ``GRIDS`` grids; the run reports medians over them. The
workload seed picks a distinct stream variant for each cell or grid and
reaches the program only through ``StreamSpec.reseeded`` and the adaptive
tree's ``seed``. Importing this module imports streamtrees from the ``src``
directory next to the benchmark.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "streamtrees" / "__init__.py").is_file():
    raise ImportError(f"streamtrees sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from streamtrees import (  # noqa: E402
    HatConfig,
    HoeffdingAdaptiveTreeClassifier,
    HoeffdingTreeClassifier,
    build_generator,
    parse_stream_spec,
)
from streamtrees import experiments  # noqa: E402

WINDOW = 500  # instances per timed window
CELLS = 9  # cells in one run of a single-cell workload
GRIDS = 5  # grids in one run of the grid workload
PINNED_VARIANT = 0  # stream variant of the recorded output digests


@dataclass(frozen=True)
class CellWorkload:
    """One (stream, learner) prequential cell, sized to a time budget."""

    name: str
    stream: str
    learner: str  # "vfdt" or "hat-vote"
    rate: int  # nominal instances/s on a 2-vCPU machine; sizes a run to --seconds
    check_instances: int  # length of the pinned-variant digest cell
    max_error: float  # a measured cell with a higher final error has failed

    def cell_instances(self, seconds: int) -> int:
        # 200 windows or more per cell leave at least 90 of a run's windows
        # beyond its 95th percentile
        return max(200, round(seconds * self.rate / (CELLS * WINDOW))) * WINDOW

    def variants(self, seed: int) -> list[int]:
        return [seed * CELLS + j for j in range(CELLS)]

    def build(self, variant: int):
        """Parse, reseed and build the stream, then build the learner."""
        stream = build_generator(parse_stream_spec(self.stream).reseeded(variant))
        if self.learner == "vfdt":
            learner = HoeffdingTreeClassifier(stream.schema)
        else:
            # alternates vote but do not sprout alternates of their own: with
            # nesting (the default depth cap of 10) the cost of one 100k cell
            # varies threefold between stream variants, which no bound absorbs
            config = HatConfig(voting_mode="multiple_alternates", alternate_depth_cap=1)
            learner = HoeffdingAdaptiveTreeClassifier(stream.schema, config, seed=variant)
        return stream, learner


@dataclass(frozen=True)
class GridWorkload:
    """The amnesia-figure preset cut to two seeds or more of a shorter run."""

    name: str
    cell_instances: int  # crosses the stream's drift at instance 150,000
    jobs: int
    rate: int  # nominal instances/s of the whole grid; sizes a run to --seconds
    check_instances: int
    max_error: float

    def seeds(self, seconds: int) -> int:
        """Seeds per grid; each seed is one cell of each of the two arms."""
        return max(2, round(seconds * self.rate / (GRIDS * 2 * self.cell_instances)))

    def variants(self, seed: int, seeds: int) -> list[int]:
        return [(seed * GRIDS + g) * seeds for g in range(GRIDS)]

    def config(self, variant: int, seeds: int, n_instances: int, output_dir: str):
        """The preset with its stream reseeded and its size reduced.

        The grid reseeds the stream again for each of its seeds, so grids
        ``seeds`` variants apart share no cell.
        """
        base = experiments.preset("amnesia-figure")
        stream = parse_stream_spec(base.streams[0]).reseeded(variant).canonical()
        config = dataclasses.replace(
            base,
            streams=[stream],
            n_instances=n_instances,
            seeds=seeds,
            output_dir=output_dir,
            parallelism=self.jobs,
        )
        config.validate()
        return config


WORKLOADS = {
    w.name: w
    for w in (
        CellWorkload(
            name="vfdt-hyperplane",
            stream="HyperplaneGenerator -k 10 -t 0.001 -i 2",
            learner="vfdt",
            rate=75_000,
            check_instances=40_000,
            max_error=0.45,
        ),
        # the testbench's recurrent STAGGER row with its drift period cut from
        # 200,000 to 25,000 instances, so that a run of a few seconds drifts
        CellWorkload(
            name="hat-stagger-vote",
            stream=(
                "RecurrentConceptDriftStream -x 25000 -y 25000 -z 100 "
                "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
            ),
            learner="hat-vote",
            rate=45_000,
            check_instances=60_000,
            max_error=0.15,
        ),
        GridWorkload(
            name="grid-amnesia",
            cell_instances=200_000,
            jobs=2,
            rate=220_000,
            check_instances=20_000,
            max_error=0.8,
        ),
    )
}
