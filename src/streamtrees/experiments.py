"""Batch experiment grids: learners x streams x seeds, with CSV/markdown output.

A config is a flat key=value file (repeated ``stream=`` and ``learner=``
lines). A preset is the lines of such a file, two ``learner=`` lines and a
row set for one published comparison, kept under a name; ``preset`` parses
them with the parser ``parse_config_file`` uses, so those lines copied into a
file run the same grid with ``--config``.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass

from .evaluate import (
    averaged_series,
    compare,
    comparison_csv,
    comparison_markdown,
    prequential_run,
)
from .hat import HatConfig, HoeffdingAdaptiveTreeClassifier
from .specparse import OutOfScopeError, build_generator, build_stream, parse_stream_spec
from .tree import HoeffdingTreeClassifier, StrategyConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


# learner flag -> the type of its field's default, which its text converts to;
# HatConfig's fields are StrategyConfig's plus the adaptive tree's
_FLAGS = {f.name: type(f.default) for f in dataclasses.fields(HatConfig)}
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class LearnerSpec:
    name: str
    algorithm: str  # "vfdt" | "hat"
    overrides: tuple = ()

    def __post_init__(self) -> None:
        # the name becomes a results.csv field and a file name under series/
        if not re.fullmatch(r"[A-Za-z0-9_-]+", self.name):
            raise ConfigError(
                f"learner {self.name!r}: name may use only letters, digits, '_' and '-'"
            )
        if self.algorithm not in ("vfdt", "hat"):
            raise ConfigError(f"learner {self.name}: algorithm must be vfdt or hat")
        self.config()  # validate flags eagerly

    def config(self):
        cls = StrategyConfig if self.algorithm == "vfdt" else HatConfig
        names = {f.name for f in dataclasses.fields(cls)}
        for key, _ in self.overrides:
            if key not in names:
                raise ConfigError(f"learner flags: unknown {self.algorithm} option {key!r}")
        try:
            return cls(**dict(self.overrides))
        except ValueError as exc:
            raise ConfigError(f"learner flags: {exc}") from None

    def build(self, schema, seed: int = 0):
        if self.algorithm == "vfdt":
            return HoeffdingTreeClassifier(schema, self.config())
        return HoeffdingAdaptiveTreeClassifier(schema, self.config(), seed=seed)


@dataclass
class ExperimentConfig:
    learners: list
    streams: list
    n_instances: int = 400_000
    snapshot_every: int = 0
    seeds: int = 1
    output_dir: str = "results"
    parallelism: int = 1

    def validate(self) -> None:
        if not self.learners:
            raise ConfigError("learners: need at least one learner")
        if not self.streams:
            raise ConfigError("streams: need at least one stream")
        if self.seeds < 1:
            raise ConfigError("seeds: must be >= 1")
        if self.n_instances < 1:
            raise ConfigError("instances: must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("jobs: must be >= 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot-every: must be >= 0")
        if not self.output_dir:
            raise ConfigError("out: must not be empty")
        names = [lrn.name for lrn in self.learners]
        if len(set(names)) != len(names):
            raise ConfigError("learners: names must be unique")
        first_with_slug: dict[str, int] = {}
        for i, row in enumerate(self.streams):
            # ParseError (with its offset) and OutOfScopeError pass through
            spec = parse_stream_spec(row)
            try:
                build_generator(spec)
            except OutOfScopeError:
                raise
            except ValueError as exc:
                raise ConfigError(f"stream {row!r}: {exc}") from None
            # a repeated row would count twice in the comparison, and rows
            # with one slug would write to one series directory
            first = first_with_slug.setdefault(_slug(row), i)
            if first != i:
                raise ConfigError(f"streams: rows {self.streams[first]!r} and {row!r} "
                                  f"share the series directory name {_slug(row)!r}")


def _typed_flag(key: str, text: str):
    kind = _FLAGS.get(key)
    if kind is None:
        return text  # LearnerSpec.config names the unknown option
    try:
        return _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        expected = {bool: "true/false/yes/no/1/0", int: "an integer", float: "a number"}[kind]
        raise ConfigError(f"learner flags: {key}={text!r} is not {expected}") from None


def parse_learner_line(text: str) -> LearnerSpec:
    """``name algorithm [flag=value ...]``, e.g.
    ``resplit vfdt used_attribute_policy=resplit``."""
    parts = text.split()
    if len(parts) < 2:
        raise ConfigError(f"learner: expected 'name algorithm [flag=value ...]', got {text!r}")
    overrides = {}
    for part in parts[2:]:
        if "=" not in part:
            raise ConfigError(f"learner {parts[0]}: flag {part!r} is not key=value")
        key, _, value = part.partition("=")
        if key in overrides:
            raise ConfigError(f"learner {parts[0]}: flag {key!r} given twice")
        overrides[key] = _typed_flag(key, value)
    return LearnerSpec(parts[0], parts[1].lower(), tuple(overrides.items()))


# config-file key, which is also the CLI long option ->
# (ExperimentConfig field, type, CLI metavar, CLI help)
SETTINGS = {
    "out": ("output_dir", str, "DIR", "output directory (default: results)"),
    "seeds": ("seeds", int, "N", "stream reseedings per row"),
    "instances": ("n_instances", int, "N", "instances per run"),
    "snapshot-every": ("snapshot_every", int, "N",
                       "error-series window size (0 disables series output)"),
    "jobs": ("parallelism", int, "N", "parallel worker processes, at most one per cell"),
}


def parse_config_lines(lines) -> ExperimentConfig:
    """Build a config from config-file lines; errors name the line they are on."""
    cfg = ExperimentConfig(learners=[], streams=[])
    given = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "stream":
            cfg.streams.append(value)
        elif key == "learner":
            try:
                cfg.learners.append(parse_learner_line(value))
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        elif key in SETTINGS:
            if key in given:
                raise ConfigError(f"line {lineno}: {key} given twice")
            given.add(key)
            field, kind, *_ = SETTINGS[key]
            try:
                setattr(cfg, field, kind(value))
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} expects an integer, got {value!r}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_lines(fh)


# --------------------------------------------------------------------------
# the testbench rows (published table rows restricted to supported generators)
# --------------------------------------------------------------------------

RECURRENT_SEA = (
    "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 "
    "-s (SEAGenerator -f 2 -i 2) -d (SEAGenerator -f 3 -i 3)"
)
RECURRENT_STAGGER = (
    "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 "
    "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
)
HYPERPLANE_ROWS = [
    "HyperplaneGenerator -k 10 -t 0.0001 -i 2",
    "HyperplaneGenerator -k 10 -t 0.001 -i 2",
    "HyperplaneGenerator -k 10 -t 0.01 -i 2",
    "HyperplaneGenerator -k 5 -t 0.0001 -i 2",
    "HyperplaneGenerator -k 5 -t 0.001 -i 2",
    "HyperplaneGenerator -k 5 -t 0.01 -i 2",
]
ABRUPT_ROWS = [
    "AbruptDriftGenerator -c -o 1.0 -z 2 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 3 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 4 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 5 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 4 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 4 -n 4 -v 4 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 5 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c -o 1.0 -z 5 -n 5 -v 5 -r 2 -b 200000 -d Recurrent",
]
TESTBENCH_ROWS = [RECURRENT_SEA, RECURRENT_STAGGER] + HYPERPLANE_ROWS + ABRUPT_ROWS

# low-dimensional abrupt rows (at most 3 values per attribute) plus STAGGER,
# and the two high-dimensional rows where the no-voting baseline holds up
ALTVOTE_ROWS = [r for r in ABRUPT_ROWS if " -z 2 " in r or " -z 3 " in r] + [
    RECURRENT_STAGGER,
    ABRUPT_ROWS[7],  # 4x4x4
    ABRUPT_ROWS[9],  # 5x5x5
]

AMNESIA_STREAM = "AbruptDriftGenerator -c -o 1.0 -z 5 -n 5 -v 5 -r 1 -b 150000"

# Each preset is the lines of a config file: two learner lines and a row set,
# plus any setting it changes. preset() parses them as parse_config_file would.
_TESTBENCH = [f"stream = {row}" for row in TESTBENCH_ROWS]
# the published-algorithm reading of the base learner: averaged gains over
# evaluations, instance-count split timer
_STRIPPED = "infogain_mode=averaged_over_evaluations counter_mode=node_time"
_MOA_SIDE = "used_attribute_policy=resplit"  # instantaneous + weight_seen are the defaults
# the multiple-alternate voting arms let alternates nest, up to 10 alternate edges
_MULTI_VOTE = "voting_mode=multiple_alternates alternate_depth_cap=10"
_NO_SINGLE_LEAVES = "voting_mode=multiple_excluding_single_leaves alternate_depth_cap=10"

_PRESETS = {
    # base tree flag studies
    "resplit-vfdt": ["learner = vfdt vfdt",
                     "learner = vfdt-resplit vfdt used_attribute_policy=resplit", *_TESTBENCH],
    "infogain-vfdt": ["learner = vfdt-averaged vfdt infogain_mode=averaged_over_evaluations",
                      "learner = vfdt-instantaneous vfdt", *_TESTBENCH],
    "counters-vfdt": ["learner = vfdt-node-time vfdt counter_mode=node_time",
                      "learner = vfdt-weight-seen vfdt", *_TESTBENCH],
    "combined-vfdt": [f"learner = vfdt-stripped vfdt {_STRIPPED}",
                      f"learner = vfdt-combined vfdt {_MOA_SIDE}", *_TESTBENCH],
    "eviscerate-vfdt": ["learner = vfdt vfdt",
                        "learner = vfdt-eviscerate vfdt used_attribute_policy=eviscerate",
                        *_TESTBENCH],
    # adaptive tree flag studies
    "resplit-hat": ["learner = hat hat",
                    "learner = hat-resplit hat used_attribute_policy=resplit", *_TESTBENCH],
    # the alternate-voting study runs with a conservative replacement period in
    # both arms: promotion and voting compete for the same signal, and with
    # immediate promotion there is no window in which lookahead can matter
    "altvote-hat": ["learner = hat hat replacement_check_interval=10000",
                    "learner = hat-single-vote hat voting_mode=single_alternate "
                    "replacement_check_interval=10000",
                    *(f"stream = {row}" for row in ALTVOTE_ROWS)],
    "multialt-hat": [f"learner = hat-multi-vote hat {_MULTI_VOTE}",
                     "learner = hat-single-vote hat voting_mode=single_alternate", *_TESTBENCH],
    "singleleaf-hat": [f"learner = hat-vote-no-single-leaves hat {_NO_SINGLE_LEAVES}",
                       f"learner = hat-multi-vote hat {_MULTI_VOTE}", *_TESTBENCH],
    "poisson-hat": [f"learner = hat-vote-no-single-leaves hat {_NO_SINGLE_LEAVES}",
                    f"learner = hat-poisson hat {_NO_SINGLE_LEAVES} poisson_weighting=true",
                    *_TESTBENCH],
    "avg-infogain-hat": ["learner = hat hat",
                         "learner = hat-averaged hat infogain_mode=averaged_over_evaluations",
                         *_TESTBENCH],
    "root-replace-hat": [f"learner = hat-moa-flags hat {_MOA_SIDE}",
                         f"learner = hat-root-replace hat {_MOA_SIDE} "
                         "replace_root_on_alternate_split=true", *_TESTBENCH],
    "subtree-replace-hat": [f"learner = hat-moa-flags hat {_MOA_SIDE}",
                            f"learner = hat-subtree-replace hat {_MOA_SIDE} "
                            "replace_subtree_on_alternate_split=true", *_TESTBENCH],
    "both-replace-hat": ["learner = hat hat",
                         "learner = hat-both-replace hat replace_root_on_alternate_split=true "
                         "replace_subtree_on_alternate_split=true", *_TESTBENCH],
    "vfdt-flags-in-hat": [f"learner = hat-stripped hat {_STRIPPED}",
                          f"learner = hat-moa-flags hat {_MOA_SIDE}", *_TESTBENCH],
    # drift-recovery figure: tie threshold opened up so the tree actually grows
    # on the 5x5x5 stream, identically in both arms
    "amnesia-figure": ["learner = vfdt vfdt tau=0.15",
                       "learner = vfdt-eidetic vfdt tau=0.15 eidetic=true",
                       f"stream = {AMNESIA_STREAM}",
                       "instances = 300000", "seeds = 10", "snapshot-every = 1000"],
}

PRESET_NAMES = sorted(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    try:
        lines = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"preset: unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return parse_config_lines(lines)


# --------------------------------------------------------------------------
# grid execution
# --------------------------------------------------------------------------

def _run_one(task):
    """One (learner, stream, seed) cell; module-level so it pickles."""
    learner_spec, stream_text, variant, n_instances, snapshot_every = task
    stream = build_stream(stream_text, variant)
    learner = learner_spec.build(stream.schema, seed=variant)
    return prequential_run(learner, stream, n_instances, snapshot_every)


def run_grid(config: ExperimentConfig):
    """Execute the full grid; returns {(learner, stream, seed): PrequentialResult}."""
    tasks = []
    keys = []
    for stream_text in config.streams:
        for learner_spec in config.learners:
            for variant in range(config.seeds):
                tasks.append((learner_spec, stream_text, variant,
                              config.n_instances, config.snapshot_every))
                keys.append((learner_spec.name, stream_text, variant))
    if config.parallelism > 1 and len(tasks) > 1:
        # imported here so that serial grids, and configs that fail
        # validation, skip importing multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit: one per cell at most
        with ProcessPoolExecutor(max_workers=min(config.parallelism, len(tasks))) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]
    return dict(zip(keys, results))


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")[:80]


def run_experiment(config: ExperimentConfig) -> None:
    """Run the grid and write results.csv, comparison tables and series files."""
    config.validate()
    os.makedirs(config.output_dir, exist_ok=True)
    results = run_grid(config)

    lines = ["stream,learner,seed,instances,final_error,wall_seconds"]
    for (lname, stream_text, variant), res in results.items():
        lines.append(
            f'"{stream_text}",{lname},{variant},{config.n_instances},'
            f"{res.final_error:.5f},{res.wall_time:.3f}"
        )
    with open(os.path.join(config.output_dir, "results.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    def mean_error(lname, stream_text):
        errs = [results[(lname, stream_text, v)].final_error for v in range(config.seeds)]
        return sum(errs) / len(errs)

    if len(config.learners) == 2:
        name_a, name_b = (lrn.name for lrn in config.learners)
        errors_a = [mean_error(name_a, s) for s in config.streams]
        errors_b = [mean_error(name_b, s) for s in config.streams]
        report = compare(errors_a, errors_b, config.streams,
                         meta={"instances": config.n_instances, "seeds": config.seeds})
        with open(os.path.join(config.output_dir, "comparison.md"), "w", encoding="utf-8") as fh:
            fh.write(comparison_markdown(report, name_a, name_b))
        with open(os.path.join(config.output_dir, "comparison.csv"), "w", encoding="utf-8") as fh:
            fh.write(comparison_csv(report))

    if config.snapshot_every:
        for stream_text in config.streams:
            stream_dir = os.path.join(config.output_dir, "series", _slug(stream_text))
            os.makedirs(stream_dir, exist_ok=True)
            for lrn in config.learners:
                series = averaged_series(
                    [results[(lrn.name, stream_text, v)].error_series for v in range(config.seeds)]
                )
                path = os.path.join(stream_dir, f"{lrn.name}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("instance_index,mean_error\n")
                    fh.writelines(f"{idx},{err:.6f}\n" for idx, err in series)
