import dataclasses
import os
import re
from pathlib import Path

import pytest

from streamtrees import experiments
from streamtrees.cli import build_arg_parser, main
from streamtrees.experiments import (
    ABRUPT_ROWS,
    ALTVOTE_ROWS,
    AMNESIA_STREAM,
    PRESET_NAMES,
    SETTINGS,
    TESTBENCH_ROWS,
    ConfigError,
    ExperimentConfig,
    parse_config_file,
    parse_learner_line,
    preset,
    run_experiment,
)
from streamtrees.hat import HatConfig
from streamtrees.specparse import parse_stream_spec
from streamtrees.streams import CellTable
from streamtrees.tree import StrategyConfig


SMALL_STREAMS = [
    "STAGGERGenerator -i 2 -f 2",
    "AbruptDriftGenerator -c -o 1.0 -z 2 -n 2 -v 2 -r 2 -b 300 -d Recurrent",
]


def small_config(tmp_path, **kwargs):
    defaults = dict(
        learners=[
            parse_learner_line("vfdt vfdt"),
            parse_learner_line("resplit vfdt allow_resplit=true"),
        ],
        streams=list(SMALL_STREAMS),
        n_instances=800,
        seeds=2,
        snapshot_every=200,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# --------------------------------------------------------------------------
# learner and config parsing
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "flags,expected",
    [
        ("allow_resplit=true grace_period=100", {"allow_resplit": True, "grace_period": 100}),
        ("eidetic=YES allow_resplit=0", {"eidetic": True, "allow_resplit": False}),
        # each value takes the type of its field, not a type guessed from the text
        ("grace_period=1", {"grace_period": 1}),
        ("tau=1", {"tau": 1.0}),
    ],
)
def test_parse_learner_line(flags, expected):
    spec = parse_learner_line(f"combined vfdt {flags}")
    assert spec.name == "combined" and spec.algorithm == "vfdt"
    cfg = spec.config()
    for key, value in expected.items():
        assert getattr(cfg, key) == value and type(getattr(cfg, key)) is type(value)


def test_parse_hat_learner_with_base_flags():
    spec = parse_learner_line(
        "h hat voting_mode=single_alternate poisson_weighting=true allow_resplit=true"
    )
    cfg = spec.config()
    assert cfg.voting_mode == "single_alternate"
    assert cfg.poisson_weighting
    assert cfg.allow_resplit


# a valid value other than the default for every learner flag
FLAG_TEXT = {
    "eidetic": "true", "allow_resplit": "yes", "eviscerate_on_used_best": "1",
    "infogain_mode": "averaged_over_evaluations", "counter_mode": "node_time",
    "grace_period": "50", "delta": "0.001", "tau": "1",
    "voting_mode": "single_alternate", "poisson_weighting": "true",
    "replace_root_on_alternate_split": "true", "replace_subtree_on_alternate_split": "true",
    "replacement_check_interval": "10", "replacement_delta": "0.1",
    "alternate_depth_cap": "3", "detector": "neverfire", "detector_delta": "0.01",
    "detector_check_interval": "16",
}
BASE_FIELDS = {f.name for f in dataclasses.fields(StrategyConfig)}


@pytest.mark.parametrize("field", dataclasses.fields(HatConfig), ids=lambda f: f.name)
def test_flag_table_types_every_field_alike_on_vfdt_and_hat_lines(field):
    flag = f"{field.name}={FLAG_TEXT[field.name]}"
    value = getattr(parse_learner_line(f"h hat {flag}").config(), field.name)
    assert value != field.default and type(value) is type(field.default)
    if field.name in BASE_FIELDS:
        vfdt_value = getattr(parse_learner_line(f"v vfdt {flag}").config(), field.name)
        assert vfdt_value == value and type(vfdt_value) is type(value)
    else:
        with pytest.raises(ConfigError, match="unknown vfdt option"):
            parse_learner_line(f"v vfdt {flag}")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x forest", "algorithm"),
        ("x vfdt resplit", "key=value"),
        ("x vfdt sprockets=4", "unknown vfdt option"),
        ("x hat sprockets=4", "unknown hat option"),
        ("x vfdt voting_mode=single_alternate", "unknown vfdt option"),
        # a misspelled or mistyped value names its flag instead of turning it on
        ("x vfdt allow_resplit=ture", "allow_resplit"),
        ("x vfdt eidetic=flase", "eidetic"),
        ("x hat poisson_weighting=no_thanks", "poisson_weighting"),
        ("x vfdt grace_period=abc", "grace_period"),
        ("x vfdt grace_period=1.5", "grace_period"),
        ("x hat detector_check_interval=abc", "detector_check_interval"),
        ("x hat detector_check_interval=0", "detector_check_interval"),
        ("x hat detector_delta=1.5", "detector_delta"),
        ("x vfdt tau=nan", "tau"),
        # a repeated flag is an error, not a silent override by the last one
        ("x vfdt tau=0.1 tau=0.3", "flag 'tau' given twice"),
        ("x hat voting_mode=single_alternate voting_mode=multiple_alternates",
         "flag 'voting_mode' given twice"),
    ],
)
def test_learner_line_errors_name_the_problem(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_learner_line(line)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(
        "# comment\n"
        "learner = base vfdt\n"
        "learner = resplit vfdt allow_resplit=true\n"
        f"stream = {SMALL_STREAMS[0]}\n"
        f"stream = {SMALL_STREAMS[1]}\n"
        "instances = 500\n"
        "seeds = 2\n"
        "snapshot-every = 100\n"
        "out = somewhere\n"
        "jobs = 2\n"
    )
    cfg = parse_config_file(str(path))
    assert [l.name for l in cfg.learners] == ["base", "resplit"]
    assert cfg.streams == SMALL_STREAMS
    assert (cfg.n_instances, cfg.seeds, cfg.snapshot_every) == (500, 2, 100)
    assert cfg.output_dir == "somewhere" and cfg.parallelism == 2
    cfg.validate()


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("instances = 4e5", "instances"),
        ("seeds = two", "seeds"),
        # spellings other than the CLI long options are not config keys
        ("n_instances = 500", "unknown key"),
        ("snapshot_every = 100", "unknown key"),
        ("output_dir = somewhere", "unknown key"),
        # a repeated setting is an error, not a silent override by the last one
        ("seeds = 3\nseeds = 1", "line 3: seeds given twice"),
        ("instances = 500\nlearner = b vfdt\ninstances = 500", "line 4: instances given twice"),
    ],
)
def test_config_file_rejects_bad_settings(tmp_path, line, fragment):
    path = tmp_path / "bad.conf"
    path.write_text(f"learner = a vfdt\n{line}\n")
    with pytest.raises(ConfigError, match=fragment):
        parse_config_file(str(path))


def test_settings_keys_are_cli_options_and_config_fields():
    actions = {opt: a for a in build_arg_parser()._actions for opt in a.option_strings}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, (field, kind) in SETTINGS.items():
        assert f"--{key}" in actions
        assert (actions[f"--{key}"].type or str) is kind
        assert field in fields


def test_readme_config_example_validates(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.conf"
    path.write_text(example)
    parse_config_file(str(path)).validate()


def test_readme_preset_list_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^`--preset` names .*?\n\n", readme, re.S | re.M).group(0)
    names = [n for n in re.findall(r"`([^`]+)`", paragraph) if n != "--preset"]
    assert sorted(names) == PRESET_NAMES


def test_config_validation_names_fields(tmp_path):
    with pytest.raises(ConfigError, match="learners"):
        ExperimentConfig(learners=[], streams=["STAGGERGenerator -i 1 -f 1"]).validate()
    with pytest.raises(ConfigError, match="streams"):
        ExperimentConfig(learners=[parse_learner_line("a vfdt")], streams=[]).validate()
    with pytest.raises(ConfigError, match="seeds"):
        small_config(tmp_path, seeds=0).validate()
    with pytest.raises(ConfigError, match="names must be unique"):
        small_config(
            tmp_path, learners=[parse_learner_line("a vfdt"), parse_learner_line("a vfdt")]
        ).validate()


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------

def test_preset_names_complete():
    assert set(PRESET_NAMES) == {
        "resplit-vfdt", "infogain-vfdt", "counters-vfdt", "combined-vfdt",
        "eviscerate-vfdt", "resplit-hat", "altvote-hat", "multialt-hat",
        "singleleaf-hat", "poisson-hat", "avg-infogain-hat", "root-replace-hat",
        "subtree-replace-hat", "both-replace-hat", "vfdt-flags-in-hat",
        "amnesia-figure",
    }


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("resplit-everything")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate_and_use_testbench_rows(tmp_path, name):
    cfg = preset(name)
    cfg.validate()
    assert len(cfg.learners) == 2
    allowed = set(TESTBENCH_ROWS) | {AMNESIA_STREAM}
    assert set(cfg.streams) <= allowed
    # a preset's lines copied into a config file give the same grid
    path = tmp_path / f"{name}.conf"
    path.write_text("\n".join(experiments._PRESETS[name]) + "\n")
    assert parse_config_file(str(path)) == cfg


def test_resplit_preset_isolates_the_flag():
    cfg = preset("resplit-vfdt")
    a, b = cfg.learners
    assert not a.config().allow_resplit
    assert b.config().allow_resplit
    assert cfg.streams == TESTBENCH_ROWS


def test_amnesia_preset_matches_figure_protocol():
    cfg = preset("amnesia-figure")
    a, b = cfg.learners
    assert not a.config().eidetic and b.config().eidetic
    assert cfg.streams == [AMNESIA_STREAM]
    flags = dict(parse_stream_spec(AMNESIA_STREAM).items)
    assert flags["b"] == 150_000 and flags["o"] == 1.0
    assert flags["n"] == 5 and flags["z"] == 5 and flags["v"] == 5
    assert cfg.seeds == 10 and cfg.n_instances == 300_000 and cfg.snapshot_every == 1000


def test_poisson_preset_toggles_weighting_only():
    cfg = preset("poisson-hat")
    a, b = cfg.learners
    assert a.config().voting_mode == "multiple_excluding_single_leaves"
    assert b.config().voting_mode == "multiple_excluding_single_leaves"
    assert not a.config().poisson_weighting and b.config().poisson_weighting


def test_altvote_rows_are_the_low_dimension_subset_plus_extremes():
    low = [r for r in ALTVOTE_ROWS if "-z 2" in r or "-z 3" in r]
    assert len(low) == 6
    assert any("STAGGER" in r for r in ALTVOTE_ROWS)
    assert sum(("-z 4 -n 4 -v 4" in r) or ("-z 5 -n 5 -v 5" in r) for r in ALTVOTE_ROWS) == 2


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_executes_end_to_end(tmp_path, name):
    cfg = preset(name)
    cfg.streams = cfg.streams[:2]
    cfg.n_instances = 200
    cfg.seeds = 1
    cfg.snapshot_every = 0
    cfg.output_dir = str(tmp_path / name)
    run_experiment(cfg)
    assert os.path.exists(os.path.join(cfg.output_dir, "results.csv"))


def test_hat_counter_mode_reaches_base_and_eval_timer_is_rejected():
    cfg = parse_learner_line("h hat counter_mode=node_time").config()
    assert cfg.counter_mode == "node_time"
    with pytest.raises(ConfigError, match="eval_timer"):
        parse_learner_line("h hat eval_timer=node_time")


def test_abrupt_rows_match_published_parametrizations():
    dims = [(flags["z"], flags["n"], flags["v"])
            for flags in (dict(parse_stream_spec(r).items) for r in ABRUPT_ROWS)]
    assert dims == [(2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (3, 3, 4),
                    (3, 3, 5), (4, 2, 2), (4, 4, 4), (5, 2, 2), (5, 5, 5)]


# --------------------------------------------------------------------------
# grid execution and outputs
# --------------------------------------------------------------------------

def test_run_experiment_writes_all_outputs(tmp_path):
    cfg = small_config(tmp_path)
    run_experiment(cfg)
    out = cfg.output_dir
    results = open(os.path.join(out, "results.csv")).read()
    header, *rows = results.strip().split("\n")
    assert header == "stream,learner,seed,instances,final_error,wall_seconds"
    assert len(rows) == len(SMALL_STREAMS) * 2 * 2  # streams x learners x seeds
    comparison = open(os.path.join(out, "comparison.csv")).read()
    assert comparison.startswith("stream,error_a,error_b,outcome")
    assert "p_value," in comparison
    md = open(os.path.join(out, "comparison.md")).read()
    assert "Unique Wins" in md
    for stream_dir in os.listdir(os.path.join(out, "series")):
        files = os.listdir(os.path.join(out, "series", stream_dir))
        assert sorted(files) == ["resplit.csv", "vfdt.csv"]
        series = open(os.path.join(out, "series", stream_dir, "vfdt.csv")).read()
        lines = series.strip().split("\n")
        assert lines[0] == "instance_index,mean_error"
        assert len(lines) == 1 + 800 // 200


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = small_config(tmp_path, output_dir=str(tmp_path / "a"))
    cfg2 = small_config(tmp_path, output_dir=str(tmp_path / "b"))
    run_experiment(cfg1)
    run_experiment(cfg2)
    for name in ("results.csv", "comparison.csv", "comparison.md"):
        a = open(os.path.join(cfg1.output_dir, name)).read()
        b = open(os.path.join(cfg2.output_dir, name)).read()
        # wall_seconds differ between runs; drop that column before comparing
        if name == "results.csv":
            a = "\n".join(",".join(line.split(",")[:-1]) for line in a.split("\n"))
            b = "\n".join(",".join(line.split(",")[:-1]) for line in b.split("\n"))
        assert a == b


def test_parallel_matches_serial(tmp_path):
    serial = small_config(tmp_path, output_dir=str(tmp_path / "serial"), parallelism=1)
    parallel = small_config(tmp_path, output_dir=str(tmp_path / "parallel"), parallelism=2)
    run_experiment(serial)
    run_experiment(parallel)
    strip = lambda text: "\n".join(",".join(l.split(",")[:-1]) for l in text.split("\n"))
    a = strip(open(os.path.join(serial.output_dir, "results.csv")).read())
    b = strip(open(os.path.join(parallel.output_dir, "results.csv")).read())
    assert a == b


def test_parallel_grid_starts_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # the pool forks all max_workers processes at its first submit, so a
    # pool wider than the grid would fork workers with no cell to run
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Records its width and maps in this process: starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = small_config(tmp_path, learners=[parse_learner_line("vfdt vfdt")],
                       streams=SMALL_STREAMS[:1], seeds=2)
    wide = experiments.run_grid(dataclasses.replace(cfg, parallelism=64))
    serial = experiments.run_grid(dataclasses.replace(cfg, parallelism=1))
    assert sizes == [2]
    outputs = lambda results: {key: (res.instances_processed, res.final_error, res.error_series)
                               for key, res in results.items()}
    assert outputs(wide) == outputs(serial)


# --------------------------------------------------------------------------
# command line surface
# --------------------------------------------------------------------------

def test_cli_runs_config_file(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "learner = base vfdt\n"
        "learner = resplit vfdt allow_resplit=true\n"
        f"stream = {SMALL_STREAMS[0]}\n"
        "instances = 400\n"
    )
    out = tmp_path / "results"
    code = main(["--config", str(conf), "--out", str(out), "--seeds", "1"])
    assert code == 0
    assert (out / "results.csv").exists()
    assert (out / "comparison.md").exists()


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("learner = only vfdt\n", "streams"),
        ("learner = a vfdt\nstream = STAGGERGenerator -i 1 -f 1\ninstances = 4e5\n", "instances"),
        # learner names become a CSV field and a file name under series/
        ("learner = a,b vfdt\nstream = STAGGERGenerator -i 1 -f 1\n", "'a,b'"),
        ("learner = ../../escaped vfdt\nstream = STAGGERGenerator -i 1 -f 1\n", "../../escaped"),
        # a repeated row would count twice in the comparison footer
        ("learner = a vfdt\nstream = STAGGERGenerator -i 2 -f 2\nstream = STAGGERGenerator -i 2 -f 2\n",
         "'STAGGERGenerator -i 2 -f 2' and 'STAGGERGenerator -i 2 -f 2'"),
        # rows that differ only past the 80-character series directory name
        ("learner = a vfdt\n"
         "stream = RecurrentConceptDriftStream -x 2000 -y 2000 -z 100 "
         "-s (SEAGenerator -f 1 -i 2) -d (SEAGenerator -f 3 -i 3)\n"
         "stream = RecurrentConceptDriftStream -x 2000 -y 2000 -z 100 "
         "-s (SEAGenerator -f 1 -i 2) -d (SEAGenerator -f 4 -i 3)\n",
         "(SEAGenerator -f 3 -i 3)' and 'RecurrentConceptDriftStream"),
        # a bad learner line names the line it is on
        ("learner = a vfdt\nlearner = b vfdt tau=abc\nstream = STAGGERGenerator -i 1 -f 1\n",
         "line 2: learner flags: tau='abc' is not a number"),
    ],
)
def test_cli_invalid_config_exits_2(tmp_path, capsys, body, fragment):
    conf = tmp_path / "bad.conf"
    conf.write_text(body)
    out = tmp_path / "out"
    assert main(["--config", str(conf), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("SEAGenerator -q 1", "unknown flag"),
        # rows that parse but cannot be built
        ("STAGGERGenerator -i 1 -f 7", "function must be 1..3"),
        ("HyperplaneGenerator -n 1.5", "outside [0, 1)"),
        ("HyperplaneGenerator -s 2", "outside [0, 1]"),
        ("HyperplaneGenerator -t nan", "not finite"),
        ("HyperplaneGenerator -t inf", "not finite"),
        ("AbruptDriftGenerator -d Gradual", "drift pattern"),
        ("RecurrentConceptDriftStream -x 100 -s (STAGGERGenerator -i 1)", "needs both"),
        # cell tables too large to allocate are rejected by their cell count
        ("AbruptDriftGenerator -n 20 -z 5 -v 2", "5**20 = 95367431640625 cells"),
        ("AbruptDriftGenerator -n 12 -z 5 -v 2", "5**12 = 244140625 cells"),
        # and so are hyperplane blocks, by their instances times attributes
        ("HyperplaneGenerator -a 1000000", "1000000 attributes make blocks of over 1048576"),
        ("HyperplaneGenerator -a 1025", "1025 attributes make blocks of over 1048576"),
    ],
)
def test_cli_bad_stream_spec_exits_2(tmp_path, capsys, monkeypatch, row, fragment):
    def no_table(*args):
        raise AssertionError("a cell table was allocated")

    monkeypatch.setattr(CellTable, "random", no_table)
    conf = tmp_path / "bad.conf"
    conf.write_text(f"learner = a vfdt\nstream = {row}\n")
    out = tmp_path / "out"
    assert main(["--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "unknown flag" in err or row in err
    assert not out.exists()


def test_cli_out_of_scope_generator_exits_3(tmp_path, capsys):
    conf = tmp_path / "led.conf"
    conf.write_text(
        "learner = a vfdt\nlearner = b vfdt allow_resplit=true\n"
        "stream = LEDGeneratorDrift -d 1 -i 2\ninstances = 100\n"
    )
    assert main(["--config", str(conf), "--out", str(tmp_path / "o")]) == 3
    assert "out of scope" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_missing_arguments_exits_2(capsys):
    assert main([]) == 2
    assert main(["--preset", "no-such-preset"]) == 2


def test_cli_unwritable_output_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    conf = tmp_path / "x.conf"
    conf.write_text(
        "learner = a vfdt\nstream = STAGGERGenerator -i 1 -f 1\ninstances = 50\n"
    )
    assert main(["--config", str(conf), "--out", str(blocker / "results")]) == 2


def test_cli_preset_smoke(tmp_path):
    # run a preset pair at a tiny scale through the real CLI path
    code = main([
        "--preset", "resplit-vfdt", "--out", str(tmp_path / "o"),
        "--instances", "300", "--seeds", "1", "--snapshot-every", "0",
    ])
    assert code == 0
    assert (tmp_path / "o" / "comparison.csv").exists()


def test_cli_rejects_config_and_preset_together(tmp_path, capsys):
    conf = tmp_path / "x.conf"
    conf.write_text("learner = a vfdt\nstream = STAGGERGenerator -i 1 -f 1\n")
    assert main(["--config", str(conf), "--preset", "resplit-vfdt"]) == 2
