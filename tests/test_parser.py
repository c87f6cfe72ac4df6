import inspect

import pytest

from streamtrees.specparse import (
    GENERATORS,
    OutOfScopeError,
    ParseError,
    build_generator,
    parse_stream_spec,
)
from streamtrees.streams import (
    AbruptDriftGenerator,
    HyperplaneGenerator,
    RecurrentConceptDriftStream,
    SeaGenerator,
    StaggerGenerator,
)

from test_streams import take

# every distinct row string from the published testbench tables
TABLE_ROWS = [
    "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 -s (AgrawalGenerator -f 2 -i 2) -d (AgrawalGenerator -f 3 -i 3)",
    "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 -s (RandomTreeGenerator -r 1 -i 1) -d (RandomTreeGenerator -r 2 -i 2)",
    "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 -s (SEAGenerator -f 2 -i 2) -d (SEAGenerator -f 3 -i 3)",
    "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 -s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)",
    "HyperplaneGenerator -k 10 -t 0.0001 -i 2",
    "HyperplaneGenerator -k 10 -t 0.001 -i 2",
    "HyperplaneGenerator -k 10 -t 0.01 -i 2",
    "HyperplaneGenerator -k 5 -t 0.0001 -i 2",
    "HyperplaneGenerator -k 5 -t 0.001 -i 2",
    "HyperplaneGenerator -k 5 -t 0.01 -i 2",
    "LEDGeneratorDrift -d 1 -i 2",
    "LEDGeneratorDrift -d 3 -i 2",
    "LEDGeneratorDrift -d 5 -i 2",
    "LEDGeneratorDrift -d 7 -i 2",
    "RandomRBFGeneratorDrift -s 0.0001 -k 10 -i 2 -r 2",
    "RandomRBFGeneratorDrift -s 0.0001 -k 50 -i 2 -r 2",
    "RandomRBFGeneratorDrift -s 0.001 -k 10 -i 2 -r 2",
    "RandomRBFGeneratorDrift -s 0.001 -k 50 -i 2 -r 2",
    "WaveformGeneratorDrift -d 1 -i 2 -n",
    "AbruptDriftGenerator -c  -o 1.0 -z 2 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 3 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 3 -n 3 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 3 -n 3 -v 4 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 3 -n 3 -v 5 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 4 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 4 -n 4 -v 4 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 5 -n 2 -v 2 -r 2 -b 200000 -d Recurrent",
    "AbruptDriftGenerator -c  -o 1.0 -z 5 -n 5 -v 5 -r 2 -b 200000 -d Recurrent",
]


def test_abrupt_row_parses_to_expected_fields():
    spec = parse_stream_spec(
        "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 5 -r 2 -b 200000 -d Recurrent"
    )
    assert spec.generator_name == "AbruptDriftGenerator"
    assert spec.items == (
        ("c", True), ("o", 1.0), ("z", 3), ("n", 3), ("v", 5), ("r", 2), ("b", 200000),
        ("d", "Recurrent"),
    )
    gen = build_generator(spec)
    assert gen.schema.n_attributes == 3
    assert gen.schema.attributes[0].n_values == 3
    assert gen.schema.class_count == 5
    assert gen.magnitude == 1.0
    assert gen.drift_point == 200_000
    assert gen.recurrent


def test_nested_wrapper_row_parses_recursively():
    spec = parse_stream_spec(
        "RecurrentConceptDriftStream -x 200000 -y 200000 -z 100 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    assert spec.generator_name == "RecurrentConceptDriftStream"
    flags = dict(spec.items)
    subs = [flags["s"], flags["d"]]
    assert [s.generator_name for s in subs] == ["STAGGERGenerator", "STAGGERGenerator"]
    assert [dict(s.items)["f"] for s in subs] == [2, 3]
    gen = build_generator(spec)
    assert isinstance(gen, RecurrentConceptDriftStream)
    assert isinstance(gen.base, StaggerGenerator) and gen.base.function == 2
    assert gen.drift.function == 3
    assert (gen.position, gen.period, gen.width) == (200_000, 200_000, 100)


def test_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_stream_spec("")
    with pytest.raises(ParseError):
        parse_stream_spec("   ")


@pytest.mark.parametrize(
    "text,fragment,offset",
    [
        ("NopeGenerator -i 1", "unknown generator", 0),
        ("SEAGenerator -q 1", "unknown flag", 13),
        ("SEAGenerator -f", "missing its argument", 13),
        ("SEAGenerator -f x", "expects an integer", 16),
        ("RecurrentConceptDriftStream -s (SEAGenerator -f 1", "unbalanced", 31),
        ("SEAGenerator -f 1)", "unbalanced", 17),
        ("RecurrentConceptDriftStream -s SEAGenerator", "parenthesized", 28),
        ("SEAGenerator -f 1 -f 2", "given twice", 18),
        ("HyperplaneGenerator -p 0.1", "unknown flag", 20),  # -p is not a MOA flag
    ],
)
def test_parse_errors_carry_offsets(text, fragment, offset):
    with pytest.raises(ParseError) as exc_info:
        parse_stream_spec(text)
    assert fragment in str(exc_info.value)
    assert exc_info.value.offset == offset


@pytest.mark.parametrize("row", TABLE_ROWS)
def test_every_table_row_parses(row):
    spec = parse_stream_spec(row)
    assert spec.generator_name in GENERATORS


@pytest.mark.parametrize("row", [r for r in TABLE_ROWS if GENERATORS[parse_stream_spec(r).generator_name].in_scope])
def test_round_trip_for_in_scope_rows(row):
    spec = parse_stream_spec(row)
    again = parse_stream_spec(spec.canonical())
    assert again == spec
    assert parse_stream_spec(again.canonical()) == again


@pytest.mark.parametrize(
    "row",
    ["LEDGeneratorDrift -d 1 -i 2", "WaveformGeneratorDrift -d 1 -i 2 -n",
     "RandomRBFGeneratorDrift -s 0.0001 -k 10 -i 2 -r 2",
     "AgrawalGenerator -f 2 -i 2", "RandomTreeGenerator -r 1 -i 1"],
)
def test_out_of_scope_generators_parse_but_do_not_build(row):
    spec = parse_stream_spec(row)
    with pytest.raises(OutOfScopeError, match="out of scope"):
        build_generator(spec)


def test_wrapper_with_out_of_scope_substream_fails_at_build():
    spec = parse_stream_spec(TABLE_ROWS[0])  # Agrawal sub-streams
    with pytest.raises(OutOfScopeError):
        build_generator(spec)


def test_builders_cover_all_in_scope_generators():
    assert isinstance(build_generator(parse_stream_spec("STAGGERGenerator -i 2 -f 2")), StaggerGenerator)
    sea = build_generator(parse_stream_spec("SEAGenerator -f 3 -i 4 -n 0.1"))
    assert isinstance(sea, SeaGenerator) and sea.noise == 0.1 and sea.function == 3
    hyp = build_generator(parse_stream_spec("HyperplaneGenerator -k 5 -t 0.001 -i 2 -a 8"))
    assert isinstance(hyp, HyperplaneGenerator)
    assert hyp.n_attributes == 8 and hyp.drift_attributes == 5 and hyp.magnitude == 0.001
    abrupt = build_generator(parse_stream_spec("AbruptDriftGenerator -o 0.5 -z 2 -n 2 -v 2 -b 1000"))
    assert isinstance(abrupt, AbruptDriftGenerator) and not abrupt.recurrent


@pytest.mark.parametrize("name", [n for n, info in GENERATORS.items() if info.in_scope])
def test_generator_flags_name_constructor_parameters(name):
    info = GENERATORS[name]
    params = inspect.signature(info.cls).parameters
    for _, keyword in info.flags.values():
        assert keyword is None or keyword in params, (name, keyword)


def test_recurrent_wrapper_defaults_come_from_the_constructor():
    gen = RecurrentConceptDriftStream(StaggerGenerator(seed=2), StaggerGenerator(2, seed=3))
    assert (gen.position, gen.period, gen.width) == (200_000, 200_000, 100)
    built = build_generator(parse_stream_spec(
        "RecurrentConceptDriftStream -s (STAGGERGenerator -i 2) -d (STAGGERGenerator -i 3 -f 2)"))
    assert take(built, 2000) == take(gen, 2000)
    with pytest.raises(ValueError, match="needs both -s and -d"):
        build_generator(parse_stream_spec("RecurrentConceptDriftStream -s (STAGGERGenerator)"))


def test_unsupported_drift_pattern_rejected():
    with pytest.raises(ValueError, match="drift pattern"):
        build_generator(parse_stream_spec("AbruptDriftGenerator -d Gradual"))


def test_reseeded_variants_shift_every_seed_flag():
    spec = parse_stream_spec(
        "RecurrentConceptDriftStream -x 100 -y 100 -z 10 "
        "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
    )
    shifted = spec.reseeded(2)
    assert shifted.canonical() == (
        "RecurrentConceptDriftStream -x 100 -y 100 -z 10 "
        "-s (STAGGERGenerator -i 2002 -f 2) -d (STAGGERGenerator -i 2003 -f 3) -r 2001"
    )
    # identical variants give identical specs; different variants differ
    assert spec.reseeded(1) == spec.reseeded(1)
    assert spec.reseeded(1) != shifted


@pytest.mark.parametrize(
    "row",
    [
        "STAGGERGenerator -f 2",
        "SEAGenerator -f 3",
        "HyperplaneGenerator -k 5",
        "AbruptDriftGenerator -z 2 -n 2 -v 2 -b 1000",
        "RecurrentConceptDriftStream -x 300 -y 300 -s (STAGGERGenerator) -d (STAGGERGenerator -f 2)",
    ],
)
def test_variant_zero_of_an_unseeded_spec_is_the_unseeded_build(row):
    spec = parse_stream_spec(row)
    info = GENERATORS[spec.generator_name]
    default = inspect.signature(info.cls).parameters["seed"].default
    assert dict(spec.reseeded(0).items)[info.seed_flags[0]] == default
    assert take(build_generator(spec.reseeded(0)), 1000) == take(build_generator(spec), 1000)


def test_reseeded_streams_differ_but_are_deterministic():
    spec = parse_stream_spec("STAGGERGenerator -i 2 -f 2")
    a0 = take(build_generator(spec.reseeded(0)), 500)
    a0_again = take(build_generator(spec.reseeded(0)), 500)
    a1 = take(build_generator(spec.reseeded(1)), 500)
    assert a0 == a0_again
    assert a0 != a1


def test_canonical_preserves_first_appearance_order():
    text = "AbruptDriftGenerator -b 10 -o 0.25 -c -z 2 -n 2 -v 2"
    spec = parse_stream_spec(text)
    assert spec.canonical() == "AbruptDriftGenerator -b 10 -o 0.25 -c -z 2 -n 2 -v 2"
