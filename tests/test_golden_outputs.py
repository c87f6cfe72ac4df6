"""Byte-level goldens of every preset's outputs on three short drifting rows.

Each preset's two learners run through ``run_experiment`` on a reduced grid;
the digest covers results.csv without its wall_seconds column, both
comparison files and the series files. One more digest covers an adaptive
tree at an alternate depth cap of 10, where alternates sprout alternates
of their own, voting over all of them. Nine more cover eidetic replay
buffers: three eidetic learners, weighted adaptive-tree entries among them,
on two numeric rows and a nominal one. A refactor that claims identical
outputs must leave every digest unchanged. To print the current digests:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from streamtrees.evaluate import prequential_run
from streamtrees.experiments import PRESET_NAMES, parse_learner_line, preset, run_experiment
from streamtrees.hat import VOTE_MULTI, HatConfig, HoeffdingAdaptiveTreeClassifier
from streamtrees.specparse import build_stream

GOLDEN_ROWS = [
    "RecurrentConceptDriftStream -x 5000 -y 5000 -z 100 "
    "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)",
    "HyperplaneGenerator -k 10 -t 0.01 -i 2",
    "AbruptDriftGenerator -c -o 1.0 -z 3 -n 3 -v 3 -r 2 -b 5000 -d Recurrent",
]

GOLDEN_SHA256 = {
    "altvote-hat": "837e99ea750e7f1fc74809251a06dd359590c4ebebf21f0862a2719babc7cfd3",
    "amnesia-figure": "85d7d2fde8bbad12083b94146ddbf969a2e42607fc164339e2a2b972eb4df3d0",
    "avg-infogain-hat": "c46b163eb83baadd3aa565470f9d9b1783e5ed1c1c80e9e1c87a276c484e2d63",
    "both-replace-hat": "cabd3bb23fc6b7b87375b37ac5315fe2c2da5384052646858e2a07e71aaf8f18",
    "combined-vfdt": "67e39dedadc513c26f0f6e8e126031ff085b4807bf363fb1c5369bdcb3645d73",
    "counters-vfdt": "682c2a4310b1b8154094baaca4266082c7c702d57065a5b9cbf8e04a267f5405",
    "eviscerate-vfdt": "2f0467dade72a388e175f7de8d35485ba941048f6c54e4ca95cb3e307e158ded",
    "infogain-vfdt": "c0d1d15e8814d784cfdd0c46b31aae700ba4f054a0d29b7daebf4562f8545c99",
    "multialt-hat": "e8bd2102bab056f1875d0e75c46c723bc473a54de92472087edcb90c6c546c93",
    "poisson-hat": "ea420fd7eb080ea95e0698e50acfe42f18b5036acbd9f929e1e157b1b994df08",
    "resplit-hat": "47fb0eeb904cce4e9721d00086d5505e2f55bdd815b527ffb6e25fe857808038",
    "resplit-vfdt": "ce0d0149e940a98ae5491379be18143854d8393757f952479b6caae09378c719",
    "root-replace-hat": "716dac6e363da55e930aad8f94c72851d26ca2f94986db0f365477f282770344",
    "singleleaf-hat": "48e90f756494e3d249b133db9a1e245af14f2f09c3670cc0ca9b5dff557320f5",
    "subtree-replace-hat": "c75fb7c2e1818b49c81f9dc9324995e52bcdcc1d139650f05fbb9f0cb6e3a3ef",
    "vfdt-flags-in-hat": "09cb6716c0df68ff62caeed53df6e7ce0eff082c54ed6c8af94d9d88be7ce9b7",
}

NESTED_ROW = (
    "RecurrentConceptDriftStream -x 25000 -y 25000 -z 100 "
    "-s (STAGGERGenerator -i 2 -f 2) -d (STAGGERGenerator -i 3 -f 3)"
)
NESTED_INSTANCES = 60_000
NESTED_SHA256 = "90269480100af01ac9b7aee65873a131342875f681b1bdc9a11e1e055befe91b"


EIDETIC_ROWS = [
    "SEAGenerator -f 2 -i 2",
    "HyperplaneGenerator -k 2 -t 0.001 -i 3",
    GOLDEN_ROWS[2],
]
EIDETIC_LEARNERS = [
    "vfdt-eidetic-resplit vfdt eidetic=true used_attribute_policy=resplit",
    "hat-eidetic hat eidetic=true",
    "hat-eidetic-poisson-vote hat eidetic=true poisson_weighting=true "
    "voting_mode=multiple_alternates alternate_depth_cap=10",
]
EIDETIC_INSTANCES = 30_000
EIDETIC_SHA256 = {
    ("vfdt-eidetic-resplit", "SEAGenerator"): "4335dc3d599b8665cfda0a7b6167c2f6df37fcb8663e5878b928d92dce8f75bb",
    ("vfdt-eidetic-resplit", "HyperplaneGenerator"): "de1be529b151f5cbe72d5faf78c47b576fc4830a0a7e8e25fa633399561ec8eb",
    ("vfdt-eidetic-resplit", "AbruptDriftGenerator"): "5e60d3949b80c9b5a2cb7f23e382cd629ac20ba1e1dba93841a81c491fe4ffc1",
    ("hat-eidetic", "SEAGenerator"): "b8ab5c670bf99bbdd2fe673c040a62e5d54e2c59f620be62ea427930251c9a10",
    ("hat-eidetic", "HyperplaneGenerator"): "564217a772d746c1374b7faf4deb932c35d446aded1cb4bdb9a897e314f07f93",
    ("hat-eidetic", "AbruptDriftGenerator"): "9d1f3cb958a4d4923bb66b5c83c86c80078ede2c5c0447452ee8004d27b9b194",
    ("hat-eidetic-poisson-vote", "SEAGenerator"): "56b381b84173edc8d1337750b4f9c00b73ddbd829147b8133497d244128178d8",
    ("hat-eidetic-poisson-vote", "HyperplaneGenerator"): "778cabd2f3bc6fbfe45716fe756509c90d6d043ac91d2b8de8430f93b89d9364",
    ("hat-eidetic-poisson-vote", "AbruptDriftGenerator"): "557ac6ac2d155182cc70003965db6ebe603f1bd22fa1b73614bd366aa6d5df8b",
}


def eidetic_digest(learner_line: str, row: str) -> str:
    """Final dump, final error and error series of one eidetic cell."""
    stream = build_stream(row)
    learner = parse_learner_line(learner_line).build(stream.schema)
    result = prequential_run(learner, stream, EIDETIC_INSTANCES, snapshot_every=1000)
    h = hashlib.sha256(learner.dump().encode())
    h.update(repr(result.final_error).encode())
    h.update(repr(result.error_series).encode())
    return h.hexdigest()


def nested_alternates_digest() -> str:
    """Predicted labels and final dump of a voting adaptive tree, nesting on."""
    stream = build_stream(NESTED_ROW)
    config = HatConfig(voting_mode=VOTE_MULTI, alternate_depth_cap=10)
    hat = HoeffdingAdaptiveTreeClassifier(stream.schema, config)
    labels = bytearray()
    for _ in range(NESTED_INSTANCES):
        inst = stream.next_instance()
        labels.append(hat.predict_label(inst))
        hat.train(inst)
    h = hashlib.sha256(bytes(labels))
    h.update(hat.dump().encode())
    return h.hexdigest()


def preset_digest(name: str, out_dir: Path) -> str:
    config = dataclasses.replace(
        preset(name),
        streams=list(GOLDEN_ROWS),
        n_instances=15_000,
        seeds=1,
        snapshot_every=1000,
        parallelism=1,
        output_dir=str(out_dir),
    )
    run_experiment(config)
    h = hashlib.sha256()
    for line in (out_dir / "results.csv").read_text(encoding="utf-8").splitlines():
        h.update(line.rsplit(",", 1)[0].encode() + b"\n")
    for name in ("comparison.csv", "comparison.md"):
        h.update((out_dir / name).read_bytes())
    for path in sorted((out_dir / "series").rglob("*.csv")):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_outputs_match_golden(tmp_path, name):
    assert preset_digest(name, tmp_path) == GOLDEN_SHA256[name]


def test_nested_alternates_match_golden():
    assert nested_alternates_digest() == NESTED_SHA256


@pytest.mark.parametrize("row", EIDETIC_ROWS)
@pytest.mark.parametrize("learner_line", EIDETIC_LEARNERS)
def test_eidetic_outputs_match_golden(learner_line, row):
    name = learner_line.split()[0]
    assert eidetic_digest(learner_line, row) == EIDETIC_SHA256[name, row.split()[0]]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for preset_name in PRESET_NAMES:
            digest = preset_digest(preset_name, Path(tmp) / preset_name)
            print(f'    "{preset_name}": "{digest}",')
    print(f'NESTED_SHA256 = "{nested_alternates_digest()}"')
    for learner_line in EIDETIC_LEARNERS:
        for row in EIDETIC_ROWS:
            key = f'("{learner_line.split()[0]}", "{row.split()[0]}")'
            print(f'    {key}: "{eidetic_digest(learner_line, row)}",')
