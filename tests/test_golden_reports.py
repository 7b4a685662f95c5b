"""Golden gate: every repo job's canonical report is byte-identical to the
file under tests/golden/ captured before any change to the numerics."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from growthtight import (
    Alphabet,
    automata,
    avoid_sweep,
    cli,
    lemma31_sweep,
    parse_word,
    perron_roots,
    random_axis_family,
    shorten_sweep,
)
from growthtight.reports import canonical_json

ROOT = Path(__file__).resolve().parent.parent
JOBS = sorted((ROOT / "jobs").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_job_has_a_golden_and_vice_versa():
    assert [p.name for p in JOBS] == sorted(p.name for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("job", JOBS, ids=[p.stem for p in JOBS])
def test_report_is_byte_identical(job, tmp_path):
    out = tmp_path / job.name
    assert cli.main(["run", str(job), "--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / job.name).read_bytes()


@pytest.mark.parametrize("job", JOBS, ids=[p.stem for p in JOBS])
def test_embedded_job_replays_byte_identical(job, tmp_path):
    # the resolved job a report embeds is itself a valid job document
    golden = (GOLDEN / job.name).read_bytes()
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(json.loads(golden)["job"]))
    out = tmp_path / job.name
    assert cli.main(["run", str(replay), "--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == golden


def test_avoid_sweep_in_batches_of_7_is_byte_identical(tmp_path, monkeypatch):
    # the 160 languages of the sweep go to perron_roots 7 at a time: 22 full
    # batches and a short last one, with the report of the default batching
    sizes = []

    def recording(languages, *args):
        sizes.append(len(languages))
        return perron_roots(languages, *args)

    monkeypatch.setattr(automata, "SWEEP_BATCH", 7)
    monkeypatch.setattr(automata, "perron_roots", recording)
    out = tmp_path / "avoid_sweep_len4.json"
    assert cli.main(["run", str(ROOT / "jobs" / out.name), "--quiet", "--out", str(out)]) == 0
    assert sizes == [7] * 22 + [6]
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


RANK2 = Alphabet(2)


def golden_results(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_bytes())["results"]


def as_written(results: dict) -> dict:
    """results as a report writes them, read back."""
    return json.loads(canonical_json(results))


@pytest.mark.parametrize("name,h", [("shorten_sweep_a", "a"), ("shorten_sweep_ab", "a b")])
def test_shorten_sweep_is_the_golden_block(name, h):
    sweep = shorten_sweep(RANK2, parse_word(RANK2, h), 10, cutoff=14)
    assert as_written(sweep) == golden_results(name)["shorten_sweep"]


@pytest.mark.parametrize("name,h", [("axioms_lemma31_a", "a"), ("axioms_lemma31_ab", "a b")])
def test_lemma31_sweep_is_the_golden_block(name, h):
    sweep = lemma31_sweep(RANK2, parse_word(RANK2, h), 4, 8, cutoff=14)
    assert as_written(sweep) == golden_results(name)


def test_random_axis_family_is_the_golden_block():
    family = random_axis_family(
        RANK2, candidate_xi=5, seed=20260814, triples=200, core_max=3, conjugator_max=1
    )
    assert as_written(family) == golden_results("axioms_random_triples")


def test_avoid_sweep_is_the_golden_block():
    sweep = avoid_sweep(RANK2, 4, 1e-6, 1e-9, cutoff=14)
    assert as_written(sweep) == golden_results("avoid_sweep_len4")
