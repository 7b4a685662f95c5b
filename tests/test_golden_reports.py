"""Golden gate: every repo job's canonical report is byte-identical to the
file under tests/golden/ captured before any change to the numerics."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from growthtight import cli, perron_roots

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

    def recording(automata, *args):
        sizes.append(len(automata))
        return perron_roots(automata, *args)

    monkeypatch.setattr(cli, "SWEEP_BATCH", 7)
    monkeypatch.setattr(cli, "perron_roots", recording)
    out = tmp_path / "avoid_sweep_len4.json"
    assert cli.main(["run", str(ROOT / "jobs" / out.name), "--quiet", "--out", str(out)]) == 0
    assert sizes == [7] * 22 + [6]
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
