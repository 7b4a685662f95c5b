"""Golden gate: every repo job's canonical report is byte-identical to the
file under tests/golden/ captured before any change to the numerics."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from growthtight import cli

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
