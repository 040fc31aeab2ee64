"""The one reproduction path: the artifact table and ``reproduce``."""

import dataclasses
import io
import re
from pathlib import Path

import pytest

from repro.exp import reproduce as reproduce_module
from repro.exp.config import SMALL, Scale
from repro.exp.reproduce import ARTIFACTS, reproduce

ROOT = Path(__file__).resolve().parents[1]

#: A deliberately tiny scale so the full report runs in seconds.
MICRO = Scale(
    name="micro", num_tasks=40, capacity_default=300,
    capacities=(200, 300), workers=(2,), table3_workers=(2,),
    sites=(2, 3), file_sizes_mb=(5.0, 25.0), topology_seeds=(0,),
)


def run(scale=MICRO, **kwargs):
    stream = io.StringIO()
    status = reproduce(scale, stream=stream, **kwargs)
    return status, stream.getvalue()


def verdicts(text):
    """``{claim id: "PASS" | "FAIL"}`` from a report."""
    return dict((claim, verdict) for verdict, claim in re.findall(
        r"^(PASS|FAIL) ([a-z0-9-]+):", text, re.MULTILINE))


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    messages = []
    out = tmp_path_factory.mktemp("artifacts")
    status, text = run(out=str(out), progress=messages.append)
    return text, messages, status, out


def test_the_table_is_the_archive():
    """One row per archived paper artifact; the serve bench's table is
    the only other ``.txt`` there."""
    stems = {path.stem for path
             in (ROOT / "benchmarks" / "results").glob("*.txt")}
    assert set(ARTIFACTS) == stems - {"serve_throughput"}
    assert len(ARTIFACTS) == 17
    ids = [claim.id for artifact in ARTIFACTS.values()
           for claim in artifact.claims]
    assert len(ids) == len(set(ids))
    assert all(artifact.claims for artifact in ARTIFACTS.values())


def test_report_contains_every_artifact(report):
    text, _messages, _status, _out = report
    for name in ARTIFACTS:
        assert f"## {name} - " in text, f"missing section {name}"
    assert set(verdicts(text)) == {claim.id
                                   for artifact in ARTIFACTS.values()
                                   for claim in artifact.claims}


def test_out_writes_each_artifact_as_rendered(report):
    text, _messages, _status, out = report
    assert {path.stem for path in out.iterdir()} == set(ARTIFACTS)
    for name in ARTIFACTS:
        written = (out / f"{name}.txt").read_text()
        assert written.endswith("\n")
        assert f"```\n{written}```" in text


def test_report_mentions_algorithms(report):
    text, _messages, _status, _out = report
    for name in ("storage-affinity", "rest.2", "combined.2"):
        assert name in text


def test_progress_messages_emitted(report):
    _text, messages, _status, _out = report
    assert set(ARTIFACTS) <= set(messages)
    assert any("capacity" in m for m in messages)


def test_report_is_markdown(report):
    text, _messages, _status, _out = report
    assert text.startswith("# Reproduction report")
    assert text.count("```") % 2 == 0  # balanced code fences


def test_status_follows_the_claims(report):
    text, _messages, status, _out = report
    assert status == (1 if "FAIL" in verdicts(text).values() else 0)
    assert text.rstrip().endswith("claims pass")


def test_only_selects_artifacts():
    status, text = run(only=["table2_fig3_workload"])
    assert status == 0
    assert "## table2_fig3_workload - " in text
    assert "Figure 4" not in text
    assert verdicts(text) == {"table2-task-count": "PASS"}
    with pytest.raises(KeyError, match="fig99"):
        run(only=["fig99"])


def test_a_doctored_cell_fails_its_claim(monkeypatch):
    """A claim that cannot fail checks nothing: make storage affinity
    the fastest at the smallest capacity and the claim that the
    randomized variants beat it there must read FAIL, with status 1.
    At SMALL, where every fig4 claim holds undoctored (CI's scale)."""
    only = ["fig4_capacity_makespan"]
    status, text = run(SMALL, only=only)
    assert verdicts(text)["fig4-randomized-beat-sa"] == "PASS"
    assert status == 0

    real_run_sweep = reproduce_module.run_sweep

    def doctored(*args, **kwargs):
        sweep = real_run_sweep(*args, **kwargs)
        key = ("storage-affinity", sweep.values[0])
        fastest = min(cell.makespan_minutes
                      for cell in sweep.cells.values())
        sweep.cells[key] = dataclasses.replace(
            sweep.cells[key], makespan_minutes=fastest / 2)
        return sweep

    monkeypatch.setattr(reproduce_module, "run_sweep", doctored)
    status, text = run(SMALL, only=only)
    assert verdicts(text)["fig4-randomized-beat-sa"] == "FAIL"
    assert status == 1


def test_every_claim_is_quoted_in_experiments_md():
    experiments = " ".join((ROOT / "EXPERIMENTS.md").read_text().split())
    for artifact in ARTIFACTS.values():
        assert f"`{artifact.name}`" in experiments, artifact.name
        for claim in artifact.claims:
            assert f"`{claim.id}`: {claim.text}" in experiments, claim.id
