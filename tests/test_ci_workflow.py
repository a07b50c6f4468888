"""The CI workflow stays in step with the tree it drives.

``.github/workflows/ci.yml`` is only ever executed by GitHub, so a
renamed test file or a dropped bench flag would otherwise surface as a
red build after the merge.  These checks parse it locally instead.
"""

import pathlib
import re

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def _scripts(workflow):
    """Every shell script in the workflow: step ``run:`` bodies plus the
    smoke matrix's per-entry ``run`` strings."""
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step["run"]
        for entry in job.get("strategy", {}).get("matrix", {}).get(
                "include", []):
            yield entry["run"]


def test_workflow_parses_into_the_expected_jobs(workflow):
    assert set(workflow["jobs"]) == {
        "tests", "coverage", "smoke", "perf-harness", "lint", "docs-links"}


def test_smoke_is_one_matrix_over_the_subsystems(workflow):
    smoke = workflow["jobs"]["smoke"]
    entries = smoke["strategy"]["matrix"]["include"]
    names = [e["name"] for e in entries]
    assert names == ["mp", "serve", "serve-chaos", "shm", "structs",
                     "autopilot", "tune", "lang", "obs", "faults"]
    for entry in entries:
        assert set(entry) <= {"name", "pip", "run", "artifact"}
        assert {"name", "pip", "run"} <= set(entry)
    # one shared step list, parametrised only through the matrix
    runs = [step["run"] for step in smoke["steps"] if "run" in step]
    assert runs == ["python -m pip install ${{ matrix.pip }}",
                    "${{ matrix.run }}"]
    # the serve suite (S1 + S2) runs once, not once per serve job
    bench_lines = [line for script in _scripts(workflow)
                   for line in script.splitlines()
                   if "repro.bench" in line and not line.strip().startswith("#")]
    assert sum("--serve" in line for line in bench_lines) == 1


def test_every_bench_invocation_parses(workflow):
    from repro.bench.__main__ import build_parser

    parser = build_parser()
    seen = 0
    for script in _scripts(workflow):
        joined = script.replace("\\\n", " ")
        for argv in re.findall(r"python -m repro\.bench\b([^\n]*)", joined):
            parser.parse_args(argv.split())   # SystemExit(2) on a bad flag
            seen += 1
    assert seen == 6      # mp, serve, shm, structs, autopilot, tune


def test_every_mentioned_path_exists(workflow):
    text = "\n".join(_scripts(workflow))
    paths = set(re.findall(r"\b(?:tests|examples|tools|benchmarks)/[\w./-]+",
                           text))
    assert "tests/test_serve_soak.py" in paths
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert not missing, missing
