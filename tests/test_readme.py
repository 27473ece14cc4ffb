"""The README's library tour and scenario example run as written."""

import json
import re
import shlex
from pathlib import Path

from thetamu import ITTVerdict, ScenarioConfig, Verdict, run_scenario
from thetamu.cli import main as cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language, after):
    """The first fenced ``language`` block after the heading ``after``."""
    text = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_library_tour_runs_as_written():
    scope = {}
    exec(compile(_block("python", "## Library tour"), "README.md", "exec"), scope)
    pav = scope["pav"]
    assert (pav.divisors, pav.degree, pav.h0(2), pav.matrix.shape) == ((3, 3), 9, 36, (2, 2))
    assert scope["v"].verdict is Verdict.SURJECTIVE and scope["v"].rank == 36
    assert scope["itt"] is ITTVerdict.HOLDS
    assert scope["basis"].dim == 36
    assert scope["basis"].eval_matrix(scope["np"].zeros((1, 2))).shape == (36, 1)
    assert scope["mu"].shape == (36, 81)
    assert scope["np"].linalg.matrix_rank(scope["mu"]) == 36


def test_scenario_example_runs_as_written():
    config = ScenarioConfig.from_dict(json.loads(_block("json", "## CLI")))
    report = run_scenario(config)
    assert report.exit_code == 0
    assert report.payload["surjectivity"]["verdict"] == "Surjective"
    assert report.payload["surjectivity"]["rank"] == 36
    assert report.payload["itt"]["verdict"] == "Holds"


def test_cli_lines_run_as_written():
    # every command of the CLI block but the usage line with [options]
    lines = [line.split("#")[0] for line in _block("sh", "## CLI").splitlines()
             if line.startswith("thetamu ") and "[" not in line]
    assert len(lines) == 3
    for line in lines:
        assert cli_main(shlex.split(line)[1:]) == 0, line
