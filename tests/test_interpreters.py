"""The pinned `two_communities` digests under every other CPython 3.10+ on
`PATH`. `pyproject.toml` supports Python 3.10 and later, and the determinism
contract holds on each of them, not only on the interpreter that runs the
suite: for example, `sum()` of floats is compensated from 3.12 on, so no
output may be computed with it. An interpreter whose `--version` fails, such
as a version-manager shim with no version selected, is skipped."""

import os
import shutil
import subprocess
import sys

import pytest

from conftest import asset_path
from dbesim import engine
from test_golden import GOLDEN, digests_of

RUN = "import sys; from dbesim import cli; sys.exit(cli.main(sys.argv[1:]))"


@pytest.mark.parametrize("name", [f"python3.{minor}" for minor in range(10, 15)])
def test_golden_two_communities_under_other_interpreters(tmp_path, name):
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"no {name} on PATH")
    version = subprocess.run([exe, "--version"], capture_output=True, text=True, timeout=60)
    if version.returncode != 0:
        pytest.skip(f"{name} --version failed")
    if version.stdout.startswith("Python %d.%d." % sys.version_info[:2]):
        pytest.skip(f"{name} is the interpreter running the suite")
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    done = subprocess.run([exe, "-c", RUN, "run", "--config", asset_path("two_communities.json"),
                           "--out", str(out), "--quiet"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert digests_of(out) == GOLDEN["two_communities"], version.stdout
