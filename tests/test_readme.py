"""The README's CLI session and library example run as written."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import padcrypt

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")
def test_readme_cli_session_runs(tmp_path):
    session = code_blocks("sh")[1]  # the first block installs and tests
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHON=sys.executable)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = 'padcrypt() { "$PYTHON" -m padcrypt.cli "$@"; }\n' + session
    proc = subprocess.run(["bash", "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "msg.out").read_bytes() == (tmp_path / "msg").read_bytes() == b"no"
    assert "PERFECT" in proc.stdout
    assert "LEAKY" in proc.stdout


def test_readme_library_example_runs():
    [example] = code_blocks("python")
    exec(compile(example, str(README), "exec"), {})
