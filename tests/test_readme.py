import re
import shlex
from pathlib import Path

from multilin.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines():
    """The ``multilin ...`` lines of the README's CLI code block, in order."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("multilin ")]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # the files the examples write (T.json, H.json) are read by later lines
    monkeypatch.chdir(tmp_path)
    lines = _cli_lines()
    assert lines
    for argv in lines:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
