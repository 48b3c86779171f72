"""The README's command block runs as written: every ``oddtown`` line exits 0
and its last output line matches the ``# -> ...`` expectation, where ``...``
stands for any run of tokens.  Its list of construction names is the parser's."""

import re
import shlex
from pathlib import Path

from oddtown.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("oddtown ")]


def test_readme_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for line in commands:
        command, _, expect = line.partition("# -> ")
        assert main(shlex.split(command)[1:]) == 0, line
        verdict = capsys.readouterr().out.splitlines()[-1]
        if expect:
            pattern = re.escape(expect.strip()).replace(r"\.\.\.", ".*") + "( .*)?"
            assert re.fullmatch(pattern, verdict), (line, verdict)


def test_readme_names_every_construction(construct_names):
    paragraph = README.read_text(encoding="utf-8").split("Construction names:", 1)[1]
    listed = re.findall(r"`([^`]+)`", paragraph.split("\n\n", 1)[0])
    assert listed == construct_names
