"""The README's examples run: its Python library tour, and each of its
`dunklsym ...` command lines through cli.main, so an API change that leaves
the README behind fails here."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from dunklsym import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def section(title):
    """Text of the README section under '## title', up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(text, lang=""):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


COMMANDS = [shlex.split(line)[1:] for block in code_blocks(section("Command line"))
            for line in block.splitlines() if line.startswith("dunklsym ")]


def test_library_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tour,) = code_blocks(section("Library tour"), "python")
    exec(compile(tour, "README.md", "exec"), {})


def test_command_lines_cover_every_subcommand():
    assert sorted(argv[0] for argv in COMMANDS) == sorted(cli._HANDLERS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_line_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --out paths land in the tmp dir
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    assert out.getvalue() or list(tmp_path.iterdir())
