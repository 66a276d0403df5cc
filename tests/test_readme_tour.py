"""Every command of the README's CLI quick tour parses, so a flag that is
removed or renamed cannot stay in the README.  Only the parser runs: no file
is read or written."""

import re
import shlex
from pathlib import Path

import pytest

from modrec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_commands() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI quick tour\n\n```\n(.*?)^```", text, flags=re.S | re.M)
    assert block, "README has no CLI quick tour block"
    joined = re.sub(r"\\\n\s*", " ", block.group(1))
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("modrec ")]


TOUR = _tour_commands()


def test_tour_is_not_empty():
    assert TOUR


@pytest.mark.parametrize("line", TOUR)
def test_tour_command_parses(line):
    argv = shlex.split(line)[1:]
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]
