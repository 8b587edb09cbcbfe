"""The README's examples: the library quickstart runs, the command-line
block names exactly the subcommands of the parser, and the size bounds it
states are the library's."""

import argparse
import sys
from pathlib import Path

from coamoeba import cli
from coamoeba.cycles import MAX_TRANSLATES
from coamoeba.polynomial import MAX_EXACT_BITS

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_blocks() -> list[tuple[str, str]]:
    """(info string, text) of each fenced block, in order."""
    blocks, info, lines = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            if info is not None:
                lines.append(line)
        elif info is None:
            info, lines = line[3:].strip(), []
        else:
            blocks.append((info, "\n".join(lines)))
            info = None
    return blocks


def test_readme_quickstart_runs():
    (code,) = [text for info, text in _fenced_blocks() if info == "python"]
    exec(compile(code, str(README), "exec"), {})


def test_readme_cli_block_names_every_subcommand():
    (block,) = [
        text for info, text in _fenced_blocks() if not info and "coamoeba gale" in text
    ]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("coamoeba ")}
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == set(subparsers.choices)


def test_readme_states_the_size_bounds():
    text = README.read_text(encoding="utf-8")
    assert f"`MAX_EXACT_BITS` = {MAX_EXACT_BITS} bits" in text
    assert f"`MAX_TRANSLATES` = {MAX_TRANSLATES}" in text
    assert f"`|x| <= {sys.float_info.max:.4g}`" in text  # as the float-range refusal names it
