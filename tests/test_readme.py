"""The README's library-use snippet runs as written, and its command
usage blocks name the flags the CLI takes."""
import argparse
import re
from pathlib import Path

import pytest

from nulog.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_parses_lines():
    lines = [f"node {n} sent {k} packets" for n in range(4) for k in (3, 9)]
    lines += [f"disk {n} is full" for n in range(4)]
    namespace = {"lines": lines}
    exec(library_snippet(), namespace)
    parsed, templates = namespace["parsed"], namespace["templates"]
    assert len(parsed) == len(lines)
    assert all(0 <= p.template_id < len(templates) for p in parsed)
    assert namespace["config"].frame_length == 7


def usage_flags() -> dict[str, set[str]]:
    """The --flags of each `nulog <command>` usage block under Commands."""
    section = README.read_text(encoding="utf-8").split("## Commands", 1)[1]
    section = section.split("\n## ", 1)[0]
    flags: dict[str, set[str]] = {}
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        command = re.match(r"nulog (\w+)", block).group(1)
        flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", block))
    return flags


def parser_flags() -> dict[str, set[str]]:
    """The long option strings of each subcommand, --help aside."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: {s for action in sub._actions for s in action.option_strings
                   if s.startswith("--")} - {"--help"}
            for name, sub in subparsers.choices.items()}


@pytest.mark.parametrize("command", sorted(parser_flags()))
def test_usage_block_names_every_flag_of_its_command(command):
    assert usage_flags().get(command) == parser_flags()[command]
