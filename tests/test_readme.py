"""The README's library-use snippet runs as written, and its command
usage blocks name the flags the CLI takes with their defaults."""
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
    assert namespace["model"].config.frame_length == 7


def usage_blocks() -> list[str]:
    """The `nulog <command>` usage blocks under Commands."""
    section = README.read_text(encoding="utf-8").split("## Commands", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```\n(.*?)```", section, re.S)


def usage_flags() -> dict[str, set[str]]:
    """The --flags of each command's usage blocks."""
    flags: dict[str, set[str]] = {}
    for block in usage_blocks():
        command = re.match(r"nulog (\w+)", block).group(1)
        flags.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", block))
    return flags


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def parser_flags() -> dict[str, set[str]]:
    """The long option strings of each subcommand, --help aside."""
    return {name: {s for action in sub._actions for s in action.option_strings
                   if s.startswith("--")} - {"--help"}
            for name, sub in subcommands().items()}


def numeric_defaults() -> list[tuple[str, str, str]]:
    """(command, flag, value) for each `[--flag N]` with a numeric N."""
    return [(re.match(r"nulog (\w+)", block).group(1), flag, value)
            for block in usage_blocks()
            for flag, value in re.findall(r"\[(--[a-z][a-z-]*) ([0-9][0-9.]*)\]",
                                          block)]


@pytest.mark.parametrize("command", sorted(parser_flags()))
def test_usage_block_names_every_flag_of_its_command(command):
    assert usage_flags().get(command) == parser_flags()[command]


@pytest.mark.parametrize("command, flag, value", numeric_defaults())
def test_usage_block_default_is_the_parser_default(command, flag, value):
    action = next(a for a in subcommands()[command]._actions
                  if flag in a.option_strings)
    assert float(value) == action.default
