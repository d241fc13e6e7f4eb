"""The README's library-use snippet runs as written."""
import re
from pathlib import Path

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
