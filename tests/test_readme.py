"""The README's documented snippets must keep running."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Quick start section holds one python block"
    return blocks[0]


def test_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_block(), f"{README.name}:Quick start", "exec"), namespace)
    assert namespace["op"].is_factor(namespace["alg"])
    assert 0.0 <= namespace["logical"].value(namespace["p"]) <= 1.0
