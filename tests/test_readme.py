"""README's Library block runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first Python block of README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_block_runs(capsys):
    names = {}
    exec(compile(library_block(), str(README), "exec"), names)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(names["r_values"])
    distributed, history = names["distributed"], names["history"]
    assert len(history) == distributed.stats["iterations"]
    assert names["central"].cost.total <= distributed.cost.total
    assert names["central"].cost.total <= names["base"].cost.total
