import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    """The ```python tour block of the README runs as written, so a renamed
    call or a removed keyword fails here; tracebacks cite README lines."""
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert len(blocks) == 1
    source = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0].group(1)
    exec(compile(source, str(README), "exec"), {})
