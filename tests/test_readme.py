"""Every ``python`` example of ``README.md`` runs, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("k", range(len(EXAMPLES)), ids=lambda k: f"example{k + 1}")
def test_readme_example_runs(k):
    exec(compile(EXAMPLES[k], f"README.md example {k + 1}", "exec"), {"__name__": "readme"})
