"""The top-level API: what `gajdchase` exports and what the README shows of it."""

import re
from pathlib import Path

import gajdchase

README = Path(__file__).parent.parent / "README.md"


def test_all_names_resolve():
    for name in gajdchase.__all__:
        assert getattr(gajdchase, name) is not None, name


def test_readme_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    verdict = namespace["verdict"]
    assert verdict.holds
    assert verdict.factorization.render() == "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"
