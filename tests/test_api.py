"""The top-level API: what `gajdchase` exports and what the README shows of it."""

import ast
import re
from pathlib import Path

import gajdchase

README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(gajdchase.__file__).parent


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



def test_settable_values_pinned():
    # Every parameter or dataclass field with a default (other than a
    # `field(init=False)`) is a value some caller can set.  The count is
    # pinned, so a change that adds or removes one says so in its diff.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [f"{path.name}:{node.name}({a.arg})" for a in named]
            elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        value = stmt.value
                        init_false = (
                            isinstance(value, ast.Call)
                            and ast.unparse(value.func) == "field"
                            and any(k.arg == "init" and ast.unparse(k.value) == "False" for k in value.keywords)
                        )
                        if not init_false:
                            found.append(f"{path.name}:{node.name}.{stmt.target.id}")
    assert len(found) == 19, "\n".join(found)
