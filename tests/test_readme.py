"""The README's library example runs, and it defines the public surface.

``qchain.__all__`` is exactly the names that example imports from ``qchain``
plus :class:`qchain.QchainError`; everything else is reached as
``qchain.<module>.<name>``.
"""

import ast
import pathlib
import re

import qchain

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "the README should hold exactly one python block"
    return blocks[0]


def _names_imported_from_qchain(source: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "qchain"
        for alias in node.names
    ]


def test_readme_example_runs_and_passes():
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert namespace["report"].passed


def test_public_names_are_the_readme_imports():
    imported = _names_imported_from_qchain(_library_example())
    assert sorted(qchain.__all__) == sorted([*imported, "QchainError"])
    for name in qchain.__all__:
        assert getattr(qchain, name) is not None
