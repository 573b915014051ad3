"""Module boundaries: the package's public surface and its private names."""

import ast
import pathlib

import majmux

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "majmux"


def test_no_module_imports_a_private_name_of_a_sibling():
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or node.module.split(".")[0] == "majmux"):
                leaks += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert leaks == []


def test_every_public_name_imports_from_the_package():
    assert all(hasattr(majmux, name) for name in majmux.__all__)
