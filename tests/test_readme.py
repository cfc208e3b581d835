"""The README's Python examples run against the current API.

Each ```python block runs on its own, in a fresh namespace, as a reader
would paste it; a block that raises fails its test.  Each backticked
`module.name` reference to a wavecert module must name an attribute of it.
The package keeps the README's promises never to call into LAPACK, to
need numpy alone at run time, and to load numpy only in the modules that
search or simulate.
"""

import ast
import importlib
import os
import pkgutil
import re
import sys

import pytest

import wavecert

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

with open(README, encoding="utf-8") as fh:
    TEXT = fh.read()


def python_blocks():
    return [(TEXT.count("\n", 0, m.start()) + 2, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def references():
    modules = [m.name for m in pkgutil.iter_modules(wavecert.__path__)]
    pattern = r"`(%s)\.(\w+)`" % "|".join(modules)
    return sorted(set(re.findall(pattern, TEXT)))


BLOCKS = python_blocks()
REFERENCES = references()


def test_readme_has_examples():
    assert len(BLOCKS) == 5


@pytest.mark.parametrize("line,code", BLOCKS, ids=["line%d" % line for line, _ in BLOCKS])
def test_example_runs(line, code, capsys):
    exec(compile(code, "README.md:%d" % line, "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()


def test_readme_has_references():
    assert REFERENCES


@pytest.mark.parametrize("module,name", REFERENCES,
                         ids=["%s.%s" % ref for ref in REFERENCES])
def test_reference_resolves(module, name):
    assert hasattr(importlib.import_module("wavecert." + module), name)


def _package_sources():
    root = os.path.dirname(os.path.abspath(wavecert.__file__))
    for folder, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), fh.read()


def test_package_never_calls_into_lapack():
    sources = dict(_package_sources())
    assert "smallmat.py" in sources and "certificates.py" in sources
    for name, text in sources.items():
        found = re.findall(r"linalg|lapack|scipy", text, re.I)
        assert not found, "%s mentions %s" % (name, ", ".join(sorted(set(found))))
    # the eigenvalue kernel stands on the standard library's math alone
    imported = set()
    for node in ast.walk(ast.parse(sources["smallmat.py"])):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math"}
    assert not re.search(r"__import__|importlib", sources["smallmat.py"])


def _imported(nodes):
    """The top-level names of the modules the import statements among nodes
    import; a relative import is the package's own."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "wavecert" if node.level else node.module.partition(".")[0]


def test_package_imports_the_standard_library_and_numpy_only():
    sources = dict(_package_sources())
    assert "pde.py" in sources and "search.py" in sources
    allowed = set(sys.stdlib_module_names) | {"numpy", "wavecert"}
    for name, text in sources.items():
        imported = set(_imported(ast.walk(ast.parse(text))))
        assert imported <= allowed, "%s imports %s" % (name, sorted(imported - allowed))


def _run_at_import(text):
    """The nodes of a source that run when it is imported: all but the
    bodies of its functions."""
    stack = [ast.parse(text)]
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_certificate_layer_and_cli_import_no_numpy_at_module_level():
    # checking a certificate, and every launch until it searches or
    # simulates, runs these modules alone
    sources = dict(_package_sources())
    for name in ("__init__.py", "certificates.py", "smallmat.py", "cli.py"):
        assert "numpy" not in set(_imported(_run_at_import(sources[name]))), name
