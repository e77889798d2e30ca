"""Simulated behaviour must not depend on the shell or on what happens
to be pip-installed.

``netsim/ids.py`` once selected the data-plane lookup by an environment
variable and, under that, by whether NumPy imported.  Both forks are
gone; this walks the source so the next one fails here.  Every
exception is listed with its reason.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

_ENV_NAMES = ("environ", "environb", "getenv")

#: ``file::function`` -> why it may read the process environment.
ENV_READS_ALLOWED = {
    "harness/parallel.py::_subprocess_env": (
        "forwards the parent environment (plus PYTHONPATH) to pytest / "
        "lint / coverage child processes; nothing simulated reads it"
    ),
}

#: Top-level packages that are this repository, not an install.
FIRST_PARTY = {"repro", "benchmarks"}

#: ``(file, package)`` -> why a non-stdlib import is tolerated.
THIRD_PARTY_ALLOWED = {
    ("harness/parallel.py", "coverage"): (
        "availability probe of the optional CI coverage unit, which "
        "reports itself skipped on ImportError"
    ),
}


def _walk(path):
    """``(file, env reads as file::function, imported top-level packages)``."""
    rel = path.relative_to(SRC).as_posix()
    env_reads, packages = set(), set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
            if node.module == "os" and any(
                alias.name in _ENV_NAMES for alias in node.names
            ):
                env_reads.add(f"{rel}::{function}")
        elif isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            env_reads.add(f"{rel}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return rel, env_reads, packages


@pytest.fixture(scope="module")
def sources():
    return [_walk(path) for path in sorted(SRC.rglob("*.py"))]


def test_no_module_reads_the_environment(sources):
    found = set().union(*(env_reads for _, env_reads, _ in sources))
    assert found == set(ENV_READS_ALLOWED)


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs python >= 3.10"
)
def test_no_module_imports_an_installed_package(sources):
    found = {
        (rel, package)
        for rel, _, packages in sources
        for package in packages - FIRST_PARTY - sys.stdlib_module_names
    }
    assert found == set(THIRD_PARTY_ALLOWED)
