"""Lint runner for ``repro ci --tier lint``.

CI installs `ruff` and gets the full pycodestyle/pyflakes/isort rule
set configured in ``pyproject.toml``.  Containers without ruff (the
toolchain image bakes in only the test stack) fall back to a built-in
subset so the local command and gate semantics still exist:

* syntax errors (every ``.py`` file must parse);
* F401 unused imports (AST-based, ``# noqa`` respected): a name is
  used when code reads it, an ``__all__`` entry lists it or a string
  annotation names it — never by a word in any other string;
* E711/E712 comparisons to ``None``/``True``/``False``;
* E722 bare ``except:``;
* W191 tabs in indentation, W291/W293 trailing whitespace;
* E501 lines longer than the configured 100 columns.

Both paths lint the same roots and return the same shape, so the CI
workflow and a local run are the same command with different depth.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from typing import Iterator, List, Set, Tuple

from repro.harness.parallel import REPO_ROOT

#: Directories linted, relative to the repository root.
LINT_ROOTS = ("src", "tests", "benchmarks", "examples")

#: Maximum line length, matching ``[tool.ruff] line-length``.
MAX_LINE_LENGTH = 100


def _python_files() -> List[str]:
    out: List[str] = []
    for root_name in LINT_ROOTS:
        base = os.path.join(REPO_ROOT, root_name)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [
                d
                for d in dirnames
                if d not in ("__pycache__", "results")
                and not d.endswith(".egg-info")
            ]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def _unused_imports(tree: ast.Module, lines: List[str]) -> List[Tuple[int, str]]:
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append(
                    (node.lineno, alias.asname or alias.name.split(".")[0])
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports.append((node.lineno, alias.asname or alias.name))
    used = _used_names(tree)
    return [
        (lineno, name)
        for lineno, name in imports
        if name not in used
        and "noqa" not in (lines[lineno - 1] if lineno - 1 < len(lines) else "")
    ]


def _used_names(tree: ast.Module) -> Set[str]:
    """What a module reads: every ``ast.Name``, every ``__all__``
    entry, and the names inside string annotations (``"Node"``,
    ``Optional["Link"]``).  Other strings are text, not uses."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                elements = getattr(node.value, "elts", ())
                used.update(getattr(element, "value", None) for element in elements)
        # ``arg`` / ``AnnAssign`` annotations and ``def`` returns.
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        used.update(_annotation_names(annotation))
    return used


def _annotation_names(annotation) -> Iterator[str]:
    """The names an annotation reads, those its strings spell too."""
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


_E711 = re.compile(r"[=!]=\s*None\b")
_E712 = re.compile(r"[=!]=\s*(True|False)\b")
_E722 = re.compile(r"^\s*except\s*:")


def _fallback_lint() -> Tuple[bool, List[str]]:
    findings: List[str] = []
    for path in _python_files():
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(f"{rel}:{exc.lineno}: E999 syntax error: {exc.msg}")
            continue
        lines = source.splitlines()
        for lineno, name in _unused_imports(tree, lines):
            findings.append(f"{rel}:{lineno}: F401 unused import '{name}'")
        for lineno, line in enumerate(lines, 1):
            if "noqa" in line:
                continue
            if _E711.search(line):
                findings.append(f"{rel}:{lineno}: E711 comparison to None")
            if _E712.search(line):
                findings.append(f"{rel}:{lineno}: E712 comparison to True/False")
            if _E722.search(line):
                findings.append(f"{rel}:{lineno}: E722 bare except")
            if line[: len(line) - len(line.lstrip())].count("\t"):
                findings.append(f"{rel}:{lineno}: W191 tab in indentation")
            if line != line.rstrip():
                findings.append(f"{rel}:{lineno}: W291 trailing whitespace")
            if len(line) > MAX_LINE_LENGTH:
                findings.append(
                    f"{rel}:{lineno}: E501 line too long "
                    f"({len(line)} > {MAX_LINE_LENGTH})"
                )
    return not findings, findings


def run_lint() -> Tuple[bool, str, List[str]]:
    """Lint the repository; returns ``(ok, tool, finding_lines)``."""
    ruff = shutil.which("ruff")
    if ruff is not None:
        proc = subprocess.run(
            [ruff, "check", *LINT_ROOTS],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        lines = [line for line in proc.stdout.strip().splitlines() if line]
        return proc.returncode == 0, "ruff", lines
    # ``python -m ruff`` (module install without a console script).
    probe = subprocess.run(
        [sys.executable, "-m", "ruff", "--version"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if probe.returncode == 0:
        proc = subprocess.run(
            [sys.executable, "-m", "ruff", "check", *LINT_ROOTS],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        lines = [line for line in proc.stdout.strip().splitlines() if line]
        return proc.returncode == 0, "ruff", lines
    ok, findings = _fallback_lint()
    return ok, "builtin-fallback", findings
