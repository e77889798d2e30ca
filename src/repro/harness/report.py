"""Experiment report assembly.

Collects the artefacts each benchmark writes under
``benchmarks/results/`` into one markdown report — the machine-built
companion to EXPERIMENTS.md.  A run's records are exported by
``repro trace --jsonl`` (``repro-trace/1``), not here.
"""

from __future__ import annotations

import os
from typing import Dict, List


def collect_results(results_dir: str) -> Dict[str, str]:
    """Read every ``<exp>.txt`` artefact into {exp_id: text};
    ``ValueError`` naming the file when one is not UTF-8 text."""
    out: Dict[str, str] = {}
    if not os.path.isdir(results_dir):
        return out
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(results_dir, name)
        try:
            with open(path, encoding="utf-8") as f:
                out[name[: -len(".txt")]] = f.read().rstrip("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from exc
    return out


def build_report(
    results_dir: str,
    title: str = "CBT reproduction — experiment results",
) -> str:
    """One markdown document with every experiment's table."""
    results = collect_results(results_dir)
    lines: List[str] = [f"# {title}", ""]
    if not results:
        lines.append("_No results found; run `pytest benchmarks/ --benchmark-only` first._")
        return "\n".join(lines)
    lines.append(f"{len(results)} experiments collected.")
    for exp_id, text in results.items():
        lines.append("")
        lines.append(f"## {exp_id}")
        lines.append("")
        lines.append("```")
        lines.append(text)
        lines.append("```")
    return "\n".join(lines)


def write_report(results_dir: str, output_path: str) -> str:
    """Build and write the report; returns the markdown text."""
    text = build_report(results_dir)
    with open(output_path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return text
