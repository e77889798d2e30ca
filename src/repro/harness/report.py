"""Experiment report assembly.

Collects the artefacts each benchmark writes under
``benchmarks/results/`` into one markdown report — the machine-built
companion to EXPERIMENTS.md.  Also provides trace export to JSON lines
for offline analysis of individual runs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.netsim.trace import PacketTrace


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


def export_trace(trace: PacketTrace, output_path: str, limit: Optional[int] = None) -> int:
    """Dump a packet trace as JSON lines; returns records written."""
    written = 0
    with open(output_path, "w") as f:
        for record in trace:
            if limit is not None and written >= limit:
                break
            f.write(
                json.dumps(
                    {
                        "time": record.time,
                        "kind": record.kind,
                        "link": record.link_name,
                        "node": record.node_name,
                        "proto": record.datagram.proto,
                        "src": str(record.datagram.src),
                        "dst": str(record.datagram.dst),
                        "ttl": record.datagram.ttl,
                        "uid": record.datagram.uid,
                        "bytes": record.datagram.size_bytes(),
                        "note": record.note,
                    }
                )
            )
            f.write("\n")
            written += 1
    return written


def load_trace_summary(path: str) -> Dict[str, int]:
    """Re-read an exported trace; per-kind record counts (sanity tool)."""
    counts: Dict[str, int] = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            counts[record["kind"]] = counts.get(record["kind"], 0) + 1
    return counts
