"""Readers of the files the CLI writes, shared by the test modules."""

from pathlib import Path


def csv_body(path: Path) -> str:
    """CSV content with comment lines stripped (what determinism covers)."""
    return "".join(
        line for line in Path(path).read_text().splitlines(keepends=True) if not line.startswith("#")
    )
