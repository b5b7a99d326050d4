"""Lint guard: production code must report through the journal, metrics, or
spans — never ``print``.  Examples and benchmarks may print; ``src/repro``
may not."""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# A real call: `print(` not preceded by an identifier character, a dot
# (method named print), or a quote (string mentioning it).
_PRINT_CALL = re.compile(r"(?<![\w.\"'])print\(")


def test_src_tree_is_print_free():
    offenders: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            code = line.split("#", 1)[0]
            if _PRINT_CALL.search(code):
                offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "print() calls found in src/repro — use the journal or telemetry "
        "instead:\n" + "\n".join(offenders)
    )


def test_guard_scans_a_nontrivial_tree():
    files = list(SRC.rglob("*.py"))
    assert len(files) > 30, "src/repro unexpectedly small — guard misconfigured?"
