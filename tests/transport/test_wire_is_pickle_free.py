"""Guard: the wire grammar stays pickle-free.

A server decodes what a peer sent — replies, refusals, the credential, the
TCP envelope — as text or ``struct`` before any check, so none of that code
may reach for ``pickle``.  Pickle stays in ``transport/serializer.py``, for
naplet images and message bodies, which are decoded only after the checks.
An AST check (imports, and any name or attribute ``pickle``), not a grep,
so comments and docstrings may still say the word.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
WIRE = sorted(
    [*(SRC / "server").rglob("*.py")]
    + [SRC / "transport" / name for name in ("base.py", "tcp.py", "pool.py")]
)


def _pickle_uses(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name.split(".")[0] in ("pickle", "_pickle", "cPickle") for name in names):
            lines.append(node.lineno)
    return lines


def test_the_wire_modules_neither_import_nor_call_pickle():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in WIRE
        for line in _pickle_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offenders, "pickle on the wire:\n" + "\n".join(offenders)


def test_guard_scans_the_wire_and_sees_pickle_where_it_is():
    assert len(WIRE) > 10, "src/repro/server unexpectedly small — guard misconfigured?"
    assert {"navigator.py", "server.py", "base.py", "tcp.py", "pool.py"} <= {p.name for p in WIRE}
    serializer = SRC / "transport" / "serializer.py"
    assert _pickle_uses(ast.parse(serializer.read_text(encoding="utf-8")))
