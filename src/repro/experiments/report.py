"""Plain-text rendering and persistence of experiment tables."""
from __future__ import annotations

import os
from typing import Any

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")

# The one statement of which runner writes each ``results/<table>.txt``:
# ``jobs/run.py`` writes these tables' files at paper scale, and
# ``pytest benchmarks/`` (``bench_config.bench_table``) writes every other
# table's. Each runner saves only the files it owns.
JOB_TABLES = frozenset({"table4"})


def format_table(rows: list[dict[str, Any]], columns: list[str] | None = None) -> str:
    """Fixed-width text table; floats rendered with 4 significant digits."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])

    def cell(v) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    data = [[cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(d[k]) for d in data)) for k, c in enumerate(columns)
    ]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(d[k].ljust(w) for k, w in enumerate(widths)) for d in data]
    return "\n".join(lines)


def save_table(name: str, text: str) -> str:
    """Write a rendered table under ``results/`` and return the path."""
    d = os.path.abspath(RESULTS_DIR)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    return path
