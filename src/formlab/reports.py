"""CSV and report emission.

Reports are a CSV body plus a JSON sidecar echoing the full configuration
under a versioned schema id.  Floats are written with repr (shortest
round-trip form), so identical configurations reproduce identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

SCHEMA_ID = "formlab-report-v1"


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


@dataclass
class Report:
    """A CSV body and its JSON sidecar.

    rows may be any iterable of rows; it is consumed once, row by row, as
    the CSV is written under a temporary name, which takes the CSV's name
    once the rows are done, so rows that raise leave no CSV behind.
    summary is a string, or a function of no arguments called once the
    rows are written, for a summary that counts what the rows went through.
    """

    name: str
    header: tuple
    rows: Iterable
    config: dict
    summary: str | Callable[[], str] = ""
    passed: bool = True

    def write(self, outdir) -> str:
        os.makedirs(outdir, exist_ok=True)
        csv_path = os.path.join(outdir, f"{self.name}.csv")
        part = csv_path + ".part"
        try:
            with open(part, "w", encoding="utf-8") as fh:
                fh.write(",".join(self.header) + "\n")
                for row in self.rows:
                    fh.write(",".join(fmt(v) for v in row) + "\n")
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)
            raise
        os.replace(part, csv_path)
        summary = self.summary() if callable(self.summary) else self.summary
        meta = {"schema": SCHEMA_ID, "summary": summary,
                "passed": self.passed, "config": self.config}
        with open(os.path.join(outdir, f"{self.name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return csv_path


def vector_rows(space, u):
    """(node, x-coordinate, value) rows for a node vector."""
    coords = space.coordinates()
    rows = []
    for i, val in enumerate(u):
        if coords.ndim == 1:
            label = float(coords[i])
        else:
            label = ";".join(repr(float(c)) for c in coords[i])
        rows.append((i, label, float(val)))
    return rows


def ladder_rows(trace):
    """(level, horizon, sup-increment, inner iterations) rows."""
    return [(lv.level, float(lv.horizon), float(lv.sup_increment),
             int(lv.inner_iterations)) for lv in trace.levels]


def path_trace_rows(p_idx, states, holds):
    """(path index, step, state, holding time) rows of one sampled path."""
    for step, (state, hold) in enumerate(zip(states.tolist(),
                                             holds.tolist())):
        yield (p_idx, step, state, hold)
