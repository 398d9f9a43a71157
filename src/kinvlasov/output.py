"""Deterministic plain-text outputs: diagnostics CSV, phase-space snapshots,
and the run manifest.

All floats are written in shortest round-trip decimal form (Python repr), so
re-reading any file reproduces the values bit-exactly and repeated runs are
byte-identical.  Headers and CSV rows call ``repr``; snapshot matrices are
written a block of rows at a time by ``floattext.rows_text``, whose text is
byte for byte that of ``repr`` (its definition, and its fallback for the
values it does not cover).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, floattext
from .config import Config
from .diagnostics import (
    DIAGNOSTICS_FIELDS,
    EQUATION_PARTITION,
    DiagnosticsRecord,
    DivergenceRow,
)
from .grid import PhaseSpaceGrid
from .state import SimulationState


def format_float(x) -> str:
    return repr(float(x))


def csv_row(record) -> str:
    """One CSV line of a diagnostics or divergence record: the integer step,
    then every other field in declaration order as a float."""
    step, *rest = (getattr(record, f.name) for f in fields(record))
    return ",".join([str(step), *map(format_float, rest)]) + "\n"


class DiagnosticsWriter:
    """CSV sink that emits the header on first use and flushes per row."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None

    def write(self, record: DiagnosticsRecord) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(",".join(DIAGNOSTICS_FIELDS) + "\n")
        self._fh.write(csv_row(record))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@contextmanager
def _replace_on_success(path: Path, binary: bool = False):
    """Write a temporary sibling of ``path``, then rename it into place or delete it."""
    partial = path.with_name(path.name + ".tmp")
    try:
        with (open(partial, "wb") if binary else open(partial, "w", encoding="utf-8")) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)     # a no-op after the rename


def _write_matrix(path: Path, header: str, matrix: np.ndarray) -> None:
    """One text line per row, ``" ".join(map(repr, row))``.  A row bitwise
    equal to the row above reuses its line (bytes, not values, so -0.0 after
    0.0 and NaN rows keep their own); the other rows are formatted about
    ``floattext.BLOCK`` values at a time."""
    rows = max(1, floattext.BLOCK // matrix.shape[1])
    with _replace_on_success(path, binary=True) as fh:
        fh.write(header.encode() + b"\n")
        above = None
        for start in range(0, len(matrix), rows):
            block = np.ascontiguousarray(matrix[start:start + rows], dtype=np.float64)
            bits = block.view(np.int64)
            new = np.empty(len(block), bool)
            new[0] = above is None or (bits[0] != above).any()
            new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            above = bits[-1]
            fresh = iter(floattext.rows_text(block[new]).splitlines(keepends=True))
            for is_new in new:
                if is_new:
                    line = next(fresh)
                fh.write(line)


def write_snapshot(state: SimulationState, grid: PhaseSpaceGrid, out_dir) -> None:
    """Write f_plus_<step>.dat, f_minus_<step>.dat, fields_<step>.dat.

    Distribution files: one header line, then nx lines of np values (row = x,
    column = p, both ascending).  The field file carries the time-centered
    potentials of this state alongside the cached moments.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    step = state.step
    meta = (
        f"# t={format_float(state.time)} nx={grid.nx} np={grid.np} "
        f"x_max={format_float(grid.x_max)} p_max={format_float(grid.p_max)}"
    )
    for label, species in (("plus", state.plus), ("minus", state.minus)):
        _write_matrix(out_dir / f"f_{label}_{step}.dat", meta, species.f)

    phi, a = state.fields.mid()
    table = np.column_stack([grid.x_nodes, phi, a, state.rho, state.j])
    header = (
        f"# t={format_float(state.time)} nx={grid.nx} "
        f"x_max={format_float(grid.x_max)} columns=x,phi,a,rho,j"
    )
    _write_matrix(out_dir / f"fields_{step}.dat", header, table)


def manifest_payload(config: Config, grid: PhaseSpaceGrid, n_steps: int) -> dict:
    """Everything needed to reproduce and interpret the run bit-exactly,
    including the two stability ratios c·dt/dx and max|v|·dt/dx."""
    return {
        "version": __version__,
        "config": asdict(config),
        "derived": {
            "dx": grid.dx,
            "dp": grid.dp,
            "dt": grid.dt,
            "n_steps": n_steps,
            "cfl_light_ratio": config.c * grid.dt / grid.dx,
            "cfl_transport_ratio": grid.v_max * grid.dt / grid.dx,
        },
        "equation_partition": EQUATION_PARTITION,
        "notes": {
            "continuity_residual_forms": (
                "The ledger reports the dimensionally consistent residual "
                "dn/dt + d(flux)/dx as equation h; the model's stated form "
                "carries an extra 1/c on the time term and is emitted as the "
                "informational h/c row."
            ),
            "initial_fields": (
                "phi starts from the zero-mean periodic electrostatic solve of "
                "the initial charge density, with equal stored levels "
                "(phi_t(0) = 0) and A = 0; this choice is not forced by the "
                "evolved equations."
            ),
            "residual_columns": (
                "Kinetic and continuity residual columns are centered one step "
                "behind the row's step (three snapshots are needed) and report "
                "0.0 for the first two rows."
            ),
        },
    }


def write_manifest(payload: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _replace_on_success(out_dir / "manifest.json") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


DIVERGENCE_FIELDS = tuple(f.name for f in fields(DivergenceRow))


def write_divergence(rows, path) -> None:
    with _replace_on_success(Path(path)) as fh:
        fh.write(",".join(DIVERGENCE_FIELDS) + "\n")
        for row in rows:
            fh.write(csv_row(row))
