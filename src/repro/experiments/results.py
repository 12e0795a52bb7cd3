"""Structured experiment results: tables, series, scalars and metadata.

Every registered experiment runner returns an :class:`ExperimentResult` —
the machine-readable form of one reproduced figure or table.  The result
renders to the fixed-width text the CLI's ``run`` prints
(:func:`repro.reporting.tables.format_table`) and round-trips through a
plain-JSON dictionary, so the CLI's ``--json`` export can be parsed back
into the exact same object.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import AnalysisError
from repro.reporting.tables import format_table

#: The JSON schema identifier stamped into every exported result.
RESULT_SCHEMA = "repro.experiment_result/v1"

Scalar = bool | int | float | str | None


def coerce_scalar(value: Any) -> Scalar:
    """Coerce a cell/scalar to a JSON-safe plain-Python value.

    Numpy integers/floats (and any other :mod:`numbers` registrants) are
    converted to native ``int``/``float``; booleans stay booleans;
    everything else must already be a string or ``None``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise AnalysisError(
        f"cell value {value!r} of type {type(value).__name__} is not JSON-representable"
    )


@dataclass(frozen=True)
class ResultTable:
    """One rendered table of an experiment result (headers + rows)."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def build(
        cls,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> "ResultTable":
        """Validate and normalise ``rows`` into an immutable table."""
        header_tuple = tuple(str(h) for h in headers)
        if not header_tuple:
            raise AnalysisError("a result table needs at least one column")
        normalised: list[tuple[Scalar, ...]] = []
        for row in rows:
            if len(row) != len(header_tuple):
                raise AnalysisError(
                    f"table {title!r}: row width {len(row)} does not match "
                    f"header width {len(header_tuple)}"
                )
            normalised.append(tuple(coerce_scalar(cell) for cell in row))
        return cls(title=title, headers=header_tuple, rows=tuple(normalised))

    def render_text(self) -> str:
        """The fixed-width text form (what ``run`` prints)."""
        return format_table(self.headers, [list(row) for row in self.rows], title=self.title)

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ResultTable":
        return cls.build(payload["title"], payload["headers"], payload["rows"])


@dataclass(frozen=True)
class ResultSeries:
    """One named (x, y) data series of an experiment result."""

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    x_label: str = "x"
    y_label: str = "y"

    @classmethod
    def build(
        cls,
        name: str,
        x: Sequence[float],
        y: Sequence[float],
        x_label: str = "x",
        y_label: str = "y",
    ) -> "ResultSeries":
        xs = tuple(float(value) for value in x)
        ys = tuple(float(value) for value in y)
        if len(xs) != len(ys):
            raise AnalysisError(f"series {name!r}: x and y lengths differ")
        return cls(name=name, x=xs, y=ys, x_label=x_label, y_label=y_label)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "x": list(self.x),
            "y": list(self.y),
            "x_label": self.x_label,
            "y_label": self.y_label,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ResultSeries":
        return cls.build(
            payload["name"],
            payload["x"],
            payload["y"],
            x_label=payload.get("x_label", "x"),
            y_label=payload.get("y_label", "y"),
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment run produced, in structured form."""

    experiment_id: str
    title: str
    tables: tuple[ResultTable, ...] = ()
    series: tuple[ResultSeries, ...] = ()
    scalars: Mapping[str, Scalar] = field(default_factory=dict)
    metadata: Mapping[str, Scalar] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        experiment_id: str,
        title: str,
        *,
        tables: Sequence[ResultTable] = (),
        series: Sequence[ResultSeries] = (),
        scalars: Mapping[str, Any] | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> "ExperimentResult":
        return cls(
            experiment_id=experiment_id,
            title=title,
            tables=tuple(tables),
            series=tuple(series),
            scalars={key: coerce_scalar(value) for key, value in (scalars or {}).items()},
            metadata={key: coerce_scalar(value) for key, value in (metadata or {}).items()},
        )

    def scalar(self, name: str) -> Scalar:
        """Look a headline scalar up by name."""
        try:
            return self.scalars[name]
        except KeyError as exc:
            raise AnalysisError(
                f"experiment {self.experiment_id!r} has no scalar {name!r} "
                f"(available: {', '.join(sorted(self.scalars)) or 'none'})"
            ) from exc

    def get_series(self, name: str) -> ResultSeries:
        """Look a data series up by name."""
        for entry in self.series:
            if entry.name == name:
                return entry
        raise AnalysisError(f"experiment {self.experiment_id!r} has no series {name!r}")

    def with_metadata(self, extra: Mapping[str, Any]) -> "ExperimentResult":
        """A copy with ``extra`` merged under the existing metadata."""
        merged = {key: coerce_scalar(value) for key, value in extra.items()}
        merged.update(self.metadata)
        return replace(self, metadata=merged)

    def render_text(self) -> str:
        """Human-readable form: every table, series summary and scalar."""
        blocks = [f"[{self.experiment_id}] {self.title}"]
        blocks.extend(table.render_text() for table in self.tables)
        if self.series:
            blocks.append(
                format_table(
                    ["series", "points", "x", "y"],
                    [[s.name, len(s.x), s.x_label, s.y_label] for s in self.series],
                    title=f"{self.experiment_id} — data series",
                )
            )
        if self.scalars:
            blocks.append(
                format_table(
                    ["scalar", "value"],
                    [[key, value] for key, value in self.scalars.items()],
                    title=f"{self.experiment_id} — headline scalars",
                )
            )
        return "\n\n".join(blocks)

    def to_json_dict(self) -> dict[str, Any]:
        """The plain-dictionary form written by the CLI's ``--json`` export."""
        return {
            "schema": RESULT_SCHEMA,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "tables": [table.to_dict() for table in self.tables],
            "series": [entry.to_dict() for entry in self.series],
            "scalars": dict(self.scalars),
            "metadata": dict(self.metadata),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        schema = payload.get("schema")
        if schema != RESULT_SCHEMA:
            raise AnalysisError(f"unsupported result schema: {schema!r}")
        return cls.build(
            payload["experiment_id"],
            payload["title"],
            tables=[ResultTable.from_dict(entry) for entry in payload.get("tables", ())],
            series=[ResultSeries.from_dict(entry) for entry in payload.get("series", ())],
            scalars=payload.get("scalars"),
            metadata=payload.get("metadata"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_json_dict(json.loads(text))
