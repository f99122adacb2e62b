"""Run configuration: an INI file mapped to one dataclass.

``SCHEMA`` lists every INI key once, with the ``RunConfig`` field it sets, the
reader that parses its text and the writer that prints it back, in the order
``serialize_config`` writes them.  A section or key the schema does not list
is refused.

Values keep their exact rational form (fractions serialize as ``a/b``), so
writing a config back out and re-reading it yields an equal RunConfig, up to
the output directory: that says where a run is written, not what it builds,
so it is not written back out and a run's report does not depend on it.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import MISSING, dataclass, fields, replace
from fractions import Fraction
from typing import Any, Callable, NamedTuple


class ConfigError(ValueError):
    pass


def _ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if not values:
        raise ValueError(f"expected integers, got {text!r}")
    return values


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _extents(text: str) -> tuple[int, ...]:
    values = _ints(text)
    if min(values) < 1:
        raise ValueError(f"extents must be >= 1, got {values}")
    return values


def _shapes(text: str) -> tuple[tuple[int, ...], ...]:
    shapes = tuple(tuple(int(x) for x in token.split("x")) for token in text.split())
    if not shapes:
        raise ValueError("shapes must list at least one WxH entry")
    return shapes


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(token) for token in text.replace(",", " ").split())


def _one_of(*choices: str) -> Callable[[str], str]:
    def read(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {choices}, got {text!r}")
        return text

    return read


def _fmt_ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _fmt_shapes(shapes) -> str:
    return " ".join("x".join(str(int(e)) for e in s) for s in shapes)


def _fmt_fractions(values) -> str:
    return " ".join(str(Fraction(v)) for v in values)


MODES = ("strict", "relaxed")
# Text is the one file format.  The key stays: configs that set it keep
# reading, and report.json keeps echoing it.
FORMATS = ("text",)


class Key(NamedTuple):
    section: str
    key: str
    field: str
    read: Callable[[str], Any]
    write: Callable[[Any], str] | None = str  # None: not echoed into report.json
    per_axis: bool = False  # one entry per axis of the lattice


SCHEMA = (
    Key("run", "dim", "dim", _positive),
    Key("run", "seed", "seed", int),
    Key("run", "mode", "mode", _one_of(*MODES)),
    Key("run", "window", "window_shape", _extents, _fmt_ints, per_axis=True),
    Key("run", "window_anchor", "window_anchor", _ints, _fmt_ints, per_axis=True),
    Key("run", "out", "out_dir", str, None),
    Key("run", "format", "out_format", _one_of(*FORMATS)),
    Key("family", "shapes", "shapes", _shapes, _fmt_shapes),
    Key("targets", "probs", "targets", _fractions, _fmt_fractions),
    Key("targets", "tail_mass", "tail_mass", Fraction),
    Key("plan", "count", "count", int),
    Key("plan", "sides", "sides", _ints, _fmt_ints),
    Key("plan", "gaps", "gaps", _ints, _fmt_ints),
    Key("plan", "error_budgets", "error_budgets", _fractions, _fmt_fractions),
    Key("plan", "cutoffs", "cutoffs", _ints, _fmt_ints),
    Key("fill", "inner_translate", "fill_inner", _ints, _fmt_ints, per_axis=True),
    Key("fill", "outer_translate", "fill_outer", _ints, _fmt_ints, per_axis=True),
    Key("fill", "box_anchor", "fill_anchor", _ints, _fmt_ints, per_axis=True),
    Key("fill", "box_shape", "fill_shape", _extents, _fmt_ints, per_axis=True),
)
SECTIONS = tuple(dict.fromkeys(row.section for row in SCHEMA))


def _read(row: Key, text) -> Any:
    """``row``'s value from ``text``; any failure is a one-line ConfigError."""
    try:
        return row.read(text)
    except (ValueError, ZeroDivisionError) as exc:
        why = exc if isinstance(exc, ValueError) else f"zero denominator in {text!r}"
        raise ConfigError(f"[{row.section}] {row.key}: {why}") from exc


def cells_in_int64(anchor, shape) -> bool:
    """Whether every cell of the box at ``anchor`` of extents ``shape`` is int64."""
    return all(-(2**63) <= a and a + n <= 2**63 for a, n in zip(anchor, shape))


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible run needs."""

    dim: int
    shapes: tuple[tuple[int, ...], ...]
    targets: tuple[Fraction, ...]
    window_shape: tuple[int, ...]
    seed: int = 0
    mode: str = "strict"
    tail_mass: Fraction = Fraction(0)
    window_anchor: tuple[int, ...] = ()
    out_dir: str = "out"
    out_format: str = "text"
    count: int | None = None
    sides: tuple[int, ...] | None = None
    gaps: tuple[int, ...] | None = None
    error_budgets: tuple[Fraction, ...] | None = None
    cutoffs: tuple[int, ...] | None = None
    fill_inner: tuple[int, ...] | None = None
    fill_outer: tuple[int, ...] | None = None
    fill_anchor: tuple[int, ...] | None = None
    fill_shape: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.window_anchor:
            object.__setattr__(self, "window_anchor", (0,) * self.dim)
        for row in SCHEMA:
            vec = getattr(self, row.field)
            if row.per_axis and vec is not None and len(vec) != self.dim:
                raise ConfigError(
                    f"[{row.section}] {row.key}: needs {self.dim} entries, got {len(vec)}"
                )
        if not cells_in_int64(self.window_anchor, self.window_shape):
            raise ConfigError(
                f"[run] window_anchor: window at {self.window_anchor} of extents "
                f"{self.window_shape} has cells outside int64"
            )
        if (self.fill_anchor is None) != (self.fill_shape is None):
            raise ConfigError("fill box needs both box_anchor and box_shape")

    def with_run_keys(self, texts: dict[str, Any]) -> "RunConfig":
        """This config with the given ``[run]`` keys read as the INI file reads them."""
        rows = [row for row in SCHEMA if row.section == "run" and row.key in texts]
        return replace(self, **{row.field: _read(row, texts[row.key]) for row in rows})


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        # DEFAULT first: its keys are copied into every other section.
        entries = {"DEFAULT": dict(parser.defaults())}
        entries.update((section, dict(parser.items(section))) for section in parser.sections())
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    rows = {(row.section, row.key): row for row in SCHEMA}
    values = {}
    for section, items in entries.items():
        if not items and section not in (*SECTIONS, "DEFAULT"):
            raise ConfigError(f"[{section}]: unknown section")
        for key, value in items.items():
            row = rows.get((section, key))
            if row is None:
                what = "key" if section in SECTIONS else "section"
                raise ConfigError(f"[{section}] {key}: unknown {what}")
            values[row.field] = _read(row, value)
    required = {f.name for f in fields(RunConfig) if f.default is MISSING}
    for row in SCHEMA:
        if row.field in required and row.field not in values:
            raise ConfigError(f"[{row.section}] {row.key}: required, not given")
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser()
    for row in SCHEMA:
        value = getattr(cfg, row.field)
        if row.write is not None and value is not None:
            if not parser.has_section(row.section):
                parser.add_section(row.section)
            parser.set(row.section, row.key, row.write(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8: {exc}") from exc
    return parse_config(text)
