"""Run configuration: an INI file mapped to one dataclass.

Values keep their exact rational form (fractions serialize as ``a/b``), so
writing a config back out and re-reading it yields an equal RunConfig, up to
the output directory: that says where a run is written, not what it builds,
so it is not written back out and a run's report does not depend on it.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace
from fractions import Fraction


class ConfigError(ValueError):
    pass


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(f"expected integers, got {text!r}")
    return values


def _parse_shapes(text: str) -> tuple[tuple[int, ...], ...]:
    shapes = []
    for token in text.split():
        shapes.append(tuple(int(x) for x in token.split("x")))
    if not shapes:
        raise ConfigError("shapes must list at least one WxH entry")
    return tuple(shapes)


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    out = []
    for token in text.replace(",", " ").split():
        out.append(Fraction(token) if "/" in token else Fraction(str(token)))
    return tuple(out)


def _fmt_ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _fmt_shapes(shapes) -> str:
    return " ".join("x".join(str(int(e)) for e in s) for s in shapes)


def _fmt_fractions(values) -> str:
    return " ".join(str(Fraction(v)) for v in values)


MODES = ("strict", "relaxed")
FORMATS = ("text", "json")


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
    fill_box: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.window_anchor:
            object.__setattr__(self, "window_anchor", (0,) * self.dim)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.out_format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.out_format!r}")
        box = self.fill_box or (None, None)
        vectors = {
            "window": self.window_shape,
            "window_anchor": self.window_anchor,
            "inner_translate": self.fill_inner,
            "outer_translate": self.fill_outer,
            "box_anchor": box[0],
            "box_shape": box[1],
        }
        for key, vec in vectors.items():
            if vec is not None and len(vec) != self.dim:
                raise ConfigError(f"{key} needs {self.dim} entries, got {len(vec)}")
        for key in ("window", "box_shape"):
            if vectors[key] is not None and min(vectors[key]) < 1:
                raise ConfigError(f"{key} extents must be >= 1, got {vectors[key]}")

    def replace(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    try:
        run = parser["run"]
        family = parser["family"]
        targets = parser["targets"]
    except KeyError as exc:
        raise ConfigError(f"missing section {exc}") from exc
    plan = parser["plan"] if parser.has_section("plan") else {}
    fill = parser["fill"] if parser.has_section("fill") else {}

    def opt(section, key, conv):
        return conv(section[key]) if key in section else None

    fill_box = None
    if "box_anchor" in fill or "box_shape" in fill:
        if "box_anchor" not in fill or "box_shape" not in fill:
            raise ConfigError("fill box needs both box_anchor and box_shape")
        fill_box = (parse_ints(fill["box_anchor"]), parse_ints(fill["box_shape"]))
    try:
        return RunConfig(
            dim=int(run["dim"]),
            shapes=_parse_shapes(family["shapes"]),
            targets=_parse_fractions(targets["probs"]),
            tail_mass=Fraction(targets.get("tail_mass", "0")),
            window_shape=parse_ints(run["window"]),
            window_anchor=opt(run, "window_anchor", parse_ints) or (),
            seed=int(run.get("seed", "0")),
            mode=run.get("mode", "strict"),
            out_dir=run.get("out", "out"),
            out_format=run.get("format", "text"),
            count=opt(plan, "count", int),
            sides=opt(plan, "sides", parse_ints),
            gaps=opt(plan, "gaps", parse_ints),
            error_budgets=opt(plan, "error_budgets", _parse_fractions),
            cutoffs=opt(plan, "cutoffs", parse_ints),
            fill_inner=opt(fill, "inner_translate", parse_ints),
            fill_outer=opt(fill, "outer_translate", parse_ints),
            fill_box=fill_box,
        )
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser()
    parser["run"] = {
        "dim": str(cfg.dim),
        "seed": str(cfg.seed),
        "mode": cfg.mode,
        "window": _fmt_ints(cfg.window_shape),
        "window_anchor": _fmt_ints(cfg.window_anchor),
        "format": cfg.out_format,
    }
    parser["family"] = {"shapes": _fmt_shapes(cfg.shapes)}
    parser["targets"] = {
        "probs": _fmt_fractions(cfg.targets),
        "tail_mass": str(cfg.tail_mass),
    }
    plan = {}
    if cfg.count is not None:
        plan["count"] = str(cfg.count)
    if cfg.sides is not None:
        plan["sides"] = _fmt_ints(cfg.sides)
    if cfg.gaps is not None:
        plan["gaps"] = _fmt_ints(cfg.gaps)
    if cfg.error_budgets is not None:
        plan["error_budgets"] = _fmt_fractions(cfg.error_budgets)
    if cfg.cutoffs is not None:
        plan["cutoffs"] = _fmt_ints(cfg.cutoffs)
    if plan:
        parser["plan"] = plan
    fill = {}
    if cfg.fill_inner is not None:
        fill["inner_translate"] = _fmt_ints(cfg.fill_inner)
    if cfg.fill_outer is not None:
        fill["outer_translate"] = _fmt_ints(cfg.fill_outer)
    if cfg.fill_box is not None:
        fill["box_anchor"] = _fmt_ints(cfg.fill_box[0])
        fill["box_shape"] = _fmt_ints(cfg.fill_box[1])
    if fill:
        parser["fill"] = fill
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
