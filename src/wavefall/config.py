"""Scenario configuration: JSON documents validated into typed objects.

A scenario bundles a grid, a tidal matrix, a packet definition and the run
settings; sweep-style experiments add ``masses``, ``shapes`` or ``dt_list``
blocks.  Each opt-in key is one entry in its table: an optional evolve key
in ``_EVOLVE_OPTIONS``, an optional block, with the command that reads it
and its run rule, in ``_OPTIONAL_BLOCKS``.  Loading for a command keeps only
the blocks it reads (every block is parsed for form, the others dropped)
and checks each run it makes (``runs()``) in order, as that run checks
itself: its packet with its amplitude table, then its steps' guards.  A bad
document fails with its first bad run's error before any packet is built,
and a table no run builds is not read; every number must be finite, and
unknown keys are rejected everywhere.
``resolved()`` returns the full document with defaults materialized (an
opt-in key appears only when set); every CSV/JSON the CLI writes embeds it.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalState
from .curvature import TidalMatrix
from .errors import ConfigError
from .packets import PacketShape, check_packet_preconditions, make_packet
from .propagate import EvolveConfig, StepScheme, check_kinetic_phase, check_tidal_factor
from .spectral import SpectralGrid

_GRID_KEYS = {"dim", "n", "extent"}
_PACKET_KEYS = {"shape", "params", "x0", "v0", "mass", "table"}
_SHAPE_KEYS = {"shape", "params", "table"}
_CURV_KEYS = {"tidal", "vacuum"}


def _block(doc: dict, name: str, allowed: set, required: tuple) -> dict:
    if name not in doc:
        raise ConfigError(f"missing config block {name!r}")
    block = doc[name]
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be an object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {unknown}")
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"{name!r} is missing keys: {missing}")
    return block


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    # false for NaN, the infinities and an integer too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


# optional evolve keys, each named as its EvolveConfig field, with its parser;
# resolved() echoes those whose value is not None
_EVOLVE_OPTIONS = {"record_every": _integer, "boundary_margin_fraction": _number,
                   "boundary_mass_tol": _number, "spectral_mass_tol": _number}
_EVOLVE_KEYS = {"dt", "steps", "scheme", *_EVOLVE_OPTIONS}


def _numbers(value, where: str, what: str = "a list of numbers") -> tuple[float, ...]:
    """A list of finite numbers; ``what`` completes the "must be" error."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be {what}")
    return tuple(_number(v, where) for v in value)


def _vector(value, dim: int, where: str) -> tuple[float, ...]:
    vec = _numbers(value, where, f"a list of {dim} numbers")
    if len(vec) != dim:
        raise ConfigError(f"{where} must have {dim} components, got {len(vec)}")
    return vec


def _parse_shape(block: dict, where: str) -> PacketShape:
    kind = block.get("shape")
    if not isinstance(kind, str):
        raise ConfigError(f"{where}.shape must be a string")
    params = _numbers(block.get("params", []), f"{where}.params")
    table = block.get("table")
    if table is not None and kind != "custom_table":
        raise ConfigError(f"{where}.table is only valid for custom_table shapes")
    if table is not None and not isinstance(table, str):
        raise ConfigError(f"{where}.table must be a file path string, got {table!r}")
    return PacketShape(kind, params, table)


def _shape_doc(shape: PacketShape) -> dict:
    table = {} if shape.table_path is None else {"table": shape.table_path}
    return {"shape": shape.kind, "params": list(shape.params), **table}


def _parse_shapes(value) -> tuple[PacketShape, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError("shapes must be a list of shape objects")
    parsed = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ConfigError(f"shapes[{i}] must be an object")
        bad = sorted(set(entry) - _SHAPE_KEYS)
        if bad:
            raise ConfigError(f"unknown keys in shapes[{i}]: {bad}")
        parsed.append(_parse_shape(entry, f"shapes[{i}]"))
    return tuple(parsed)


def _parse_dt_list(value) -> tuple[float, ...]:
    dt_list = _numbers(value, "dt_list")
    if any(d <= 0 for d in dt_list):
        raise ConfigError(f"dt_list entries must be positive, got {list(dt_list)}")
    return dt_list


def _parse_order_band(band) -> tuple[float, float]:
    if not isinstance(band, (list, tuple)) or len(band) != 2:
        raise ConfigError("order_band must be [low, high]")
    low, high = (_number(b, "order_band") for b in band)
    if low > high:
        raise ConfigError(f"order_band must be [low, high] with low <= high, got {band}")
    return low, high


# optional blocks, each named as its ScenarioConfig field, in parse order:
# the command that reads it, its parser, its echo and its run rule, the
# (mass, shape, dt) of each run it makes from the scenario and the block
_OPTIONAL_BLOCKS = {
    "masses": ("wep", lambda value: _numbers(value, "masses"), list,
               lambda cfg, masses: [(m, cfg.shape, cfg.evolve_cfg.dt) for m in masses]),
    "shapes": ("wep", _parse_shapes, lambda shapes: [_shape_doc(s) for s in shapes],
               lambda cfg, shapes: [(cfg.mass, s, cfg.evolve_cfg.dt) for s in shapes]),
    "dt_list": ("converge", _parse_dt_list, list,
                lambda cfg, dts: [(cfg.mass, cfg.shape, dt) for dt in dts]),
    "order_band": ("converge", _parse_order_band, list, lambda cfg, band: []),
}
_TOP_KEYS = {"grid", "packet", "curvature", "evolve", *_OPTIONAL_BLOCKS}


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated scenario with builders for its runtime objects."""

    grid: SpectralGrid
    tidal: TidalMatrix
    shape: PacketShape
    x0: tuple[float, ...]
    v0: tuple[float, ...]
    mass: float
    evolve_cfg: EvolveConfig
    scheme: StepScheme
    masses: tuple[float, ...] | None = None
    shapes: tuple[PacketShape, ...] | None = None
    dt_list: tuple[float, ...] | None = None
    order_band: tuple[float, float] | None = None

    @classmethod
    def from_dict(cls, doc: dict, command: str | None = None) -> "ScenarioConfig":
        """The validated scenario of ``doc``; for a ``command``, with only
        the optional blocks it reads, and with all of them for none."""
        if command not in (None, "run", "ripple", "wep", "converge"):
            raise ConfigError(f"unknown command {command!r}")
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = sorted(set(doc) - _TOP_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level keys: {unknown}")

        gb = _block(doc, "grid", _GRID_KEYS, ("dim", "n", "extent"))
        try:
            grid = SpectralGrid(dim=_integer(gb["dim"], "grid.dim"),
                                n=_integer(gb["n"], "grid.n"),
                                extent=_number(gb["extent"], "grid.extent"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        cb = _block(doc, "curvature", _CURV_KEYS, ("tidal",))
        entries = np.array(_numbers(cb["tidal"], "curvature.tidal",
                                    "a flat row-major list of numbers"))
        if entries.size != grid.dim ** 2:
            raise ConfigError(
                f"curvature.tidal needs {grid.dim ** 2} entries (row-major), got {entries.size}")
        vacuum = cb.get("vacuum", False)
        if not isinstance(vacuum, bool):
            raise ConfigError("curvature.vacuum must be a boolean")
        tidal = TidalMatrix(entries.reshape(grid.dim, grid.dim), vacuum=vacuum)

        pb = _block(doc, "packet", _PACKET_KEYS, ("shape", "x0", "v0", "mass"))
        shape = _parse_shape(pb, "packet")
        x0 = _vector(pb["x0"], grid.dim, "packet.x0")
        v0 = _vector(pb["v0"], grid.dim, "packet.v0")
        mass = _number(pb["mass"], "packet.mass")

        eb = _block(doc, "evolve", _EVOLVE_KEYS, ("dt", "steps"))
        scheme_name = eb.get("scheme", "strang")
        try:
            scheme = StepScheme(scheme_name)
        except ValueError as exc:
            raise ConfigError(f"evolve.scheme must be 'lie' or 'strang', got {scheme_name!r}") from exc
        try:
            # only the keys present are passed; EvolveConfig holds the defaults
            evolve_cfg = EvolveConfig(
                dt=_number(eb["dt"], "evolve.dt"),
                n_steps=_integer(eb["steps"], "evolve.steps"),
                **{key: parse(eb[key], f"evolve.{key}")
                   for key, parse in _EVOLVE_OPTIONS.items() if key in eb})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        blocks = {name: parse(doc[name])
                  for name, (_, parse, _, _) in _OPTIONAL_BLOCKS.items() if name in doc}
        blocks = {name: block for name, block in blocks.items()
                  if command in (None, _OPTIONAL_BLOCKS[name][0])}
        cfg = cls(grid=grid, tidal=tidal, shape=shape, x0=x0, v0=v0, mass=mass,
                  evolve_cfg=evolve_cfg, scheme=scheme, **blocks)
        # wep and converge make only their blocks' runs; ripple takes no kinetic step
        cfg.validate(own_run=command not in ("wep", "converge"), kinetic=command != "ripple")
        return cfg

    def runs(self, block: str | None = None) -> list[tuple[float, PacketShape, float]]:
        """The (mass, shape, dt) of each run the optional ``block`` makes, in
        order, by its run rule; for None, the runs of every block present,
        or the packet's own run at the evolve dt when they make none."""
        names = _OPTIONAL_BLOCKS if block is None else (block,)
        runs = [run for name in names if getattr(self, name) is not None
                for run in _OPTIONAL_BLOCKS[name][3](self, getattr(self, name))]
        return runs if runs or block else [(self.mass, self.shape, self.evolve_cfg.dt)]

    def validate(self, own_run: bool = True, kinetic: bool = True) -> None:
        """Check each of ``runs()`` in order, as ``make_packet`` and ``evolve``
        will: its packet, amplitude table included, then its step guards.
        Without ``own_run`` the packet's own run, made when no block makes
        one, is not checked, and without ``kinetic`` no kinetic phase is."""
        runs = self.runs() if own_run else [run for name in _OPTIONAL_BLOCKS
                                            for run in self.runs(name)]
        for mass, shape, dt in runs:
            check_packet_preconditions(self.grid, shape, self.x0, self.v0, mass)
            if kinetic:
                check_kinetic_phase(self.grid, mass, dt)
            check_tidal_factor(self.grid, self.tidal, mass, dt)

    # --- builders ---------------------------------------------------------

    def build_packet(self, mass: float | None = None, shape: PacketShape | None = None):
        return make_packet(self.grid, shape or self.shape, self.x0, self.v0,
                           self.mass if mass is None else mass)

    def classical_state(self) -> ClassicalState:
        return ClassicalState(x=np.asarray(self.x0), v=np.asarray(self.v0))

    def duration(self) -> float:
        return self.evolve_cfg.dt * self.evolve_cfg.n_steps

    def resolved(self) -> dict:
        """Full config document with defaults materialized (for echoing)."""
        ev = self.evolve_cfg
        doc = {
            "grid": {"dim": self.grid.dim, "n": self.grid.n, "extent": self.grid.extent},
            "packet": {**_shape_doc(self.shape), "x0": list(self.x0), "v0": list(self.v0),
                       "mass": self.mass},
            "curvature": {"tidal": [float(v) for v in self.tidal.entries.reshape(-1)],
                          "vacuum": self.tidal.vacuum},
            "evolve": {"dt": ev.dt, "steps": ev.n_steps, "scheme": self.scheme.value,
                       **{key: getattr(ev, key) for key in _EVOLVE_OPTIONS
                          if getattr(ev, key) is not None}},
        }
        for name, (_, _, echo, _) in _OPTIONAL_BLOCKS.items():
            if getattr(self, name) is not None:
                doc[name] = echo(getattr(self, name))
        return doc


def load_scenario(path, command: str | None = None) -> ScenarioConfig:
    """Read and validate a scenario file, for ``command`` as in
    ``ScenarioConfig.from_dict``; every read failure is a ConfigError.  A
    relative ``table`` path is made absolute against the file's directory
    first, so the scenario reads, checks and echoes that path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # a missing file, or a path that runs through a regular file
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    # a relative table path, the packet's or a shape's, names a file beside
    # the config; anything that is not a path string is left to from_dict
    if isinstance(doc, dict):
        shapes = doc.get("shapes")
        for block in [doc.get("packet"), *(shapes if isinstance(shapes, list) else ())]:
            if isinstance(block, dict) and isinstance(block.get("table"), str) and block["table"]:
                block["table"] = os.path.join(os.path.dirname(os.path.abspath(path)),
                                              block["table"])
    return ScenarioConfig.from_dict(doc, command)
