"""Text grammars shared by the CLI and scenario files.

Family and sampler specs are ``name:key=value,...`` with ``|`` as the
list separator inside a value, e.g.

    normal-location:sigma=1
    exponential-rate:zeta=2
    tabulated:path=table.csv
    uniform:a=0,b=1
    gaussian-mixture:weights=0.5|0.5,means=0|3,sds=1|0.5
    point-mass:c=2

A ``zeta=`` key pins the conditioning value, which is how a family spec
names a fixed univariate CDF for the classic test.

Scenario files are flat ``key = value`` lines with ``#`` comments.  A
``#`` starts a comment only at the start of a line or after whitespace,
so a value may hold one (``tabulated:path=g#1.csv``):

    zeta_sampler = uniform:a=0,b=1
    null_family  = normal-location:sigma=1
    data_family  = normal-location:sigma=2   # optional, defaults to null
    n = 100
    replicates = 1000
    seed = 42
"""

from __future__ import annotations

import os
import re

from .conditional import (
    ConditionalCdfFamily,
    ExponentialRate,
    NormalLocation,
    TabulatedFamily,
    UniformWidth,
    utf8_errors,
)
from .monte_carlo import (
    GaussianMixtureSampler,
    PointMassSampler,
    Scenario,
    UniformSampler,
    ZetaSampler,
)

_SCENARIO_KEYS = {"zeta_sampler", "null_family", "data_family", "n", "replicates", "seed"}
_REQUIRED_SCENARIO_KEYS = _SCENARIO_KEYS - {"data_family"}


def _split_spec(text: str, what: str) -> tuple[str, dict[str, str]]:
    text = text.strip()
    if not text:
        raise ValueError(f"empty {what} spec")
    name, _, rest = text.partition(":")
    name = name.strip()
    params: dict[str, str] = {}
    if rest.strip():
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"{what} spec {text!r}: malformed parameter {part!r}")
            if key in params:
                raise ValueError(f"{what} spec {text!r}: duplicate key {key!r}")
            params[key] = value.strip()
    return name, params


def _pop(params: dict[str, str], key: str, spec: str,
         parse=float, wording: str = "a number"):
    """Remove ``key`` and return ``parse`` of its value; a missing key, an
    empty value or one ``parse`` refuses is a ValueError naming both."""
    raw = params.pop(key, None)
    if raw is None:
        raise ValueError(f"spec {spec!r}: missing required key {key!r}")
    try:
        if raw:
            return parse(raw)
    except ValueError:
        pass
    raise ValueError(f"spec {spec!r}: {key}={raw!r} is not {wording}")


def _build(spec: str, make, *args):
    """``make(*args)``, with a ValueError it raises worded with ``spec``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"spec {spec!r}: {exc}") from None


def _reject_extras(params: dict[str, str], spec: str) -> None:
    if params:
        key = next(iter(params))
        raise ValueError(f"spec {spec!r}: unknown key {key!r}")


def parse_family_spec(text: str, base_dir: str | None = None
                      ) -> tuple[ConditionalCdfFamily, float | None]:
    """Parse a family spec; returns (family, pinned zeta or None)."""
    name, params = _split_spec(text, "family")
    pinned = None
    if "zeta" in params:
        pinned = _pop(params, "zeta", text)
    family: ConditionalCdfFamily
    if name == "normal-location":
        sigma = _pop(params, "sigma", text) if "sigma" in params else 1.0
        family = _build(text, NormalLocation, sigma)
    elif name == "exponential-rate":
        family = ExponentialRate()
    elif name == "uniform-width":
        family = UniformWidth()
    elif name == "tabulated":
        path = _pop(params, "path", text, str, "a file path")
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        family = TabulatedFamily.from_csv(path)
    else:
        raise ValueError(f"unknown family {name!r} in spec {text!r}")
    _reject_extras(params, text)
    if pinned is not None and (reason := family.zeta_error(pinned)):
        raise ValueError(f"zeta={pinned} invalid for family '{family.name}': {reason}")
    return family, pinned


def parse_sampler_spec(text: str) -> ZetaSampler:
    name, params = _split_spec(text, "sampler")
    if name == "uniform":
        sampler: ZetaSampler = _build(text, UniformSampler, _pop(params, "a", text),
                                      _pop(params, "b", text))
    elif name == "point-mass":
        sampler = _build(text, PointMassSampler, _pop(params, "c", text))
    elif name == "gaussian-mixture":
        weights, means, sds = (
            _pop(params, key, text, lambda raw: [float(v) for v in raw.split("|")],
                 "a |-separated number list")
            for key in ("weights", "means", "sds")
        )
        if not len(weights) == len(means) == len(sds):
            raise ValueError(
                f"spec {text!r}: weights, means and sds must have equal length"
            )
        sampler = _build(text, GaussianMixtureSampler, tuple(zip(weights, means, sds)))
    else:
        raise ValueError(f"unknown sampler {name!r} in spec {text!r}")
    _reject_extras(params, text)
    return sampler


def load_scenario(path) -> Scenario:
    """Read a scenario config file.

    Relative ``tabulated:path=`` entries resolve against the scenario
    file's own directory.  A value that does not parse is a ValueError
    naming the file, the line and the key.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    values: dict[str, tuple[int, str]] = {}
    with utf8_errors(path), open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            if key not in _SCENARIO_KEYS:
                raise ValueError(f"{path}: line {lineno}: unknown scenario key {key!r}")
            if key in values:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            values[key] = lineno, value
    missing = _REQUIRED_SCENARIO_KEYS - values.keys()
    if missing:
        raise ValueError(f"{path}: missing scenario key {sorted(missing)[0]!r}")

    def read(key: str, parse=int):
        lineno, value = values[key]
        try:
            return parse(value)
        except ValueError as exc:
            if parse is int:
                exc = f"{value!r} is not an integer"
            raise ValueError(f"{path}: line {lineno}: scenario key {key!r}: {exc}") from None

    def load_family(text: str) -> ConditionalCdfFamily:
        family, pinned = parse_family_spec(text, base_dir=base_dir)
        if pinned is not None:
            raise ValueError("a pinned zeta has no meaning here, use a point-mass sampler instead")
        return family

    null_family = read("null_family", load_family)
    data_family = read("data_family", load_family) if "data_family" in values else None
    return Scenario(
        zeta_sampler=read("zeta_sampler", parse_sampler_spec),
        null_family=null_family,
        data_family=data_family,
        n=read("n"),
        replicates=read("replicates"),
        seed=read("seed"),
    )
