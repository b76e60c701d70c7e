"""The declarative scenario DSL.

A *scenario* names everything one experiment run needs -- workload query,
SUT, per-stream rate profiles and key distributions, preloaded state,
and timed reconfigure actions -- as a small dict schema that serializes
to JSON.  Scenario files are the unit the batch runner
(:mod:`repro.experiments.runner`) sweeps: write one base file, expand it
over parameter axes, run each point through the calibrated
:class:`~repro.experiments.harness.Testbed`, and read the per-scenario
report.

Schema (all fields except ``name`` optional)::

    {
      "name": "million-user-flash-crowd",
      "sut": "rhino",                  # rhino | rhinodfs | flink | megaphone
      "query": "nbq8",                 # nbq5 | nbq8 | nbqx
      "duration": 60.0,                # virtual seconds of traffic
      "warmup": 10.0,                  # seconds before preload/actions
      "cooldown": 30.0,                # drain budget after traffic stops
      "seed": 42,
      "rate_scale": 1.0,               # scales query-default rates
      "preload_bytes": 0,              # prior state installed after warmup
      "checkpoint_interval": 20.0,
      "replication_factor": 1,
      "streams": {                     # per-topic overrides
        "persons": {
          "rate": {"kind": "flash-crowd", "base": 2.5e6,
                    "bursts": [[40.0, 20.0, 3.0]]},   # absolute sim time
          "keys": {"kind": "zipf", "key_space": 1000000, "exponent": 1.05},
          "keys_per_tick": 4
        }
      },
      "actions": [                     # timed SutHandle.reconfigure() calls,
        {"at": 35.0, "kind": "drain",  # `at` relative to warmup's end
         "params": {"machine": -1}}
      ]
    }

Rate-profile kinds: ``constant``, ``triangular``, ``diurnal``,
``flash-crowd`` (whose ``base`` may itself be a profile spec -- profiles
compose).  Key-distribution kinds: ``uniform``, ``zipf``, ``hot-set``
(whose ``base`` is a distribution spec).  Action kinds and their
``params`` are :data:`repro.experiments.harness.RECONFIGURE_KINDS`:
``drain`` / ``failure`` (``machine``), ``rescale`` (``add_instances``),
``rebalance`` (``moves``).
"""

import copy
import itertools
import json
from dataclasses import dataclass, field

from repro.common.errors import ReproError
from repro.experiments.harness import RECONFIGURE_KINDS
from repro.nexmark.generator import (
    DiurnalRate,
    FlashCrowdRate,
    HotKeys,
    TriangularRate,
    UniformKeys,
    ZipfKeys,
)

ACTION_KINDS = tuple(RECONFIGURE_KINDS)

RATE_KINDS = ("constant", "triangular", "diurnal", "flash-crowd")

KEY_KINDS = ("uniform", "zipf", "hot-set")


def build_rate(spec):
    """Instantiate a rate profile (float or callable) from its spec."""
    if isinstance(spec, (int, float)):
        return float(spec)
    if not isinstance(spec, dict):
        raise ReproError(f"rate spec must be a number or dict, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    try:
        if kind == "constant":
            return float(params.pop("rate"))
        if kind == "triangular":
            return TriangularRate(**params)
        if kind == "diurnal":
            return DiurnalRate(**params)
        if kind == "flash-crowd":
            base = build_rate(params.pop("base"))
            bursts = [tuple(b) for b in params.pop("bursts")]
            if params:
                raise TypeError(f"unexpected fields {sorted(params)}")
            return FlashCrowdRate(base, bursts)
    except KeyError as missing:
        raise ReproError(f"rate profile {kind!r} is missing field {missing}")
    except TypeError as error:
        raise ReproError(f"bad rate profile {kind!r}: {error}")
    raise ReproError(f"unknown rate profile kind {kind!r} (expected {RATE_KINDS})")


def build_keys(spec):
    """Instantiate a :class:`KeyDistribution` from its spec."""
    if not isinstance(spec, dict):
        raise ReproError(f"key-distribution spec must be a dict, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    try:
        if kind == "uniform":
            return UniformKeys(**params)
        if kind == "zipf":
            return ZipfKeys(**params)
        if kind == "hot-set":
            base = build_keys(params.pop("base"))
            return HotKeys(base, **params)
    except KeyError as missing:
        raise ReproError(f"key distribution {kind!r} is missing field {missing}")
    except TypeError as error:
        raise ReproError(f"bad key distribution {kind!r}: {error}")
    raise ReproError(f"unknown key distribution kind {kind!r} (expected {KEY_KINDS})")


def _check_fields(kind, data, allowed):
    unknown = set(data) - set(allowed)
    if unknown:
        raise ReproError(f"{kind} spec has unknown fields {sorted(unknown)}")


@dataclass
class StreamScenario:
    """Per-topic overrides of the query's default stream."""

    rate: object = None  # rate-profile spec, or None -> query default
    keys: object = None  # key-distribution spec, or None -> uniform
    keys_per_tick: int = None
    record_bytes: int = None

    FIELDS = ("rate", "keys", "keys_per_tick", "record_bytes")

    def to_dict(self):
        """The JSON-ready dict form (defaults omitted)."""
        out = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data):
        """Parse and validate one stream-override dict."""
        _check_fields("stream", data, cls.FIELDS)
        override = cls(**data)
        if override.rate is not None:
            build_rate(override.rate)  # validate eagerly
        if override.keys is not None:
            build_keys(override.keys)
        return override


@dataclass
class ReconfigureAction:
    """One timed reconfiguration.

    ``at`` counts virtual seconds from the end of warmup (the start of
    the measured traffic window) and must fall inside ``duration``.
    Rate profiles, by contrast, run on the raw simulation clock from
    t=0 -- warmup traffic included -- so burst windows in a
    ``flash-crowd`` profile are absolute times.
    """

    at: float
    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self):
        """The JSON-ready dict form."""
        out = {"at": self.at, "kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data):
        """Parse and validate one action dict."""
        _check_fields("action", data, ("at", "kind", "params"))
        action = cls(
            at=float(data["at"]), kind=data["kind"], params=dict(data.get("params", {}))
        )
        if action.kind not in ACTION_KINDS:
            raise ReproError(
                f"unknown action kind {action.kind!r} (expected {ACTION_KINDS})"
            )
        if action.at < 0:
            raise ReproError(f"action time must be >= 0, got {action.at}")
        return action


@dataclass
class Scenario:
    """One fully specified experiment point."""

    name: str
    sut: str = "rhino"
    query: str = "nbq8"
    duration: float = 60.0
    warmup: float = 10.0
    cooldown: float = 30.0
    seed: int = 42
    rate_scale: float = 1.0
    preload_bytes: float = 0.0
    checkpoint_interval: float = None
    replication_factor: int = 1
    streams: dict = field(default_factory=dict)  # topic -> StreamScenario
    actions: list = field(default_factory=list)  # [ReconfigureAction]

    FIELDS = (
        "name",
        "sut",
        "query",
        "duration",
        "warmup",
        "cooldown",
        "seed",
        "rate_scale",
        "preload_bytes",
        "checkpoint_interval",
        "replication_factor",
        "streams",
        "actions",
    )

    def to_dict(self):
        """The JSON-ready dict form."""
        out = {
            "name": self.name,
            "sut": self.sut,
            "query": self.query,
            "duration": self.duration,
            "warmup": self.warmup,
            "cooldown": self.cooldown,
            "seed": self.seed,
            "rate_scale": self.rate_scale,
            "preload_bytes": self.preload_bytes,
            "checkpoint_interval": self.checkpoint_interval,
            "replication_factor": self.replication_factor,
            "streams": {
                topic: override.to_dict() for topic, override in self.streams.items()
            },
            "actions": [action.to_dict() for action in self.actions],
        }
        return out

    @classmethod
    def from_dict(cls, data):
        """Parse and validate one scenario dict (strict: typos are errors)."""
        _check_fields("scenario", data, cls.FIELDS)
        if "name" not in data:
            raise ReproError("scenario needs a name")
        fields = dict(data)
        fields["streams"] = {
            topic: StreamScenario.from_dict(override)
            for topic, override in data.get("streams", {}).items()
        }
        fields["actions"] = [
            ReconfigureAction.from_dict(action) for action in data.get("actions", [])
        ]
        scenario = cls(**fields)
        if scenario.duration <= 0:
            raise ReproError("scenario duration must be positive")
        if scenario.warmup < 0 or scenario.cooldown < 0:
            raise ReproError("warmup/cooldown must be >= 0")
        for action in scenario.actions:
            if action.at >= scenario.duration:
                raise ReproError(
                    f"action at t={action.at} is after the scenario's "
                    f"duration ({scenario.duration})"
                )
        return scenario

    @classmethod
    def load(cls, path):
        """Read one scenario from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# -- sweeps ------------------------------------------------------------------


def _set_path(data, path, value):
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ReproError(f"sweep path {path!r} crosses non-dict {part!r}")
    node[parts[-1]] = value


def expand_sweep(base, axes):
    """The cross product of dotted-path overrides applied to ``base``.

    ``base`` is a scenario (or its dict form); ``axes`` maps dotted paths
    into the dict schema to lists of values, e.g.::

        expand_sweep(base, {
            "seed": [1, 2, 3],
            "streams.bids.keys.exponent": [1.05, 1.3],
        })

    returns ``3 x 2`` scenarios, each named ``<base>__seed=1_exponent=1.05``
    etc., so every sweep point is self-describing in the report.
    """
    base_dict = base.to_dict() if isinstance(base, Scenario) else dict(base)
    items = sorted(axes.items())
    for path, values in items:
        if not isinstance(values, (list, tuple)) or not values:
            raise ReproError(f"sweep axis {path!r} needs a non-empty list of values")
    scenarios = []
    for combo in itertools.product(*[values for _path, values in items]):
        point = copy.deepcopy(base_dict)
        labels = []
        for (path, _values), value in zip(items, combo):
            _set_path(point, path, value)
            labels.append(f"{path.rsplit('.', 1)[-1]}={value}")
        if labels:
            point["name"] = f"{base_dict.get('name', 'scenario')}__" + "_".join(labels)
        scenarios.append(Scenario.from_dict(point))
    return scenarios


def load_scenarios(path):
    """Load a scenario file: a single scenario or a ``{base, axes}`` sweep."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "base" in data:
        _check_fields("sweep", data, ("base", "axes"))
        return expand_sweep(data["base"], data.get("axes", {}))
    return [Scenario.from_dict(data)]
