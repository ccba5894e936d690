"""Experiment configuration: parsing, validation, and model construction.

A single JSON file fully determines a run. Validation errors name the
offending field path. Node coefficients and sampled graphs are derived
deterministically from the run seed: the adjacency sampler consumes the
seed directly, the node-coefficient stream is ``default_rng([seed, 1])``,
and the clustering restarts are seeded with the same run seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import WsbmParams, laplacian, sample_adjacency
from .simulate import sample_steps
from .transfer import NetworkModel, RationalTF, sample_swing_nodes


@dataclass(frozen=True, eq=False)
class SimSettings:
    dt: float
    t_end: float
    input_node: int  # 0-based node index receiving the unit step


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated, immutable experiment description; ``config_from_dict`` sets the defaults."""

    wsbm: WsbmParams
    nodes: dict
    coupling: RationalTF
    k: int
    eta: float
    omega_min: float
    grid_size: int
    seeds: tuple
    scales: tuple
    restarts: int
    sim: SimSettings

    def to_dict(self):
        return {
            "wsbm": {
                "sizes": list(self.wsbm.sizes),
                "q": np.asarray(self.wsbm.q).tolist(),
                "w": np.asarray(self.wsbm.w).tolist(),
            },
            "nodes": self.nodes,
            "coupling": self.coupling.to_dict(),
            "k": self.k,
            "eta": self.eta,
            "omega_min": self.omega_min,
            "grid_size": self.grid_size,
            "seeds": list(self.seeds),
            "scales": list(self.scales),
            "restarts": self.restarts,
            "sim": {
                "dt": self.sim.dt,
                "t_end": self.sim.t_end,
                "input_node": self.sim.input_node,
            },
        }


def _require(d, key, path):
    if key not in d:
        raise ConfigError(f"config field '{path}{key}': missing")
    return d[key]


def _section(d, key, default=None):
    # a top-level object such as "nodes" or "sim"; its fields are looked up by name
    v = _require(d, key, "") if default is None else d.get(key, default)
    if not isinstance(v, dict):
        raise ConfigError(f"config field '{key}': expected an object")
    return v


def _is_int(v):
    # a JSON integer; true and false are bools, which Python counts as ints
    return type(v) is int


def _finite(v):
    # json reads NaN and Infinity; both fail the comparison, as do ints beyond float
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _number(d, key, path, default=None, minimum=None, integer=False):
    if key not in d:
        if default is None:
            raise ConfigError(f"config field '{path}{key}': missing")
        return default
    v = d[key]
    if integer and not _is_int(v):
        raise ConfigError(f"config field '{path}{key}': expected an integer")
    if not _finite(v):
        raise ConfigError(f"config field '{path}{key}': expected a finite number")
    if minimum is not None and v < minimum:
        raise ConfigError(f"config field '{path}{key}': must be >= {minimum}")
    return v


def config_from_dict(doc):
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")

    wsbm_doc = _require(doc, "wsbm", "")
    try:
        wsbm = WsbmParams(
            _require(wsbm_doc, "sizes", "wsbm."),
            _require(wsbm_doc, "q", "wsbm."),
            _require(wsbm_doc, "w", "wsbm."),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"config field 'wsbm': {exc}") from exc

    nodes_doc = _section(doc, "nodes")
    preset = _require(nodes_doc, "preset", "nodes.")
    if preset == "swing":
        nodes = {"preset": "swing"}
        for rng_key, default in (("m_range", [1.0, 3.0]), ("d_range", [0.5, 1.5])):
            lohi = nodes_doc.get(rng_key, default)
            if (
                not isinstance(lohi, list)
                or len(lohi) != 2
                or not all(map(_finite, lohi))
                or not 0 < lohi[0] <= lohi[1]
            ):
                raise ConfigError(f"config field 'nodes.{rng_key}': need finite 0 < lo <= hi")
            nodes[rng_key] = list(lohi)
    elif preset == "explicit":
        tfs = _require(nodes_doc, "tfs", "nodes.")
        try:
            for t in tfs:
                RationalTF(t["num"], t["den"])
        except Exception as exc:
            raise ConfigError(f"config field 'nodes.tfs': {exc}") from exc
        if len(tfs) != wsbm.n:
            raise ConfigError(f"config field 'nodes.tfs': {len(tfs)} entries for {wsbm.n} nodes")
        nodes = {"preset": "explicit", "tfs": [dict(t) for t in tfs]}
    else:
        raise ConfigError("config field 'nodes.preset': expected 'swing' or 'explicit'")

    coupling_doc = _require(doc, "coupling", "")
    try:
        coupling = RationalTF(coupling_doc["num"], coupling_doc["den"])
    except Exception as exc:
        raise ConfigError(f"config field 'coupling': {exc}") from exc

    k = _require(doc, "k", "")
    if not _is_int(k) or k < 1:
        raise ConfigError("config field 'k': expected a positive integer")

    eta = _number(doc, "eta", "", minimum=1e-12)
    omega_min = _number(doc, "omega_min", "", default=1e-3, minimum=1e-12)
    if omega_min >= eta:
        raise ConfigError("config field 'omega_min': must be below 'eta'")
    grid_size = _number(doc, "grid_size", "", default=200, minimum=2, integer=True)

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or any(not _is_int(s) or s < 0 for s in seeds):
        raise ConfigError("config field 'seeds': expected a nonempty list of nonnegative integers")
    scales = doc.get("scales", [1])
    if not isinstance(scales, list) or not scales or any(
        not _is_int(s) or s < 1 for s in scales
    ):
        raise ConfigError("config field 'scales': expected a nonempty list of positive integers")
    if preset == "explicit" and scales != [1]:
        raise ConfigError("config field 'scales': must be [1], since an explicit node list fixes n")

    restarts = _number(doc, "restarts", "", default=50, minimum=1, integer=True)

    sim_doc = _section(doc, "sim", {})
    sim = SimSettings(
        dt=_number(sim_doc, "dt", "sim.", default=1e-3, minimum=1e-9),
        t_end=_number(sim_doc, "t_end", "sim.", default=30.0, minimum=1e-9),
        input_node=_number(sim_doc, "input_node", "sim.", default=1, minimum=0, integer=True),
    )
    if sim.input_node >= wsbm.n:
        raise ConfigError(f"config field 'sim.input_node': must be below the {wsbm.n} nodes")
    if sim.dt > sim.t_end:
        raise ConfigError("config field 'sim.dt': must not exceed 'sim.t_end'")
    try:
        sample_steps(sim.t_end, sim.dt)
    except ValueError as exc:
        raise ConfigError(f"config field 'sim.dt': {exc}") from exc

    return ExperimentConfig(
        wsbm=wsbm,
        nodes=nodes,
        coupling=coupling,
        k=k,
        eta=float(eta),
        omega_min=float(omega_min),
        grid_size=grid_size,
        seeds=tuple(seeds),
        scales=tuple(scales),
        restarts=restarts,
        sim=sim,
    )


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"config file '{path}' cannot be read: {exc.strerror}") from exc
    return config_from_dict(doc)


def build_nodes(config, n, seed):
    """Node transfer functions for one run, deterministic in the seed.

    Returns (nodes, gamma) where gamma is the analytic passivity certificate
    1/min(d) for the swing preset and None for explicit node lists.
    """
    spec = config.nodes
    if spec["preset"] == "swing":
        rng = np.random.default_rng([seed, 1])
        nodes, _, d = sample_swing_nodes(
            n, rng, m_range=tuple(spec["m_range"]), d_range=tuple(spec["d_range"])
        )
        return nodes, 1.0 / float(d.min())
    tfs = [RationalTF(t["num"], t["den"]) for t in spec["tfs"]]
    if len(tfs) != n:
        raise ConfigError(f"config field 'nodes.tfs': {len(tfs)} entries for n={n} nodes")
    return tuple(tfs), None


def build_model(config, seed, scale=1):
    """Sample one network model: graph from the WSBM, nodes from the preset.

    Returns (model, params, gamma) where params carries the block sizes
    scaled by ``scale`` and gamma the analytic passivity certificate when
    available.
    """
    params = config.wsbm.scaled(scale)
    lap = laplacian(sample_adjacency(params, seed))
    nodes, gamma = build_nodes(config, params.n, seed)
    model = NetworkModel(nodes=nodes, coupling=config.coupling, laplacian=lap)
    return model, params, gamma
