"""Hantavirus Pulmonary Syndrome (HPS) risk retrieval.

The paper's flagship scenario (Sections 1, 2.1, 2.3; Figures 2-3):

* the published linear risk model ``R = 0.443*band4 + 0.222*band5 +
  0.153*band7 + 0.183*elevation`` over Landsat TM imagery and a DEM;
* the Figure 3 Bayesian network: a house is high-risk if it is
  surrounded by bushes and the weather showed a wet season followed by a
  dry season;
* ground-truth occurrences for the Section 4.1 accuracy metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import RasterRetrievalEngine
from repro.core.query import TopKQuery
from repro.core.results import RetrievalResult
from repro.data.raster import RasterLayer, RasterStack
from repro.models.bayes import BayesianNetwork, Variable
from repro.models.bayes_infer import VariableElimination
from repro.models.linear import LinearModel, hps_risk_model
from repro.synth.events import generate_occurrences, latent_risk_field
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem


@dataclass
class HpsScenario:
    """A complete synthetic HPS study area.

    ``stack`` holds the model's input layers; ``true_risk`` the latent
    data-generating risk; ``occurrences`` the sampled incident counts.
    """

    stack: RasterStack
    true_risk: np.ndarray
    occurrences: RasterLayer
    model: LinearModel

    @property
    def shape(self) -> tuple[int, int]:
        """Study-area grid shape."""
        return self.stack.shape


def build_scenario(
    shape: tuple[int, int] = (256, 256),
    seed: int = 42,
    event_rate: float = 0.02,
) -> HpsScenario:
    """Build a synthetic HPS study area.

    The latent truth uses the published coefficients over standardized
    layers plus noise, so the published model is a good-but-imperfect
    estimate of the generating process — giving the accuracy metrics
    real misses and false alarms.
    """
    dem = generate_dem(shape, seed=seed)
    stack = generate_scene(shape, seed=seed + 1, terrain=dem)
    stack.add(dem)

    model = hps_risk_model()
    truth = latent_risk_field(
        stack,
        coefficients=model.coefficients,
        noise_std=0.35,
        seed=seed + 2,
    )
    occurrences = generate_occurrences(truth, seed=seed + 3, base_rate=event_rate)
    return HpsScenario(
        stack=stack, true_risk=truth, occurrences=occurrences, model=model
    )


def retrieve_high_risk(
    scenario: HpsScenario,
    k: int = 25,
    progressive: bool = True,
    leaf_size: int = 16,
) -> RetrievalResult:
    """Top-K highest-risk locations under the published model."""
    engine = RasterRetrievalEngine(scenario.stack, leaf_size=leaf_size)
    query = TopKQuery(model=scenario.model, k=k)
    if progressive:
        return engine.progressive_top_k(query)
    return engine.exhaustive_top_k(query)


# --- Figure 3: the Bayesian house-risk network ---------------------------


def hps_bayes_network() -> BayesianNetwork:
    """The Figure 3 network for high-risk houses.

    Structure (arrows downward)::

        house   bushes        unusual_raining_season   dry_season
           \\     /                     \\               /
        house_surrounded_by_bushes   wet_then_dry_season
                      \\                 /
                       high_risk_house

    CPTs encode the rule conjunction softly: each intermediate is nearly
    deterministic in its parents, the leaf requires both intermediates.
    """
    network = BayesianNetwork(name="hps_house_risk")
    yes_no = ("yes", "no")

    network.add_variable(Variable("house", yes_no))
    network.add_variable(Variable("bushes", yes_no))
    network.add_variable(Variable("unusual_raining_season", yes_no))
    network.add_variable(Variable("dry_season", yes_no))
    network.add_variable(
        Variable("house_surrounded_by_bushes", yes_no),
        parents=("house", "bushes"),
    )
    network.add_variable(
        Variable("wet_then_dry_season", yes_no),
        parents=("unusual_raining_season", "dry_season"),
    )
    network.add_variable(
        Variable("high_risk_house", yes_no),
        parents=("house_surrounded_by_bushes", "wet_then_dry_season"),
    )

    network.set_cpt("house", np.array([0.35, 0.65]))
    network.set_cpt("bushes", np.array([0.40, 0.60]))
    network.set_cpt("unusual_raining_season", np.array([0.30, 0.70]))
    network.set_cpt("dry_season", np.array([0.50, 0.50]))

    # AND-like gates with small leak probabilities.
    and_gate = np.array(
        [
            [[0.95, 0.05], [0.05, 0.95]],  # parent1=yes: parent2 yes/no
            [[0.02, 0.98], [0.01, 0.99]],  # parent1=no
        ]
    )
    network.set_cpt("house_surrounded_by_bushes", and_gate)
    network.set_cpt("wet_then_dry_season", and_gate)
    network.set_cpt(
        "high_risk_house",
        np.array(
            [
                [[0.90, 0.10], [0.15, 0.85]],
                [[0.10, 0.90], [0.01, 0.99]],
            ]
        ),
    )
    network.validate()
    return network


def multimodal_risk_query(
    scenario: HpsScenario,
    stations: dict[tuple[int, int], "TimeSeries"],
    station_shape: tuple[int, int],
    risk_weight: float = 2.0,
    weather_weight: float = 1.0,
) -> "MultiModalQuery":
    """Fuse the linear imagery/DEM risk with the wet-then-dry weather rule.

    The Figure 3 note — "this model is multi-modal, as it consists of
    data from images and weather pattern" — realized end-to-end: the
    published linear model supplies a per-cell degree from the raster
    modality, and each weather region contributes the degree to which its
    season showed an unusual wet spell followed by a dry spell.

    ``stations`` maps station grid cells to their series; the study area
    is split into equal rectangular regions, one per station.
    """
    from repro.core.multimodal import (
        MultiModalQuery,
        RasterFactor,
        RegionFactor,
    )

    rows, cols = scenario.shape
    station_rows, station_cols = station_shape
    if len(stations) != station_rows * station_cols:
        raise ValueError(
            f"{len(stations)} stations for a "
            f"{station_rows}x{station_cols} grid"
        )
    region_rows = -(-rows // station_rows)
    region_cols = -(-cols // station_cols)
    regions = {
        (r, c): (
            r * region_rows,
            c * region_cols,
            min(rows, (r + 1) * region_rows),
            min(cols, (c + 1) * region_cols),
        )
        for r in range(station_rows)
        for c in range(station_cols)
    }

    return MultiModalQuery(
        scenario.stack,
        raster_factors=[
            RasterFactor("hps_linear_risk", scenario.model, weight=risk_weight)
        ],
        region_factors=[
            RegionFactor(
                "wet_then_dry",
                regions,
                stations,
                wet_then_dry_degree,
                weight=weather_weight,
            )
        ],
    )


def wet_then_dry_degree(series, counter=None) -> float:
    """Degree to which a season shows a wet spell followed by a dry spell.

    Splits the record in half: the degree is the (clipped) product of how
    wet the first half was and how dry the second half was, relative to
    climatology anchors — the fuzzy reading of Figure 3's
    "unusual raining season" followed by "dry season".
    """
    n_days = len(series)
    half = n_days // 2
    if half == 0:
        return 0.0
    first = series.read_range("rain_mm", 0, half, counter)
    second = series.read_range("rain_mm", half, n_days, counter)
    wet_fraction = float((first > 0.1).mean())
    dry_fraction = float((second <= 0.1).mean())
    wetness = min(1.0, wet_fraction / 0.4)  # 40% wet days = fully "wet"
    dryness = min(1.0, dry_fraction / 0.8)  # 80% dry days = fully "dry"
    return wetness * dryness


def find_high_risk_houses(
    scene,
    weather,
    k: int = 5,
    counter=None,
) -> list[tuple[float, "CompositeMatch"]]:
    """The full Figure 2-3 retrieval: houses surrounded by bushes, in a
    wet-then-dry season.

    Combines the SPROC spatial composite ("house region surrounded by
    bush region", from the imagery-derived semantic layers) with the
    weather rule degree; the final score is their product, so a house is
    high-risk only when both modalities agree — the rule conjunction of
    the paper's Bayesian reading, computed from data.

    Parameters
    ----------
    scene:
        A :class:`repro.synth.landuse.LanduseScene` (or anything with
        ``house_score``/``bush_score`` raster layers).
    weather:
        The study area's season as a :class:`~repro.data.series.TimeSeries`.
    k:
        Number of houses to return.

    Returns ``(combined_score, composite_match)`` pairs, best first.
    """
    from repro.sproc.spatial import find_surrounded

    weather_degree = wet_then_dry_degree(weather, counter)
    matches = find_surrounded(
        scene.house_score, scene.bush_score, k=k, counter=counter
    )
    return [(match.score * weather_degree, match) for match in matches]


def rank_houses_by_posterior(
    network: BayesianNetwork,
    observations: list[dict[str, str]],
    k: int = 10,
) -> list[tuple[int, float]]:
    """Rank observed locations by high-risk posterior, best first.

    ``observations`` holds per-location evidence dicts; returns
    ``(location_index, posterior)`` for the top K.
    """
    inference = VariableElimination(network)
    scored = [
        (index, inference.probability("high_risk_house", "yes", evidence))
        for index, evidence in enumerate(observations)
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]
