"""Synthetic data generators.

The paper's evaluation data (Landsat TM imagery, USGS DEMs, weather-station
records, Schlumberger well logs, disease incident reports, FICO credit
records) is proprietary or lost; each generator here produces the closest
synthetic equivalent that exercises the same retrieval code path. The
substitution rationale per source is recorded in DESIGN.md Section 2.

All generators take an explicit ``seed`` and use ``numpy.random.Generator``;
no global random state is touched.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".credit": "CreditPopulation generate_credit_records",
        ".events": "generate_occurrences latent_risk_field",
        ".gaussian": "generate_gaussian_table",
        ".landsat": "generate_band generate_scene",
        ".landuse": "LanduseScene generate_landuse",
        ".terrain": "generate_dem",
        ".weather": "WeatherParams generate_weather",
        ".welllog": (
            "LITHOLOGY_CODES LITHOLOGY_NAMES WellLogParams "
            "generate_well_log"
        ),
    },
)
