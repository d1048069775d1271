"""Mobility-report analysis: ingestion, circulation indicator, and
exploratory spatial autocorrelation (global/local Moran with permutation
inference), plus SVG map and figure rendering."""

__version__ = "0.1.0"

from .ingest import (  # noqa: F401
    CATEGORIES,
    MobilityTable,
    ImputationReport,
    parse_cmr_csv,
    subregion_ids,
    impute_missing,
)
from .timeseries import Decomposition, stl_decompose  # noqa: F401
from .indicator import RadarConfig, CirculationSeries, radar_radii, radar_area, circulation_indicator  # noqa: F401
from .geometry import RegionGeometry, load_geojson  # noqa: F401
from .weights import (  # noqa: F401
    SpatialWeights,
    connect_islands_knn,
    queen_adjacency,
    rook_adjacency,
    row_standardize,
)
from .moran import (  # noqa: F401
    ValueField,
    spatial_lag,
    moran_global,
    moran_permutation,
    lisa_permutation,
    lisa_classify,
    LisaResult,
)
