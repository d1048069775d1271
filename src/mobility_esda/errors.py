"""Exception hierarchy shared across the package."""


class MobilityError(Exception):
    """Base class for all package errors."""


class SchemaError(MobilityError):
    """Input file header/schema does not match expectations."""


class DataError(MobilityError):
    """Input data is structurally valid but unusable (gaps, missing coverage)."""


class ParameterError(MobilityError):
    """An operation was called with invalid parameters."""


class GeometryError(MobilityError):
    """A polygon ring is degenerate or otherwise invalid."""


class ZeroVarianceError(MobilityError):
    """A value field is constant; Moran statistics are undefined."""


class NotFoundError(MobilityError):
    """A requested region/country key does not exist in the data."""


class IdMismatchError(MobilityError):
    """Geometry and mobility region ids do not reconcile."""
