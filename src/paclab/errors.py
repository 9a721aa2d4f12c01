"""Exception hierarchy shared across the library.

Every error the public API can raise is a subclass of PaclabError, so
callers (and the CLI) can map failures to exit codes without string
matching.
"""


class PaclabError(Exception):
    """Base class for all library errors."""


# ---- distribution construction ----

class EmptySupport(PaclabError):
    """Uniform distribution requested over an empty set."""


class BadWeights(PaclabError):
    """Mixture weights are negative or do not sum to exactly 1."""


class BadDistribution(PaclabError):
    """Probability mass function violates an invariant (mass != 1, p <= 0)."""


class EmptySample(PaclabError):
    """Operation requires a non-empty sample."""


# ---- family construction ----

class BadEta(PaclabError):
    """Mixture level outside (0, 1]."""


class BadN(PaclabError):
    """Stage width must be >= 1."""


class NonVanishing(PaclabError):
    """The stage sequence cannot be certified to drop below the target."""


class EtaAboveGmax(PaclabError):
    """Requested loss level exceeds the loss rule's attainable maximum."""


class LengthMismatch(PaclabError):
    """Function tables do not share a prefix length."""


class EmptyList(PaclabError):
    """At least one table is required."""


# ---- learners ----

class EmptyClass(PaclabError):
    """Learner needs a non-empty candidate class."""


class MixedTasks(PaclabError):
    """Aggregated learners must share one task kind."""


class SampleTooSmall(PaclabError):
    """Sample too short to split."""


class ClassTooLarge(PaclabError):
    """Finite enumeration would exceed the configured member budget."""


# ---- harness ----

class BadPrecondition(PaclabError):
    """Pairing called outside its contract."""


class BadRange(PaclabError):
    """An argument outside its range: Markov conversion bounds, a sample size."""


class EnumerationBudgetExceeded(PaclabError):
    """Exact oracle would enumerate more sample points than allowed."""


class EmptyEstimate(PaclabError):
    """Monte Carlo estimate requested with no trials or no targets."""


class SearchBoundExceeded(PaclabError):
    """Sample-complexity search exhausted its grid without certifying.

    Carries the bracketing information: the largest tested m and the
    per-target status at that level.
    """

    def __init__(self, message: str, last_m: int, detail=None):
        super().__init__(message)
        self.last_m = last_m
        self.detail = detail


# ---- CLI ----

class ConfigError(PaclabError):
    """Invalid experiment configuration; `field` holds the JSON path."""

    def __init__(self, field: str, message: str = ""):
        super().__init__(f"config field '{field}': {message}" if message else f"config field '{field}'")
        self.field = field
