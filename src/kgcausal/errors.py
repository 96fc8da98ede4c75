"""Exception types shared across the package."""


class KgcausalError(Exception):
    """Base class for all package-specific errors."""


class KGLoadError(KgcausalError):
    """A knowledge-graph file could not be parsed or validated."""


class BackendUnavailable(KgcausalError):
    """The text-generation backend could not be reached after retries."""


class BackendRejected(KgcausalError):
    """The backend answered with a client error (HTTP 4xx) or an unfollowed redirect."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"backend rejected request (HTTP {status}): {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class CapabilityMissing(KgcausalError):
    """The backend response lacks a capability the caller requested."""


class UnparseableLabel(KgcausalError):
    """No known relation label could be found in the generated text."""
