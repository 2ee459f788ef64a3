"""Exception hierarchy for the fuzzy-object kNN library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class InvalidFuzzyObjectError(ReproError):
    """Raised when a fuzzy object violates the model of Definition 1/2.

    Typical causes: empty point set, membership values outside ``(0, 1]``,
    an empty kernel when a kernel is required, or mismatched array shapes.
    """


class InvalidQueryError(ReproError):
    """Raised when query parameters are malformed.

    Examples: ``k <= 0``, a probability threshold outside ``(0, 1]`` or a
    probability range whose start exceeds its end.
    """


class EmptyAlphaCutError(ReproError):
    """Raised when an alpha-cut is empty and a distance cannot be evaluated.

    Under the paper's assumption that kernels are non-empty this can only
    happen for malformed objects, but the library surfaces it explicitly
    instead of silently returning ``inf``.
    """


class StorageError(ReproError):
    """Raised by the object store for missing objects or corrupt files."""


class ObjectNotFoundError(StorageError):
    """Raised when an object id is not present in the object store."""


class StorageCorruptionError(StorageError):
    """Raised when an on-disk file is damaged beyond what recovery tolerates.

    Recovery distinguishes two damage classes.  A *corrupt tail* — the
    expected artifact of a crash mid-append — is handled in place: the WAL
    replay truncates at the last intact record and continues.  A *bad file*
    (wrong magic, a record body that fails its checksum inside the committed
    prefix, a data file shorter than its slot table) cannot be repaired by
    truncation and surfaces as this error, carrying the ``path`` and byte
    ``offset`` of the damage so operators see exactly where the file broke
    instead of a raw ``struct``/codec traceback.
    """

    def __init__(self, message: str, path=None, offset=None):
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.offset = None if offset is None else int(offset)


class SerializationError(StorageError):
    """Raised when a fuzzy object cannot be encoded or decoded."""


class IndexError_(ReproError):
    """Raised by the R-tree for structural violations.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class BackpressureError(ReproError):
    """Base of every shed-and-retry-later error.

    Carries ``retry_after_ms`` — the service's estimate of how long the
    caller should back off before retrying (``None`` when the service cannot
    estimate one).
    """

    def __init__(self, message: str, retry_after_ms=None):
        super().__init__(message)
        self.retry_after_ms = None if retry_after_ms is None else float(retry_after_ms)


class ServiceOverloadedError(BackpressureError):
    """Raised when the query service sheds a request.

    The coalescer's admission control bounds the number of requests that may
    wait in its buckets (``QueryService(queue_depth=)``); submissions
    beyond the bound fail fast with this error instead of growing the queue
    without limit.  ``retry_after_ms`` is computed from the current queue
    depth and the coalescer's drain-rate EWMA, so callers back off for
    roughly as long as the backlog needs to clear.
    """


class ShardUnavailableError(BackpressureError):
    """Raised when a query cannot be answered because shards are down.

    Raised either because every shard failed, or because the request set
    ``require_full=True`` and at least one shard could not answer (worker
    failure exhausted its retries, or its circuit breaker is open).
    ``retry_after_ms`` reflects the longest open breaker's remaining cool-off
    — the earliest time a retry could possibly reach the sick shard again.
    ``shards`` lists the failed shard indices; ``reasons`` maps each to a
    short description of its last failure.
    """

    def __init__(self, message: str, retry_after_ms=None, shards=(), reasons=None):
        super().__init__(message, retry_after_ms=retry_after_ms)
        self.shards = tuple(shards)
        self.reasons = dict(reasons or {})


class DeadlineExceededError(ReproError):
    """Raised when a request's ``deadline_ms`` budget expires.

    Deadlines propagate from the request into the coalescer (expired-in-queue
    requests are withdrawn before execution), the planner, and the batch
    executor's traversal loop, so an expired request fails before burning a
    full traversal rather than after.
    """


class ServiceStoppedError(ReproError):
    """Raised when a request is submitted to a service that is not running."""


class FaultInjectedError(ReproError):
    """The error raised by an injected ``raise`` fault (chaos testing only).

    Lives in the production hierarchy so injected failures travel the exact
    code paths a real worker failure would, but is never raised outside a
    :class:`repro.service.faults.FaultPlan`.
    """
