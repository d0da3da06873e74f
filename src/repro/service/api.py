"""Typed requests, responses, errors and wire codecs of the refinement service.

Everything that crosses the service boundary is declared here, so the server,
the transport and the client share one vocabulary:

* the **error hierarchy** — every service failure is a
  :class:`ServiceError` with a stable machine-readable ``code`` and an
  HTTP-flavoured ``status`` (429 for backpressure, 404 for unknown sessions,
  402 for an exhausted budget, 400 for malformed input), so transports can
  map failures without string matching;
* the **response dataclasses** — immutable views the server hands back
  (:class:`SessionCreated`, :class:`MergeReport`, :class:`PosteriorView`,
  :class:`SelectionReply`, :class:`SessionClosed`), each with a
  ``to_payload`` / ``from_payload`` pair for the JSON transport;
* the **wire codecs** for the core value types — joint distributions travel
  as ``(support mask, probability)`` pairs (the session's native
  representation, so a posterior round-trips bit-for-bit), channel models as
  their uniform accuracy or per-fact override table, answers as a plain
  ``fact id → bool`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Type

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel, CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.exceptions import CrowdFusionError

#: Safety bound on one request *or response* line (a 20-fact support is
#: ~100 KB of JSON).  Both transport endpoints must size their stream
#: buffers from it: asyncio's default 64 KiB StreamReader limit would make
#: ``readline()`` raise on any realistic posterior payload.
MAX_LINE_BYTES = 8 * 1024 * 1024


# -- errors ----------------------------------------------------------------------------


class ServiceError(CrowdFusionError):
    """Base class of every refinement-service failure.

    ``code`` is the stable wire identifier; ``status`` the HTTP-flavoured
    class of the failure.  Both are class attributes so a transport can
    serialise any service error without knowing the concrete type.

    ``retry_safe`` is the server's explicit promise that the failed request
    performed **no state change** — a client may resend it without risking a
    double merge or double charge.  It travels on the wire, so the client's
    retry policy follows the server's verdict rather than guessing from
    status codes.  The conservative default is ``False``.
    """

    code = "service_error"
    status = 500
    retry_safe = False


class UnknownSessionError(ServiceError):
    """The addressed session id does not exist (never created, or closed)."""

    code = "unknown_session"
    status = 404


class SessionOverloadedError(ServiceError):
    """The session's bounded request queue is full — fail fast, retry later.

    The 429 of the service: per-tenant backpressure rejects new work
    *immediately* instead of letting one chatty tenant grow an unbounded
    backlog that starves every other tenant of the shared worker pools.
    Retry-safe by construction — the rejected request was never queued.
    """

    code = "session_overloaded"
    status = 429
    retry_safe = True


class BudgetExhaustedError(ServiceError):
    """The session's task budget ``B`` cannot cover the requested work."""

    code = "budget_exhausted"
    status = 402


class ValidationFailedError(ServiceError):
    """The request payload is structurally or semantically malformed."""

    code = "validation_failed"
    status = 400


class DeadlineExceededError(ServiceError):
    """The request's ``deadline_ms`` elapsed before the work started/finished.

    Retry-safe by contract: a deadline is only ever enforced at points where
    no session state has changed — before a queued job begins, before a merge
    is charged, or around a *read-only* selection/posterior computation whose
    abandoned result is discarded without touching the caches.  Merges that
    have started are never deadline-aborted (at-most-once would be lost).
    """

    code = "deadline_exceeded"
    status = 504
    retry_safe = True


class MergeAbortedError(ServiceError):
    """A queued merge never ran because an earlier merge in its batch failed.

    Its budget charge has been refunded and the posterior is exactly as if
    the request had never been sent — the retry-safe sibling of the
    *failed* merge (which stays a plain non-retry-safe ``service_error``:
    its session state is indeterminate).
    """

    code = "merge_aborted"
    status = 503
    retry_safe = True


#: ``code → exception class`` — how the client re-raises a wire error.
ERROR_TYPES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        ServiceError,
        UnknownSessionError,
        SessionOverloadedError,
        BudgetExhaustedError,
        ValidationFailedError,
        DeadlineExceededError,
        MergeAbortedError,
    )
}


def error_payload(error: ServiceError) -> Dict[str, Any]:
    """The wire form of a service error."""
    return {
        "code": error.code,
        "status": error.status,
        "message": str(error),
        "retry_safe": bool(error.retry_safe),
    }


def raise_from_payload(payload: Mapping[str, Any]) -> None:
    """Re-raise a wire error as its typed :class:`ServiceError` subclass.

    The wire ``retry_safe`` flag wins over the class default (an instance
    attribute shadows it), so a newer server's verdict survives a client
    that does not know the concrete error code.
    """
    error_type = ERROR_TYPES.get(str(payload.get("code")), ServiceError)
    error = error_type(str(payload.get("message", "service call failed")))
    if "retry_safe" in payload:
        error.retry_safe = bool(payload["retry_safe"])
    raise error


# -- core value codecs -----------------------------------------------------------------


def encode_distribution(distribution: JointDistribution) -> Dict[str, Any]:
    """A joint distribution as fact ids plus ``(mask, probability)`` pairs."""
    return {
        "fact_ids": list(distribution.fact_ids),
        "entries": [[mask, probability] for mask, probability in distribution.items()],
    }


def decode_distribution(payload: Mapping[str, Any]) -> JointDistribution:
    try:
        fact_ids = [str(fact_id) for fact_id in payload["fact_ids"]]
        entries = {int(mask): float(probability) for mask, probability in payload["entries"]}
    except (KeyError, TypeError, ValueError) as error:
        raise ValidationFailedError(f"malformed distribution payload: {error}") from None
    try:
        return JointDistribution(fact_ids, entries)
    except CrowdFusionError as error:
        raise ValidationFailedError(f"invalid distribution: {error}") from None


def encode_channel(channel: ChannelModel) -> Dict[str, Any]:
    """A channel model as its uniform accuracy or per-fact override table.

    Every heterogeneous model the service accepts reduces to a default
    accuracy plus overrides (:class:`PerFactChannelModel` is the concrete
    representation difficulty-adjusted and calibrated models are built on),
    so the wire form is behaviourally complete even though the concrete
    subclass name is not preserved.
    """
    if isinstance(channel, CrowdModel):
        return {"kind": "uniform", "accuracy": channel.accuracy}
    if isinstance(channel, PerFactChannelModel):
        return {
            "kind": "per_fact",
            "default_accuracy": channel.default_accuracy,
            "fact_accuracies": dict(channel.fact_accuracies),
        }
    raise ValidationFailedError(
        f"channel model {type(channel).__name__} has no wire representation; "
        "use CrowdModel or a PerFactChannelModel subclass"
    )


def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    """``payload`` itself, refused with a validation error unless a JSON object."""
    if not isinstance(payload, Mapping):
        raise ValidationFailedError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_channel(payload: Mapping[str, Any]) -> ChannelModel:
    kind = _require_mapping(payload, "a channel payload").get("kind")
    try:
        if kind == "uniform":
            return CrowdModel(float(payload["accuracy"]))
        if kind == "per_fact":
            overrides = _require_mapping(
                payload.get("fact_accuracies", {}), "fact_accuracies"
            )
            return PerFactChannelModel(
                float(payload["default_accuracy"]),
                {
                    str(fact_id): float(accuracy)
                    for fact_id, accuracy in overrides.items()
                },
            )
    except (KeyError, TypeError, ValueError) as error:
        raise ValidationFailedError(f"malformed channel payload: {error}") from None
    except CrowdFusionError as error:
        raise ValidationFailedError(f"invalid channel: {error}") from None
    raise ValidationFailedError(f"unknown channel kind {kind!r}")


def encode_answers(answers: AnswerSet) -> Dict[str, bool]:
    return answers.judgments()


def decode_answers(payload: Mapping[str, Any]) -> AnswerSet:
    if not _require_mapping(payload, "an answer payload"):
        raise ValidationFailedError("an answer payload cannot be empty")
    try:
        return AnswerSet.from_mapping(
            {str(fact_id): bool(value) for fact_id, value in payload.items()}
        )
    except (TypeError, ValueError, CrowdFusionError) as error:
        raise ValidationFailedError(f"malformed answers payload: {error}") from None


# -- responses -------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionCreated:
    """Receipt for a freshly created refinement session."""

    session_id: str
    num_facts: int
    support_size: int
    budget: int
    selector: str

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "num_facts": self.num_facts,
            "support_size": self.support_size,
            "budget": self.budget,
            "selector": self.selector,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SessionCreated":
        return cls(
            session_id=str(payload["session_id"]),
            num_facts=int(payload["num_facts"]),
            support_size=int(payload["support_size"]),
            budget=int(payload["budget"]),
            selector=str(payload["selector"]),
        )


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one Bayesian merge (``post_answers``)."""

    session_id: str
    rounds_merged: int
    answers_merged: int
    budget_remaining: int
    utility: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "rounds_merged": self.rounds_merged,
            "answers_merged": self.answers_merged,
            "budget_remaining": self.budget_remaining,
            "utility": self.utility,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MergeReport":
        return cls(
            session_id=str(payload["session_id"]),
            rounds_merged=int(payload["rounds_merged"]),
            answers_merged=int(payload["answers_merged"]),
            budget_remaining=int(payload["budget_remaining"]),
            utility=float(payload["utility"]),
        )


@dataclass(frozen=True)
class PosteriorView:
    """The session's current posterior (``get_posterior``).

    ``support`` is the native ``(mask, probability)`` representation — the
    same pairs a :class:`JointDistribution` is built from, so
    :meth:`distribution` reconstructs the posterior exactly.
    """

    session_id: str
    fact_ids: Tuple[str, ...]
    support: Tuple[Tuple[int, float], ...]
    marginals: Dict[str, float]
    utility: float
    rounds_merged: int

    def distribution(self) -> JointDistribution:
        """Materialise the posterior as a :class:`JointDistribution`."""
        return JointDistribution(list(self.fact_ids), dict(self.support))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "fact_ids": list(self.fact_ids),
            "support": [[mask, probability] for mask, probability in self.support],
            "marginals": dict(self.marginals),
            "utility": self.utility,
            "rounds_merged": self.rounds_merged,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PosteriorView":
        return cls(
            session_id=str(payload["session_id"]),
            fact_ids=tuple(str(fact_id) for fact_id in payload["fact_ids"]),
            support=tuple(
                (int(mask), float(probability)) for mask, probability in payload["support"]
            ),
            marginals={
                str(fact_id): float(value)
                for fact_id, value in payload["marginals"].items()
            },
            utility=float(payload["utility"]),
            rounds_merged=int(payload["rounds_merged"]),
        )


@dataclass(frozen=True)
class SelectionReply:
    """The next task set the session recommends (``select_next``)."""

    session_id: str
    task_ids: Tuple[str, ...]
    objective: float
    budget_remaining: int
    cached: bool

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "task_ids": list(self.task_ids),
            "objective": self.objective,
            "budget_remaining": self.budget_remaining,
            "cached": self.cached,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SelectionReply":
        return cls(
            session_id=str(payload["session_id"]),
            task_ids=tuple(str(task_id) for task_id in payload["task_ids"]),
            objective=float(payload["objective"]),
            budget_remaining=int(payload["budget_remaining"]),
            cached=bool(payload["cached"]),
        )


@dataclass(frozen=True)
class SessionClosed:
    """Receipt for an evicted session."""

    session_id: str
    rounds_merged: int
    budget_spent: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "rounds_merged": self.rounds_merged,
            "budget_spent": self.budget_spent,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SessionClosed":
        return cls(
            session_id=str(payload["session_id"]),
            rounds_merged=int(payload["rounds_merged"]),
            budget_spent=int(payload["budget_spent"]),
        )
