"""The serving wire format: JSON queries in, JSON answers out.

Two layers share this module:

* the **HTTP boundary** — :func:`decode_query` validates an untrusted
  JSON body into a :class:`DecodedQuery` (a real
  :class:`~repro.core.query.TopKQuery` plus execution knobs), raising
  :class:`ProtocolError` with a client-readable message for anything
  malformed (the front end maps it to ``400``); :func:`encode_result`
  renders a :class:`~repro.core.results.RetrievalResult` as a plain
  JSON-able dict. JSON floats round-trip exactly (``repr`` <-> parse),
  so the scores a client reads are bit-identical to the in-process
  answer — the fleet differential tests compare through this codec.

* the **IPC boundary** — :class:`WorkItem` / :class:`WorkReply`, the
  picklable records the front end and worker processes exchange over
  per-worker pipes. Query payloads cross as validated-but-raw
  dicts and are decoded again worker-side, so both processes build the
  model through one code path.

Deadlines travel as *absolute* ``time.monotonic()`` instants
(``deadline_at``): on Linux ``CLOCK_MONOTONIC`` is one system-wide
clock, so the worker can compute the remaining budget no matter how
long the request queued, and a request that expired while waiting still
executes with an immediately-firing token — returning the same
prefix-sound partial the in-process deadline machinery produces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.query import TopKQuery
from repro.core.results import RetrievalResult
from repro.models.base import Model
from repro.models.linear import LinearModel, hps_risk_model


class ProtocolError(ValueError):
    """A malformed request body/field (maps to HTTP 400)."""


#: Strategies a remote query may request (the service's set).
STRATEGIES = ("quadtree", "auto", "onion", "scan", "fused", "embed-scan")
#: Smallest deadline budget forwarded to the engine: the smallest
#: positive float, which rounds away when added to the monotonic clock.
#: An already-expired request therefore still runs, with a token whose
#: deadline is the instant it was made, so it fires at its first loop
#: check and yields a prefix-sound (possibly empty) partial instead of
#: an error.
MIN_DEADLINE_S = math.ulp(0.0)
#: Knob defaults a query payload may omit — one source of truth for the
#: front end's coalescing key and the worker's execution call.
KNOB_DEFAULTS: dict[str, Any] = {
    "strategy": "quadtree",
    "n_shards": None,
    "pruning": "sound",
    "heuristic_margin": 0.7,
    "use_cache": True,
}


# -- model codec -------------------------------------------------------------


def encode_model(model: Model) -> dict[str, Any]:
    """The JSON form of a model (linear models only — the one family
    whose scoring behaviour is fully determined by plain numbers)."""
    if not isinstance(model, LinearModel):
        raise ProtocolError(
            f"cannot encode model family {type(model).__name__}; the wire "
            "format carries linear models (or the named 'hps' model)"
        )
    return {
        "type": "linear",
        "coefficients": model.coefficients,
        "intercept": model.intercept,
        "name": model.name,
    }


def decode_model(payload: Any) -> Model:
    """Build a model from its JSON form (raises :class:`ProtocolError`)."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"model must be an object, got {type(payload).__name__}")
    kind = payload.get("type")
    if kind == "hps":
        return hps_risk_model()
    if kind != "linear":
        raise ProtocolError(
            f"unknown model type {kind!r}; expected 'linear' or 'hps'"
        )
    coefficients = payload.get("coefficients")
    if not isinstance(coefficients, Mapping) or not coefficients:
        raise ProtocolError("linear model needs a non-empty 'coefficients' object")
    clean: dict[str, float] = {}
    for name, value in coefficients.items():
        clean[str(name)] = _finite_number(value, f"coefficient {name!r}")
    intercept = _finite_number(payload.get("intercept", 0.0), "intercept")
    name = str(payload.get("name", "linear"))
    return LinearModel(clean, intercept=intercept, name=name)


def _finite_number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ProtocolError(f"{what} must be finite, got {number!r}")
    return number


# -- query codec -------------------------------------------------------------


@dataclass(frozen=True)
class DecodedQuery:
    """A validated remote query: the real query plus execution knobs."""

    query: TopKQuery
    strategy: str = "quadtree"
    n_shards: int | None = None
    pruning: str = "sound"
    heuristic_margin: float = 0.7
    use_cache: bool = True


def decode_query(payload: Any) -> DecodedQuery:
    """Validate one JSON query payload into a :class:`DecodedQuery`.

    Every malformed field raises :class:`ProtocolError` with a message
    naming the field — the front end forwards it verbatim in the 400
    body, and the worker treats a (should-be-impossible) late failure
    identically, so validation behaviour cannot drift between the two.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"query must be an object, got {type(payload).__name__}"
        )
    unknown = set(payload) - {
        "model", "k", "maximize", "region", "similar_to", "alpha",
        *KNOB_DEFAULTS,
    }
    if unknown:
        raise ProtocolError(f"unknown query fields: {sorted(unknown)}")
    model = decode_model(payload.get("model"))
    k = payload.get("k")
    if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
        raise ProtocolError(f"k must be a positive integer, got {k!r}")
    maximize = payload.get("maximize", True)
    if not isinstance(maximize, bool):
        raise ProtocolError(f"maximize must be a boolean, got {maximize!r}")
    region = _decode_region(payload.get("region"))
    similar_to = _decode_similar_to(payload.get("similar_to"))
    alpha = _finite_number(payload.get("alpha", 1.0), "alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ProtocolError(f"alpha must be in [0, 1], got {alpha!r}")
    strategy = payload.get("strategy", "quadtree")
    if strategy not in STRATEGIES:
        raise ProtocolError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    n_shards = payload.get("n_shards")
    if n_shards is not None and (
        isinstance(n_shards, bool)
        or not isinstance(n_shards, int)
        or n_shards < 1
    ):
        raise ProtocolError(
            f"n_shards must be a positive integer or null, got {n_shards!r}"
        )
    pruning = payload.get("pruning", "sound")
    if pruning not in ("sound", "heuristic"):
        raise ProtocolError(f"unknown pruning mode {pruning!r}")
    heuristic_margin = _finite_number(
        payload.get("heuristic_margin", 0.7), "heuristic_margin"
    )
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise ProtocolError("use_cache must be a boolean")
    try:
        query = TopKQuery(
            model=model,
            k=k,
            maximize=maximize,
            region=region,
            similar_to=similar_to,
            alpha=alpha,
        )
    except Exception as error:  # QueryError -> client error
        raise ProtocolError(str(error)) from None
    return DecodedQuery(
        query=query,
        strategy=strategy,
        n_shards=n_shards,
        pruning=pruning,
        heuristic_margin=heuristic_margin,
        use_cache=use_cache,
    )


def _decode_region(value: Any) -> tuple[int, int, int, int] | None:
    if value is None:
        return None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ProtocolError(
            f"region must be null or [row0, col0, row1, col1] integers, "
            f"got {value!r}"
        )
    return (value[0], value[1], value[2], value[3])


def _decode_similar_to(value: Any) -> tuple[int, int] | None:
    if value is None:
        return None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ProtocolError(
            f"similar_to must be null or [row, col] integers, got {value!r}"
        )
    return (value[0], value[1])


def encode_query(query: TopKQuery, **knobs: Any) -> dict[str, Any]:
    """The JSON payload for a query (client-side helper; round-trips
    through :func:`decode_query`). ``knobs`` are the optional execution
    fields (``strategy``, ``use_cache``, ...); unknown knobs raise."""
    bad = set(knobs) - set(KNOB_DEFAULTS)
    if bad:
        raise ProtocolError(f"unknown query knobs: {sorted(bad)}")
    payload: dict[str, Any] = {
        "model": encode_model(query.model),
        "k": query.k,
        "maximize": query.maximize,
        "region": list(query.region) if query.region is not None else None,
    }
    if query.similar_to is not None:
        payload["similar_to"] = list(query.similar_to)
    if query.alpha != 1.0:
        payload["alpha"] = query.alpha
    payload.update(knobs)
    return payload


def batch_key(payload: Mapping[str, Any]) -> tuple:
    """The coalescing compatibility key of a validated query payload.

    Two in-flight ``/query`` requests may share one ``top_k_batch``
    call iff these knobs agree: the batch path runs the quadtree
    structure with one ``pruning``/``heuristic_margin``/``use_cache``/
    ``n_shards`` setting for the whole call (deadlines stay per-query,
    so they are deliberately absent here).
    """
    return (
        payload.get("strategy", "quadtree"),
        payload.get("pruning", "sound"),
        float(payload.get("heuristic_margin", 0.7)),
        bool(payload.get("use_cache", True)),
        payload.get("n_shards"),
    )


# -- result codec ------------------------------------------------------------


def encode_result(result: RetrievalResult) -> dict[str, Any]:
    """A JSON-able view of one result (scores round-trip bit-exact)."""
    counter = result.counter
    return {
        "answers": [
            {"row": a.row, "col": a.col, "score": a.score}
            for a in result.answers
        ],
        "strategy": result.strategy,
        "complete": result.complete,
        "counter": {
            "data_points": counter.data_points,
            "model_evals": counter.model_evals,
            "partial_evals": counter.partial_evals,
            "flops": counter.flops,
            "tuples_examined": counter.tuples_examined,
            "nodes_visited": counter.nodes_visited,
            "total_work": counter.total_work,
            "wall_seconds": counter.wall_seconds,
        },
        "trace_id": result.trace.trace_id if result.trace is not None else None,
        "cancel_reason": (
            result.trace.cancel_reason if result.trace is not None else None
        ),
    }


# -- IPC records -------------------------------------------------------------

#: ``WorkItem.kind`` values workers accept. ``events`` drains the
#: worker's structured event log from a cursor (payload: last seq the
#: fleet has seen). ``crash`` and ``sleep`` are fault-injection hooks
#: for the recovery tests, enabled only when the fleet config sets
#: ``debug_hooks=True``.
WORK_KINDS = (
    "query", "batch", "stats", "warm", "events",
    "shutdown", "crash", "sleep",
)

#: ``WorkReply.metadata`` key carrying a shipped span tree (the compact
#: dict :func:`repro.telemetry.distributed.ship_trace` produces) when
#: the worker runs with ``ship_spans=True``.
REPLY_TRACE_KEY = "trace"


@dataclass
class WorkItem:
    """One unit of work shipped to a worker process.

    ``payload`` is kind-specific: a validated query payload dict
    (``query``), a list of payload dicts (``batch``), a warm spec
    (``warm``), or seconds to sleep (``sleep``). ``deadline_at`` is an
    absolute ``time.monotonic()`` instant (one per member for batches).
    """

    kind: str
    request_id: int
    payload: Any = None
    deadline_at: "float | list[float | None] | None" = None
    trace_id: str | None = None
    coalesced: bool = False


@dataclass
class WorkReply:
    """A worker's answer to one :class:`WorkItem`.

    ``ok=False`` carries ``error_kind`` (``"protocol"`` for client
    errors the front end maps to 400, ``"query"`` for
    :class:`~repro.exceptions.QueryError`, ``"internal"`` otherwise)
    plus the message.
    """

    request_id: int
    worker_id: int
    ok: bool
    value: Any = None
    error: str | None = None
    error_kind: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)


def deadline_remaining_s(
    deadline_at: float | None, now: float | None = None
) -> float | None:
    """Seconds of budget left (clamped to :data:`MIN_DEADLINE_S`), or
    ``None`` when the request carries no deadline."""
    if deadline_at is None:
        return None
    now = time.monotonic() if now is None else now
    return max(MIN_DEADLINE_S, deadline_at - now)
