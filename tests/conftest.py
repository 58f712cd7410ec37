"""Shared fixtures: small synthetic scenes reused across test modules.

Besides the fixed scenes, this module hosts the *factory fixtures* the
service/kernel/batch suites share (``make_tie_stack``,
``make_noise_stack``, ``make_random_linear_model``, ``answer_list``):
session-scoped callables replacing the per-module helper copies that
used to live in ``test_service.py``, ``test_service_hardening.py`` and
``test_kernels.py``.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.data.raster import RasterLayer, RasterStack
from repro.models.linear import LinearModel, hps_risk_model
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem


@pytest.fixture(scope="session")
def small_shape() -> tuple[int, int]:
    """Grid shape small enough for exhaustive cross-checks."""
    return (48, 64)


@pytest.fixture(scope="session")
def dem(small_shape):
    """A deterministic fractal DEM."""
    return generate_dem(small_shape, seed=101)


@pytest.fixture(scope="session")
def scene_stack(small_shape, dem) -> RasterStack:
    """TM bands + DEM, the HPS model's input stack."""
    stack = generate_scene(small_shape, seed=202, terrain=dem)
    stack.add(dem)
    return stack


@pytest.fixture(scope="session")
def hps_model() -> LinearModel:
    """The paper's published HPS risk model."""
    return hps_risk_model()


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def wave_width_one(monkeypatch):
    """Run the tile search one frontier pop per step.

    At ``WAVE_WIDTH = 1`` the search is node for node the strict
    best-first loop it replaced, so expected values that *are* that
    loop's work counts (pinned from earlier commits) stay valid without
    being edited. Only tests whose expectations are such counts take
    this fixture; everything that compares two runs of the current step,
    or answers against an oracle, runs at the shipped width.
    """
    monkeypatch.setattr("repro.core.engine.WAVE_WIDTH", 1)


@pytest.fixture(scope="session")
def make_tie_stack():
    """Factory for stacks with heavy score-tie structure.

    Few distinct values per layer force score ties at the K boundary,
    exercising the deterministic smallest-``(row, col)`` tie-break
    across strategies, shard counts, and batch membership. By default
    the values are the integers 0-2 (exact arithmetic); ``reals=n``
    draws ``n`` two-decimal values instead, shared by every layer, so
    scores tie exactly while every sum rounds — the case where a bound
    and the score it covers must be one expression.
    """

    def _make_tie_stack(
        rows: int, cols: int, n_layers: int, seed: int, reals: int = 0
    ) -> RasterStack:
        generator = np.random.default_rng(seed)
        if reals:
            choices = np.round(generator.normal(0, 3, reals), 2)
        stack = RasterStack()
        for index in range(n_layers):
            if reals:
                values = generator.choice(choices, (rows, cols))
            else:
                values = generator.integers(
                    0, 3, size=(rows, cols)
                ).astype(float)
            stack.add(RasterLayer(f"layer{index}", values))
        return stack

    return _make_tie_stack


@pytest.fixture(scope="session")
def make_noise_stack():
    """Factory for generic normal-noise stacks (ties unlikely)."""

    def _make_noise_stack(
        rows: int, cols: int, n_layers: int, seed: int
    ) -> RasterStack:
        generator = np.random.default_rng(seed)
        stack = RasterStack()
        for index in range(n_layers):
            stack.add(
                RasterLayer(
                    f"layer{index}", generator.normal(size=(rows, cols))
                )
            )
        return stack

    return _make_noise_stack


@pytest.fixture(scope="session")
def make_random_linear_model():
    """Factory for random small-integer-coefficient linear models."""

    def _make_random_linear_model(
        stack: RasterStack, seed: int = 0
    ) -> LinearModel:
        generator = np.random.default_rng(seed)
        return LinearModel(
            {
                name: float(generator.choice([-2.0, -1.0, 1.0, 2.0]))
                for name in stack.names
            },
            intercept=0.5,
        )

    return _make_random_linear_model


@pytest.fixture(scope="session")
def answer_list():
    """The full answer identity of a result: ordered (row, col, score)
    triples, scores rounded to soak up float formatting noise only."""

    def _answer_list(result):
        return [(a.row, a.col, round(a.score, 9)) for a in result.answers]

    return _answer_list


@pytest.fixture(scope="session")
def raw_http():
    """Speak to a started HTTP server over one raw socket.

    ``raw_http(server, request_bytes, expect=n)`` writes the bytes
    verbatim (so a test controls every header) and parses ``n``
    responses off the same connection as ``(status, headers, body)``;
    ``closes=True`` additionally asserts the server then hung up. A
    dropped connection or a hang fails the test within ``timeout``.
    """

    def _raw_http(server, request, expect=1, closes=False, timeout=10.0):
        with socket.create_connection(
            (server.host, server.port), timeout=timeout
        ) as sock, sock.makefile("rb") as stream:
            sock.sendall(request)
            replies = []
            # One buffered stream for every response: a reader per
            # response would swallow the next one's bytes in its buffer.
            for _ in range(expect):
                status = int(stream.readline().split()[1])
                headers = {}
                while (line := stream.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip()] = value.strip()
                body = stream.read(int(headers["Content-Length"]))
                replies.append((status, headers, body))
            if closes:
                assert stream.read(1) == b""
            return replies

    return _raw_http


#: Request heads past the server's 64 KiB head limit, by what is big:
#: one header line, the request line, or 3,000 small headers (no line
#: near the limit, 90 KiB together).
OVERSIZED_HEADS = {
    "one_header": b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
    "request_line": b"GET /" + b"p" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
    "many_headers": b"GET /healthz HTTP/1.1\r\n"
    + b"".join(b"X-H%04d: %s\r\n" % (i, b"v" * 20) for i in range(3_000))
    + b"\r\n",
}


@pytest.fixture(params=sorted(OVERSIZED_HEADS))
def oversized_head(request) -> bytes:
    return OVERSIZED_HEADS[request.param]
