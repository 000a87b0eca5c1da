"""End-to-end serving: train tiny -> save -> serve -> concurrent HTTP.

Mirrors the CI smoke job and the ISSUE 4 acceptance demo: concurrent
``/predict`` requests return bit-identical logits for the same input
independent of batch composition and ``--workers``, with ``/stats``
showing cache hits > 0 on repeated inputs.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.data import loaders_for, make_cifar10_like
from repro.emu import GemmConfig
from repro.models import SimpleCNN, simple_cnn_spec
from repro.nn import Trainer, save_checkpoint
from repro.serve import InferenceSession, ServerApp, make_server
from repro.serve import server as server_mod

SRC = Path(__file__).resolve().parents[2] / "src"


def _train_tiny_cnn(tmp_path):
    """A few FP64 optimization steps, then checkpoint for SR serving."""
    dataset = make_cifar10_like(64, 16, 8, seed=0)
    model = SimpleCNN(dataset.num_classes, 3, 4, seed=1)
    train_loader, _ = loaders_for(dataset, batch_size=32, seed=0)
    trainer = Trainer(model, lr=0.05, epochs=1, weight_decay=1e-4)
    for images, labels in train_loader():
        trainer.train_batch(images, labels)
    path = tmp_path / "tiny_cnn.npz"
    spec = simple_cnn_spec(num_classes=dataset.num_classes, in_channels=3,
                           width=4, image_size=8, seed=1)
    save_checkpoint(model, path, model_spec=spec,
                    gemm_config=GemmConfig.sr(9, seed=3))
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return _train_tiny_cnn(tmp_path_factory.mktemp("serve"))


def _post(url, payload, timeout=30):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _raw_post(url, headers, body=b"", timeout=10):
    """POST hand-built headers (and ``body``) to ``/predict`` over a raw
    socket, keeping it open until the server answers or hangs up.

    Returns the answer's status code, or ``None`` when the server
    closed without answering; raises ``socket.timeout`` when it does
    neither within ``timeout`` seconds.
    """
    host, port = url.split("//")[1].split(":")
    with socket.create_connection((host, int(port)),
                                  timeout=timeout) as sock:
        sock.sendall(b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                     + headers + b"\r\n" + body)
        answer = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            answer += chunk
    return int(answer.split()[1]) if answer else None


class _RunningServer:
    def __init__(self, checkpoint, workers):
        session = InferenceSession.from_checkpoint(checkpoint,
                                                   workers=workers)
        self.app = ServerApp(session, max_batch_size=4, max_delay_ms=5.0,
                             cache_entries=64)
        self.server = make_server(self.app, port=0)
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.app.close()


class TestServingEndToEnd:
    def test_concurrent_requests_and_cache(self, checkpoint, rng):
        running = _RunningServer(checkpoint, workers=1)
        try:
            base = rng.normal(size=(3, 8, 8)).tolist()
            others = [rng.normal(size=(3, 8, 8)).tolist()
                      for _ in range(3)]
            results = {}

            def client(i, payload):
                results[i] = _post(running.url + "/predict",
                                   {"input": payload})

            # same input from 4 threads + 3 distinct companions
            threads = [threading.Thread(target=client, args=(i, base))
                       for i in range(4)]
            threads += [threading.Thread(target=client, args=(4 + j, x))
                        for j, x in enumerate(others)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert all(status == 200 for status, _ in results.values())
            same = [body["logits"] for _, body in results.values()
                    if body["key"] == results[0][1]["key"]]
            assert len(same) == 4
            assert all(logits == same[0] for logits in same), \
                "identical inputs answered differently"

            # repeats must be cache hits with identical logits
            status, repeat = _post(running.url + "/predict",
                                   {"input": base})
            assert status == 200 and repeat["cached"]
            assert repeat["logits"] == same[0]

            status, stats = _get(running.url + "/stats")
            assert status == 200
            assert stats["cache"]["hits"] > 0
            assert stats["requests"] == 8
            assert stats["batcher"]["samples"] >= 1
            assert stats["latency_ms"]["count"] == 8

            status, health = _get(running.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["config"] == "SR E6M5 r=9"
        finally:
            running.stop()

    def test_workers_do_not_change_answers(self, checkpoint, rng):
        x = rng.normal(size=(3, 8, 8)).tolist()
        logits = []
        for workers in (1, 2):
            running = _RunningServer(checkpoint, workers=workers)
            try:
                status, body = _post(running.url + "/predict",
                                     {"input": x})
                assert status == 200
                logits.append(body["logits"])
            finally:
                running.stop()
        assert logits[0] == logits[1], "--workers changed served logits"

    def test_error_paths(self, checkpoint):
        running = _RunningServer(checkpoint, workers=1)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(running.url + "/predict", {"input": [[0.0]]})
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(running.url + "/predict", {"wrong": 1})
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(running.url + "/nope")
            assert err.value.code == 404
            status, stats = _get(running.url + "/stats")
            assert stats["errors"] == 2
        finally:
            running.stop()

    def test_non_finite_input_is_a_counted_400(self, checkpoint):
        """``json.loads`` accepts NaN/Infinity literals; the server must
        not compute, cache or answer with non-JSON logits from them."""
        running = _RunningServer(checkpoint, workers=1)
        try:
            for value in (np.nan, np.inf, -np.inf):
                image = np.zeros((3, 8, 8))
                image[1, 2, 3] = value
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(running.url + "/predict", {"input": image.tolist()})
                assert err.value.code == 400
                assert "finite" in json.loads(err.value.read())["error"]
            status, stats = _get(running.url + "/stats")
            assert stats["errors"] == 3 and stats["requests"] == 0
            assert stats["cache"]["entries"] == 0
            assert stats["batcher"]["samples"] == 0
        finally:
            running.stop()


class TestErrorMapping:
    """``respond`` is the one error mapping of the HTTP handler and the
    pool replicas: a bad request is a counted 400, any other failure a
    counted 500."""

    class _App:
        errors = 0

        def record_error(self):
            self.errors += 1

    @staticmethod
    def _raise(error):
        def call():
            raise error
        return call

    def test_statuses_and_counts(self):
        app = self._App()
        assert server_mod.respond(app, lambda: {"ok": 1}) == (200, {"ok": 1})
        for error in (ValueError("v"), KeyError("k"), TypeError("t")):
            assert server_mod.respond(app, self._raise(error)) == \
                (400, {"error": str(error)})
        assert server_mod.respond(app, self._raise(RuntimeError("x"))) \
            == (500, {"error": "RuntimeError: x"})
        assert app.errors == 4


class TestRequestBody:
    """A bad ``Content-Length`` is answered, and counted, before any of
    the body is read; a client that sends less than it declared is cut
    off by the handler's socket timeout."""

    @pytest.fixture
    def running(self, checkpoint):
        running = _RunningServer(checkpoint, workers=1)
        yield running
        running.stop()

    def _errors(self, running):
        return _get(running.url + "/stats")[1]["errors"]

    @pytest.mark.parametrize("declared", [b"-1", b"abc", b"1_0", b"+5"])
    def test_invalid_length_is_a_counted_400(self, running, declared):
        start = time.monotonic()
        status = _raw_post(running.url, b"Content-Length: " + declared
                           + b"\r\n", b'{"input": []}')
        assert status == 400
        assert time.monotonic() - start < 5
        assert self._errors(running) == 1

    def test_oversized_length_is_a_counted_413(self, running):
        declared = str(server_mod.MAX_BODY_BYTES + 1).encode()
        start = time.monotonic()
        status = _raw_post(running.url,
                           b"Content-Length: " + declared + b"\r\n")
        assert status == 413
        assert time.monotonic() - start < 5
        assert self._errors(running) == 1

    def test_under_sent_body_is_cut_off(self, running, monkeypatch):
        assert 0 < server_mod._Handler.timeout <= 60
        # shorten the wait; the timeout is read per accepted connection
        monkeypatch.setattr(server_mod._Handler, "timeout", 1.0)
        start = time.monotonic()
        status = _raw_post(running.url, b"Content-Length: 100\r\n",
                           b'{"input": ')
        assert status == 408
        assert time.monotonic() - start < 5
        assert self._errors(running) == 1

    def test_valid_requests_still_served(self, running):
        body = json.dumps({"input": np.zeros((3, 8, 8)).tolist()}).encode()
        assert len(body) < server_mod.MAX_BODY_BYTES
        headers = b"Content-Length: %d\r\n" % len(body)
        assert _raw_post(running.url, headers, body) == 200
        assert self._errors(running) == 0


class TestServeCli:
    def test_module_entry_point(self, checkpoint):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--checkpoint", str(checkpoint), "--port", "0",
             "--workers", "1", "--max-delay-ms", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            url = None
            for _ in range(50):
                line = proc.stdout.readline()
                if line.startswith("serving on "):
                    url = line.split()[-1].strip()
                    break
            assert url, "server never announced its address"
            status, health = _get(url + "/healthz", timeout=10)
            assert status == 200 and health["status"] == "ok"
            status, body = _post(url + "/predict",
                                 {"input": np.zeros((3, 8, 8)).tolist()},
                                 timeout=30)
            assert status == 200 and len(body["logits"]) == 10
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
