"""InferenceSession: eval freeze, keying, batch-composition invariance.

The headline contract (ISSUE 4 / DESIGN.md section 8): a request's
logits are a pure function of (checkpoint, datapath config, input
bytes) — independent of which micro-batch the request lands in and of
the worker count.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.emu import BLOCK_ROWS, GemmConfig, matmul
from repro.fp.formats import FP16
from repro.models import MLP, SimpleCNN, TinyTransformer
from repro.nn import Sequential
from repro.nn.functional import im2col
from repro.nn.layers import Conv2d, Flatten, Linear
from repro.prng.streams import LFSRStream
from repro.serve import InferenceSession
from repro.serve.session import validate_payload

MAX_BATCH = 8


def _sr(rbits, seed=3):
    return GemmConfig.sr(rbits, seed=seed)


def _cnn_session(config, workers=1, **kwargs):
    return InferenceSession(SimpleCNN(4, 3, 4, seed=1), config,
                            workers=workers, **kwargs)


@pytest.fixture
def images(rng):
    return [rng.normal(size=(3, 8, 8)) for _ in range(MAX_BATCH)]


class TestBatchCompositionInvariance:
    """Same request alone, in a batch of 3, and in a batch of
    ``max_batch_size`` — bit-identical logits, for SR formats, across
    workers {1, 2}."""

    @pytest.mark.parametrize("rbits", [4, 9, 13])
    def test_cnn_sr_invariance(self, rbits, images):
        reference = None
        for workers in (1, 2):
            session = _cnn_session(_sr(rbits), workers=workers)
            alone = session.predict(images[0])
            batch3 = session.predict_batch([images[1], images[0],
                                            images[2]])[1]
            full = session.predict_batch(images)[0]
            assert np.array_equal(alone, batch3), \
                f"r={rbits} workers={workers}: batch-of-3 diverged"
            assert np.array_equal(alone, full), \
                f"r={rbits} workers={workers}: full batch diverged"
            if reference is None:
                reference = alone
            else:
                assert np.array_equal(alone, reference), \
                    f"r={rbits}: workers={workers} diverged from workers=1"

    def test_cnn_rn_invariance(self, images):
        session = _cnn_session(GemmConfig.rn(FP16))
        alone = session.predict(images[0])
        assert np.array_equal(alone, session.predict_batch(images)[0])

    def test_transformer_sr_invariance(self, rng):
        tokens = [rng.integers(0, 16, size=(12,)) for _ in range(4)]
        reference = None
        for workers in (1, 2):
            session = InferenceSession(
                TinyTransformer(16, 4, d_model=16, n_heads=2, max_len=16,
                                seed=2),
                _sr(9, seed=5), workers=workers)
            alone = session.predict(tokens[0])
            batched = session.predict_batch(tokens)[0]
            assert np.array_equal(alone, batched)
            if reference is None:
                reference = alone
            else:
                assert np.array_equal(alone, reference)

    def test_mlp_lfsr_stream_invariance(self, rng):
        xs = [rng.normal(size=(12,)) for _ in range(3)]

        def build(workers):
            from dataclasses import replace

            config = replace(GemmConfig.sr(9, seed=1),
                             stream=LFSRStream(lanes=256, seed=1))
            return InferenceSession(MLP(12, [8], 3, seed=4), config,
                                    workers=workers)

        session = build(1)
        alone = session.predict(xs[0])
        assert np.array_equal(alone, session.predict_batch(xs)[0])
        assert np.array_equal(alone, build(2).predict(xs[0]))

    def test_repeat_is_deterministic(self, images):
        session = _cnn_session(_sr(9))
        assert np.array_equal(session.predict(images[0]),
                              session.predict(images[0]))

    def test_order_within_batch_irrelevant(self, images):
        session = _cnn_session(_sr(9))
        forward = session.predict_batch(images[:3])
        backward = session.predict_batch(images[:3][::-1])
        for a, b in zip(forward, backward[::-1]):
            assert np.array_equal(a, b)


class TestDrawOrderPin:
    """The serving draw order in absolute terms, written from DESIGN
    section 4 with ``matmul`` and ``spawn`` alone: call ``g`` of the
    forward pass runs sample ``i``'s rows under ``group =
    config.stream.spawn(request_key).spawn((g,))``; it draws a call key
    of 4 x 16-bit values from ``group``, and row block ``j`` runs
    under ``group.spawn(call_key + (0, j))``.

    9x9 images give each sample 81 patch rows, blocks of 64 and 17;
    8x8 images give one block of 64 per sample, so the executor stacks
    blocks of several samples (stream groups) into one engine call, as
    it stacks the linear layer's one-row blocks."""

    def test_conv_then_linear(self, rng):
        self._check(rng, size=9, samples=2, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stacks_across_samples(self, rng, workers):
        self._check(rng, size=8, samples=5, workers=workers)

    @staticmethod
    def _check(rng, size, samples, workers):
        conv = Conv2d(2, 3, 3, rng=np.random.default_rng(1))
        linear = Linear(3 * size * size, 4, rng=np.random.default_rng(2))
        w_conv, w_lin = conv.weight.data.copy(), linear.weight.data.copy()
        config = _sr(9)
        session = InferenceSession(Sequential(conv, Flatten(), linear),
                                   config, workers=workers)
        xs = [rng.normal(size=(2, size, size)) for _ in range(samples)]
        got = session.predict_batch(xs)
        for x, logits in zip(xs, got):
            stream = config.stream.spawn(session.content_key(x)[1])

            def call(g, a, b):
                group = stream.spawn((g,))
                key = tuple(int(v) for v in
                            np.asarray(group.integers(16, (4,))).ravel())
                out = np.empty((a.shape[0], b.shape[1]))
                for j, r0 in enumerate(range(0, a.shape[0], BLOCK_ROWS)):
                    rows = slice(r0, r0 + BLOCK_ROWS)
                    block = replace(config,
                                    stream=group.spawn(key + (0, j)))
                    out[rows] = matmul(a[rows], b, block)
                return out

            cols, (oh, ow) = im2col(x[None], 3, 1, 1)
            hidden = call(0, cols, w_conv.T).reshape(oh, ow, 3)
            flat = hidden.transpose(2, 0, 1).reshape(1, -1)
            want = call(1, flat, w_lin.T)[0] + linear.bias.data
            assert np.array_equal(logits, want)


class TestFreezing:
    def test_weights_left_unchanged(self):
        """The session casts weights per call and never writes them."""
        for config in (_sr(9), _sr(4), GemmConfig.rn(FP16), None):
            model = SimpleCNN(4, 3, 4, seed=1)
            before = {name: p.data.tobytes()
                      for name, p in model.named_parameters()}
            session = InferenceSession(model, config)
            session.predict(np.ones((3, 8, 8)))
            assert {name: p.data.tobytes() for name, p
                    in model.named_parameters()} == before

    def test_model_left_in_eval_mode(self):
        model = SimpleCNN(4, 3, 4, seed=1)
        InferenceSession(model, _sr(9))
        assert all(not m.training for m in model.modules())


class TestWarm:
    def test_warm_parity(self, images):
        plain = _cnn_session(_sr(9))
        warmed = _cnn_session(_sr(9))
        # no input_spec on a directly built session: a no-op without a
        # sample, a real forward pass with one
        assert not warmed.warm()
        assert warmed.gemm_calls == 0
        assert warmed.warm(sample=images[0])
        assert warmed.gemm_calls > 0
        for x in images[:2]:
            assert np.array_equal(plain.predict(x), warmed.predict(x))

    def test_input_spec_synthesizes_the_sample(self):
        image = _cnn_session(
            _sr(9), input_spec={"kind": "image", "shape": [3, 8, 8]})
        tokens = InferenceSession(
            TinyTransformer(16, 4, d_model=8, n_heads=2, max_len=8, seed=0),
            _sr(9), input_spec={"kind": "tokens", "seq_len": 6,
                                "vocab_size": 16})
        for session in (image, tokens):
            assert session.warm()
            assert session.gemm_calls > 0


class TestContentKeys:
    def test_same_input_same_key(self, images):
        session = _cnn_session(_sr(9))
        assert session.content_key(images[0]) == \
            session.content_key(images[0].copy())

    def test_different_input_different_key(self, images):
        session = _cnn_session(_sr(9))
        assert session.content_key(images[0]) != \
            session.content_key(images[1])

    def test_fingerprint_feeds_key(self, images):
        a = _cnn_session(_sr(9), fingerprint="aaaa")
        b = _cnn_session(_sr(9), fingerprint="bbbb")
        assert a.content_key(images[0]) != b.content_key(images[0])

    def test_gemm_unarmed_outside_predict(self, images):
        session = _cnn_session(_sr(9))
        session.predict(images[0])
        with pytest.raises(RuntimeError, match="predict_batch"):
            session._gemm(np.ones((2, 3)), np.ones((3, 2)))


class TestValidateInput:
    """A session's input spec, as the server validates each request."""

    def test_image_shape_enforced(self, images):
        session = _cnn_session(
            _sr(9), input_spec={"kind": "image", "shape": [3, 8, 8]})
        spec = session.input_spec
        assert validate_payload(spec, images[0]).shape == (3, 8, 8)
        with pytest.raises(ValueError, match="expected input shape"):
            validate_payload(spec, np.zeros((3, 4, 4)))

    def test_tokens_validated(self):
        spec = {"kind": "tokens", "seq_len": 6, "vocab_size": 16}
        session = InferenceSession(
            TinyTransformer(16, 4, d_model=8, n_heads=2, max_len=8, seed=0),
            _sr(9), input_spec=spec)
        assert session.input_spec == spec
        out = validate_payload(spec, [1.0, 2, 3, 4, 5, 6])
        assert out.dtype == np.int64
        with pytest.raises(ValueError, match="token ids"):
            validate_payload(spec, [99, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="integral"):
            validate_payload(spec, [0.5, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="token shape"):
            validate_payload(spec, [1, 2, 3])

    def test_non_finite_rejected(self):
        specs = [None, {"kind": "image", "shape": [2]},
                 {"kind": "tokens", "seq_len": 2, "vocab_size": 4}]
        for spec in specs:
            assert validate_payload(spec, [1.0, 2.0]).shape == (2,)
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    validate_payload(spec, [1.0, value])

    def test_empty_batch(self, images):
        session = _cnn_session(_sr(9))
        assert session.predict_batch([]) == []

    def test_key_count_mismatch(self, images):
        session = _cnn_session(_sr(9))
        with pytest.raises(ValueError, match="keys"):
            session.predict_batch([images[0]], keys=[(1,), (2,)])
