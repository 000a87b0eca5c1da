"""Named state dicts and checkpoint round trips."""

import json

import numpy as np
import pytest

from repro.emu import GemmConfig
from repro.fp.formats import FP12_E6M5, FP8_E5M2
from repro.models import (
    SimpleCNN,
    TinyTransformer,
    build_model_from_spec,
    mlp_spec,
    simple_cnn_spec,
    tiny_transformer_spec,
)
from repro.nn import Linear
from repro.nn.checkpoint import (
    load_checkpoint,
    rebind_parameters,
    save_checkpoint,
    state_fingerprint,
)
from repro.prng.streams import LFSRStream


class TestNamedStateDict:
    def test_names_are_module_paths(self, rng):
        model = SimpleCNN(4, 3, 4, seed=1)
        names = [n for n, _ in model.named_parameters()]
        assert names[0] == "features.layers.0.weight"
        assert "head.weight" in names and "head.bias" in names
        assert len(names) == len(set(names)), "duplicate qualified names"

    def test_named_order_matches_positional(self, rng):
        model = TinyTransformer(8, 3, d_model=8, n_heads=2, max_len=8,
                                seed=0)
        named = [p for _, p in model.named_parameters()]
        assert [id(p) for p in named] == [id(p) for p in model.parameters()]

    def test_load_rejects_positional_dict(self, rng):
        model = Linear(3, 2, rng=rng)
        positional = {i: p.data.copy() + 1.0
                      for i, p in enumerate(model.parameters())}
        with pytest.raises(KeyError, match="weight"):
            model.load_state_dict(positional)

    def test_load_missing_entry_raises(self, rng):
        model = Linear(3, 2, rng=rng)
        with pytest.raises(KeyError, match="bias"):
            model.load_state_dict({"weight": model.weight.data})

    @staticmethod
    def _trained_state(rng):
        model = SimpleCNN(4, 3, 4, seed=1)
        model(rng.normal(size=(8, 3, 8, 8)))   # advance running stats
        return model.state_dict()

    @pytest.mark.parametrize("load", ["copy", "rebind"])
    def test_load_requires_every_buffer(self, rng, load):
        """A parameter-only dict must not leave fresh running stats."""
        state = self._trained_state(rng)
        del state["features.layers.1.running_mean"]
        fresh = SimpleCNN(4, 3, 4, seed=2)
        with pytest.raises(KeyError,
                           match="buffer 'features.layers.1.running_mean'"):
            if load == "copy":
                fresh.load_state_dict(state)
            else:
                rebind_parameters(fresh, state)

    @pytest.mark.parametrize("name", ["features.layers.0.weight",
                                      "features.layers.1.running_var"])
    @pytest.mark.parametrize("load", ["copy", "rebind"])
    def test_load_rejects_misshaped_entry(self, rng, load, name):
        """A wrong-shaped entry must not broadcast into the tensor."""
        state = self._trained_state(rng)
        state[name] = np.zeros(1)
        fresh = SimpleCNN(4, 3, 4, seed=2)
        before = fresh.state_dict()[name]
        with pytest.raises(ValueError, match=f"'{name}'.*\\(1,\\)"):
            if load == "copy":
                fresh.load_state_dict(state)
            else:
                rebind_parameters(fresh, state)
        assert np.array_equal(fresh.state_dict()[name], before)

    def test_batchnorm_buffers_round_trip(self, rng):
        model = SimpleCNN(4, 3, 4, seed=1)
        model(rng.normal(size=(8, 3, 8, 8)))   # advance running stats
        state = model.state_dict()
        assert "features.layers.1.running_mean" in state
        fresh = SimpleCNN(4, 3, 4, seed=2)
        fresh.load_state_dict(state)
        bn = fresh.features.layers[1]
        assert np.array_equal(bn.running_mean,
                              state["features.layers.1.running_mean"])

    def test_buffers_follow_parameters(self, rng):
        model = SimpleCNN(4, 3, 4, seed=1)
        state = model.state_dict()
        names = [n for n, _ in model.named_parameters()]
        keys = list(state.keys())
        assert keys[:len(names)] == names
        assert all("running" in k for k in keys[len(names):])
        assert np.array_equal(state[names[0]], model.parameters()[0].data)


class TestCheckpointRoundTrip:
    def _model_and_spec(self):
        model = SimpleCNN(4, 3, 4, seed=1)
        spec = simple_cnn_spec(num_classes=4, in_channels=3, width=4,
                               image_size=8)
        return model, spec

    def test_round_trip_bitwise(self, tmp_path, rng):
        model, spec = self._model_and_spec()
        model(rng.normal(size=(4, 3, 8, 8)))   # non-trivial BN stats
        path = tmp_path / "ckpt.npz"
        fp = save_checkpoint(model, path, model_spec=spec,
                             gemm_config=GemmConfig.sr(9, seed=3))
        ckpt = load_checkpoint(path)
        assert ckpt.fingerprint == fp
        rebuilt = ckpt.build_model()
        model.eval(), rebuilt.eval()
        x = rng.normal(size=(2, 3, 8, 8))
        assert np.array_equal(model(x), rebuilt(x))

    def test_sidecar_contents(self, tmp_path):
        model, spec = self._model_and_spec()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path, model_spec=spec,
                        gemm_config=GemmConfig.sr(11, seed=5),
                        extra={"epochs": 3})
        meta = json.loads((tmp_path / "ckpt.json").read_text())
        assert meta["model"]["kind"] == "simple_cnn"
        assert meta["gemm"]["rbits"] == 11
        assert meta["gemm"]["stream"] == {"kind": "software", "seed": 5}
        assert meta["extra"] == {"epochs": 3}
        assert "head.weight" in meta["parameters"]

    def test_fingerprint_mismatch_detected(self, tmp_path):
        model, spec = self._model_and_spec()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path, model_spec=spec)
        meta = json.loads((tmp_path / "ckpt.json").read_text())
        meta["fingerprint"] = "0" * 16
        (tmp_path / "ckpt.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_checkpoint(path)
        assert load_checkpoint(path, verify=False).state

    def test_missing_sidecar(self, tmp_path):
        model, spec = self._model_and_spec()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path, model_spec=spec)
        (tmp_path / "ckpt.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(path)

    def test_fingerprint_tracks_weights_and_config(self):
        model, _ = self._model_and_spec()
        state = model.state_dict()
        base = state_fingerprint(state, None)
        assert state_fingerprint(state, None) == base
        assert state_fingerprint(
            state, GemmConfig.sr(9).to_spec()) != base
        state["head.bias"] = state["head.bias"] + 1.0
        assert state_fingerprint(state, None) != base

    def test_build_without_model_spec_raises(self, tmp_path):
        model, _ = self._model_and_spec()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match="model spec"):
            load_checkpoint(path).build_model()


class TestModelSpecs:
    @pytest.mark.parametrize("spec,shape", [
        (mlp_spec(12, [8, 4], 3, image_shape=[3, 2, 2]), (2, 3, 2, 2)),
        (simple_cnn_spec(3, 1, 4, 6), (2, 1, 6, 6)),
    ])
    def test_image_specs_build(self, spec, shape, rng):
        model = build_model_from_spec(spec)
        logits = model.eval()(rng.normal(size=shape))
        assert logits.shape == (2, spec["kwargs"]["num_classes"])

    def test_transformer_spec_builds(self, rng):
        spec = tiny_transformer_spec(16, 4, d_model=8, n_heads=2,
                                     max_len=8, seq_len=8, seed=0)
        model = build_model_from_spec(spec)
        logits = model.eval()(rng.integers(0, 16, size=(2, 8)))
        assert logits.shape == (2, 4)
        assert spec["input"] == {"kind": "tokens", "seq_len": 8,
                                 "vocab_size": 16}

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="unknown model kind"):
            build_model_from_spec({"kind": "nope"})


class TestGemmConfigSpec:
    @pytest.mark.parametrize("config", [
        GemmConfig(),
        GemmConfig.sr(9, seed=3),
        GemmConfig.sr(13, subnormals=False, seed=0, accum_order="pairwise"),
        GemmConfig.rn(FP12_E6M5),
        GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                   rounding="stochastic", rbits=7, per_step=False,
                   saturate=True, accum_order="chunked(8)"),
    ])
    def test_round_trip(self, config):
        spec = config.to_spec()
        again = GemmConfig.from_spec(json.loads(json.dumps(spec)))
        assert again.label == config.label
        assert again.to_spec() == spec

    def test_absent_optional_keys_default(self):
        # hand-trimmed sidecars tolerate missing fields like every
        # other spec key (regression: absent "rbits" raised KeyError)
        spec = GemmConfig.sr(9, seed=2).to_spec()
        del spec["rbits"]
        assert GemmConfig.from_spec(spec).rbits is None
        assert GemmConfig.from_spec({}).label == "FP32 baseline"

    def test_lfsr_stream_round_trips(self):
        config = GemmConfig(stream=LFSRStream(lanes=64, seed=9))
        spec = config.to_spec()
        assert spec["stream"] == {"kind": "lfsr", "seed": 9, "lanes": 64}
        rebuilt = GemmConfig.from_spec(spec)
        assert np.array_equal(rebuilt.stream.integers(5, (4,)),
                              LFSRStream(lanes=64, seed=9).integers(5, (4,)))

    def test_substream_not_serializable(self):
        config = GemmConfig.sr(9, seed=1)
        config = type(config)(stream=config.stream.spawn((1, 2)))
        with pytest.raises(ValueError, match="root streams"):
            config.to_spec()
