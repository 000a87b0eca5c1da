"""Losses, optimizer, schedulers, loss scaler, module plumbing, trainer."""

import math

import numpy as np
import pytest

from repro.nn.loss import CrossEntropyLoss, MSELoss
from repro.nn.loss_scaler import DynamicLossScaler
from repro.nn.lr_scheduler import CosineAnnealingLR, MultiStepLR
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD


class TestCrossEntropy:
    def test_uniform_logits_loss(self):
        loss = CrossEntropyLoss()
        value = loss(np.zeros((4, 10)), np.array([0, 1, 2, 3]))
        assert value == pytest.approx(math.log(10))

    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        assert loss(logits, np.array([1, 2])) == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_finite_difference(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        loss(logits, labels)
        grad = loss.backward()
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                logits[i, j] += eps
                up = loss(logits, labels)
                logits[i, j] -= 2 * eps
                down = loss(logits, labels)
                logits[i, j] += eps
                assert grad[i, j] == pytest.approx((up - down) / (2 * eps),
                                                   abs=1e-5)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = CrossEntropyLoss()
        loss(rng.normal(size=(5, 7)), np.array([0, 1, 2, 3, 4]))
        assert np.allclose(loss.backward().sum(axis=1), 0.0)


class TestMSE:
    def test_value_and_gradient(self, rng):
        loss = MSELoss()
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        value = loss(pred, target)
        assert value == pytest.approx(np.mean((pred - target) ** 2))
        grad = loss.backward()
        assert np.allclose(grad, 2 * (pred - target) / pred.size)


class TestSGD:
    def test_plain_gradient_step(self):
        param = Parameter(np.array([1.0, 2.0]))
        param.grad[...] = [0.5, -0.5]
        opt = SGD([param], lr=0.1, momentum=0.0)
        opt.step()
        assert np.allclose(param.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        param = Parameter(np.array([0.0]))
        opt = SGD([param], lr=1.0, momentum=0.9)
        param.grad[...] = [1.0]
        opt.step()  # v = 1, x = -1
        param.grad[...] = [1.0]
        opt.step()  # v = 1.9, x = -2.9
        assert param.data[0] == pytest.approx(-2.9)

    def test_weight_decay(self):
        param = Parameter(np.array([10.0]))
        param.grad[...] = [0.0]
        opt = SGD([param], lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.step()
        assert param.data[0] == pytest.approx(10.0 - 0.1 * 1.0)

    def test_zero_grad(self):
        param = Parameter(np.array([1.0]))
        param.grad[...] = [3.0]
        SGD([param], lr=0.1).zero_grad()
        assert param.grad[0] == 0.0

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)


class TestSchedulers:
    def test_cosine_endpoints(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10)
        lrs = [sched.step() for _ in range(10)]
        assert lrs[0] < 1.0
        assert lrs[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # monotone decay

    def test_cosine_halfway(self):
        opt = SGD([Parameter(np.zeros(1))], lr=2.0)
        sched = CosineAnnealingLR(opt, t_max=10)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(1.0)

    def test_multistep(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = MultiStepLR(opt, milestones=[2, 4], gamma=0.1)
        lrs = [sched.step() for _ in range(5)]
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01, 0.01])


class TestDynamicLossScaler:
    def test_backoff_on_overflow(self):
        scaler = DynamicLossScaler(init_scale=1024)
        assert not scaler.update(found_overflow=True)
        assert scaler.scale == 512
        assert scaler.skipped_steps == 1

    def test_growth_after_interval(self):
        scaler = DynamicLossScaler(init_scale=8, growth_interval=3)
        for _ in range(3):
            assert scaler.update(found_overflow=False)
        assert scaler.scale == 16

    def test_scale_bounds(self):
        scaler = DynamicLossScaler(init_scale=1.0, min_scale=1.0)
        scaler.update(found_overflow=True)
        assert scaler.scale == 1.0
        scaler = DynamicLossScaler(init_scale=2 ** 24, growth_interval=1,
                                   max_scale=2 ** 24)
        scaler.update(found_overflow=False)
        assert scaler.scale == 2 ** 24

    def test_grads_finite_and_unscale(self):
        scaler = DynamicLossScaler(init_scale=4.0)
        param = Parameter(np.zeros(2))
        param.grad[...] = [4.0, 8.0]
        assert scaler.grads_finite([param])
        scaler.unscale([param])
        assert np.allclose(param.grad, [1.0, 2.0])
        param.grad[0] = np.inf
        assert not scaler.grads_finite([param])


class TestModulePlumbing:
    def test_parameter_discovery_nested(self, rng):
        model = Sequential(Linear(4, 3, rng=rng), ReLU(),
                           Sequential(Linear(3, 2, rng=rng)))
        params = model.parameters()
        assert len(params) == 4  # two weights + two biases

    def test_parameter_count(self, rng):
        model = Linear(4, 3, rng=rng)
        assert model.parameter_count() == 4 * 3 + 3

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self, rng):
        model = Linear(3, 3, rng=rng)
        state = model.state_dict()
        model.weight.data[...] = 0.0
        model.load_state_dict(state)
        assert np.array_equal(model.weight.data, state["weight"])

    def test_sequential_backward_order(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU(),
                           Linear(4, 2, rng=rng))
        out = model(rng.normal(size=(3, 4)))
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == (3, 4)


class TestScalerStepOrdering:
    """Regression: the scaler must grow *after* unscale/step, or every
    growth_interval-th step unscales by the doubled scale (halving the
    effective LR on exactly those steps)."""

    @staticmethod
    def _trainer(use_scaling, rng_seed=0):
        from repro.nn.trainer import Trainer

        model = Sequential(Linear(4, 8, rng=np.random.default_rng(rng_seed)),
                           ReLU(),
                           Linear(8, 2, rng=np.random.default_rng(rng_seed)))
        return Trainer(model, lr=0.1, epochs=1, weight_decay=0.0,
                       use_loss_scaling=use_scaling)

    def test_growth_step_gradient_magnitude(self, rng):
        """On the growth step, scaled and unscaled training must produce
        bit-identical parameter updates: scale/unscale by powers of two
        are exact, so any difference is an ordering bug."""
        x = rng.normal(size=(16, 4))
        labels = (x[:, 0] > 0).astype(np.int64)
        scaled = self._trainer(True)
        plain = self._trainer(False)
        scaled.scaler.growth_interval = 1  # every good step is a growth step
        for _ in range(3):
            scaled.train_batch(x, labels)
            plain.train_batch(x, labels)
        for p_scaled, p_plain in zip(scaled.model.parameters(),
                                     plain.model.parameters()):
            assert np.array_equal(p_scaled.data, p_plain.data)

    def test_nonfinite_probe_batch_raises_no_runtime_warning(self):
        """Regression: a non-finite operand reaching the FP64 fallback
        matmul (``default_gemm``) during a loss-scaler probe step leaked
        ``RuntimeWarning: invalid value encountered in matmul``.  The
        triggering path must run clean under ``-W error``."""
        import warnings

        trainer = self._trainer(True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trainer.train_batch(np.array([[np.inf, 1.0, 0.0, 0.0]]),
                                np.array([0]))
        assert trainer.scaler.skipped_steps == 1

    def test_scale_still_grows_and_backs_off(self, rng):
        trainer = self._trainer(True)
        trainer.scaler.growth_interval = 2
        x = rng.normal(size=(8, 4))
        labels = (x[:, 0] > 0).astype(np.int64)
        initial = trainer.scaler.scale
        trainer.train_batch(x, labels)
        assert trainer.scaler.scale == initial  # not yet
        trainer.train_batch(x, labels)
        assert trainer.scaler.scale == 2 * initial  # grew after interval
        trainer.train_batch(np.array([[np.inf, 1.0, 0.0, 0.0]]),
                            np.array([0]))
        assert trainer.scaler.scale == initial  # backed off
        assert trainer.scaler.skipped_steps == 1


class TestEpochLrReporting:
    """Regression: EpochStats.lr is the rate the epoch trained with, not
    the next epoch's (the scheduler steps *after* recording)."""

    def test_history_lr_lags_scheduler(self, rng):
        from repro.nn.trainer import Trainer

        model = Sequential(Linear(2, 2, rng=rng))
        trainer = Trainer(model, lr=0.5, epochs=4, weight_decay=0.0)
        x = rng.normal(size=(6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])

        def loader():
            yield x, labels

        result = trainer.fit(loader, loader)
        lrs = [s.lr for s in result.history]
        # epoch 0 trains at the base rate; epoch t at cosine(t)
        assert lrs[0] == pytest.approx(0.5)
        expected = [0.5]
        sched = CosineAnnealingLR(SGD([Parameter(np.zeros(1))], lr=0.5),
                                  t_max=4)
        for _ in range(3):
            expected.append(sched.step())
        assert lrs == pytest.approx(expected)


class TestTrainAccuracyBookkeeping:
    def test_last_probs_exposed(self, rng):
        loss = CrossEntropyLoss()
        with pytest.raises(RuntimeError):
            loss.last_probs
        logits = rng.normal(size=(4, 3))
        loss(logits, np.array([0, 1, 2, 0]))
        from repro.nn.functional import softmax

        assert np.array_equal(loss.last_probs, softmax(logits))

    def test_train_accuracy_uses_pre_step_forward(self, rng):
        """The recorded train accuracy comes from each batch's forward
        pass (before that batch's update)."""
        from repro.nn.functional import softmax
        from repro.nn.trainer import Trainer

        model = Sequential(Linear(3, 2, rng=rng))
        x = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, size=10)
        expected = np.argmax(softmax(model(x)), axis=1)
        trainer = Trainer(model, lr=0.05, epochs=1, weight_decay=0.0)

        def loader():
            yield x, labels

        result = trainer.fit(loader, loader)
        want = float(np.mean(expected == labels))
        assert result.history[0].train_accuracy == pytest.approx(want)


class TestTrainer:
    def test_loss_decreases_on_separable_data(self, rng):
        from repro.nn.trainer import Trainer

        n = 200
        x = rng.normal(size=(n, 4))
        labels = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        model = Sequential(Linear(4, 8, rng=rng), ReLU(),
                           Linear(8, 2, rng=rng))
        trainer = Trainer(model, lr=0.1, epochs=8, weight_decay=0.0)

        def loader():
            for start in range(0, n, 50):
                yield x[start:start + 50], labels[start:start + 50]

        result = trainer.fit(loader, loader)
        assert result.history[-1].train_loss < result.history[0].train_loss
        assert result.final_accuracy > 0.9
        assert result.best_accuracy >= result.final_accuracy - 1e-9

    def test_overflow_skips_step_and_backs_off(self, rng):
        from repro.nn.trainer import Trainer

        model = Sequential(Linear(2, 2, rng=rng))
        trainer = Trainer(model, lr=0.1, epochs=1)
        before = model.parameters()[0].data.copy()
        scale_before = trainer.scaler.scale
        x = np.array([[np.inf, 1.0]])  # guaranteed non-finite gradients
        trainer.train_batch(x, np.array([0]))
        assert trainer.scaler.scale < scale_before  # backed off
        assert np.array_equal(model.parameters()[0].data, before)  # skipped

    def test_evaluate_restores_prior_mode(self, rng):
        """Regression: evaluate() used to force-enable training mode,
        even when called on a frozen/eval model."""
        from repro.nn.trainer import Trainer

        model = Sequential(Linear(4, 2, rng=rng))
        trainer = Trainer(model, lr=0.1, epochs=1)

        def loader():
            yield rng.normal(size=(8, 4)), np.zeros(8, dtype=np.int64)

        model.eval()
        trainer.evaluate(loader())
        assert not model.training, "evaluate() flipped an eval model " \
                                   "back into training mode"
        model.train()
        trainer.evaluate(loader())
        assert model.training
