"""The optimizer, the loss, training loop, early stopping, and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    EarlyStopping,
    Module,
    Parameter,
    Sequential,
    Tensor,
    Trainer,
    load_model_bytes,
    mse_loss,
    save_model_bytes,
)

RNG = np.random.default_rng(21)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0]))
        target = Tensor(np.array([1.0, 4.0, 2.0]))
        assert mse_loss(pred, target).item() == pytest.approx((0 + 4 + 1) / 3)

    def test_mse_gradient(self):
        pred = Tensor(np.array([2.0, 0.0]), requires_grad=True)
        mse_loss(pred, Tensor(np.array([0.0, 0.0]))).backward()
        np.testing.assert_allclose(pred.grad, [2.0, 0.0])

class QuadraticModel(Module):
    """f(w) = w; used so loss (w - target)^2 has a known minimum."""

    def __init__(self, start):
        super().__init__()
        self.w = Parameter(np.array(start, dtype=float))

    def forward(self):
        return self.w


class TestOptimizers:
    def _minimize(self, optimizer_factory, steps=300):
        model = QuadraticModel([5.0, -3.0])
        target = Tensor(np.array([1.0, 2.0]))
        opt = optimizer_factory(model.parameters())
        for _ in range(steps):
            opt.zero_grad()
            loss = mse_loss(model(), target)
            loss.backward()
            opt.step()
        return model.w.numpy()

    def test_adam_converges(self):
        final = self._minimize(lambda p: Adam(p, lr=0.1), steps=500)
        np.testing.assert_allclose(final, [1.0, 2.0], atol=1e-3)

    def test_adam_skips_params_without_grad(self):
        model = QuadraticModel([1.0])
        opt = Adam(model.parameters(), lr=0.1)
        opt.step()  # no backward yet; must not crash or move weights
        np.testing.assert_allclose(model.w.numpy(), [1.0])

    def test_invalid_hyperparameters(self):
        params = list(QuadraticModel([1.0]).parameters())
        with pytest.raises(ValueError):
            Adam(params, lr=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class Regressor(Module):
    def __init__(self, in_features, rng):
        super().__init__()
        self.net = Sequential(Dense(in_features, 16, activation="relu", rng=rng), Dense(16, 1, rng=rng))

    def forward(self, x):
        return self.net(Tensor(x)).reshape(-1)


def _toy_regression(n=400, noise=0.01):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 3))
    y = 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] ** 2 + noise * rng.standard_normal(n)
    return x, y


class TestTrainer:
    def test_fit_reduces_loss(self):
        x, y = _toy_regression()
        model = Regressor(3, np.random.default_rng(1))
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), batch_size=64, max_epochs=30,
            rng=np.random.default_rng(2),
        )
        history = trainer.fit({"x": x}, y)
        assert history.train_loss[-1] < history.train_loss[0] * 0.3

    def test_early_stopping_restores_best(self):
        x, y = _toy_regression()
        split = 300
        model = Regressor(3, np.random.default_rng(1))
        stopper = EarlyStopping(patience=3)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.01),
            batch_size=64,
            max_epochs=200,
            early_stopping=stopper,
            rng=np.random.default_rng(2),
        )
        history = trainer.fit({"x": x[:split]}, y[:split], {"x": x[split:]}, y[split:])
        assert history.epochs_run < 200
        # The restored weights should achieve the recorded best val loss.
        final_val = trainer.evaluate({"x": x[split:]}, y[split:])
        assert final_val == pytest.approx(stopper.best_loss, rel=1e-9)

    def test_early_stopping_requires_validation(self):
        model = Regressor(3, np.random.default_rng(1))
        trainer = Trainer(model, Adam(model.parameters()), early_stopping=EarlyStopping())
        x, y = _toy_regression(20)
        with pytest.raises(ValueError):
            trainer.fit({"x": x}, y)

    def test_mismatched_lengths_rejected(self):
        model = Regressor(3, np.random.default_rng(1))
        trainer = Trainer(model, Adam(model.parameters()))
        with pytest.raises(ValueError):
            trainer.fit({"x": np.zeros((5, 3))}, np.zeros(4))

    def test_empty_data_rejected(self):
        model = Regressor(3, np.random.default_rng(1))
        trainer = Trainer(model, Adam(model.parameters()))
        with pytest.raises(ValueError):
            trainer.fit({"x": np.zeros((0, 3))}, np.zeros(0))

    def test_invalid_constructor_args(self):
        model = Regressor(3, np.random.default_rng(1))
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters()), batch_size=0)
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters()), max_epochs=0)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        model = QuadraticModel([0.0])
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0, model)
        assert not stopper.update(1.0, model)  # wait=1
        assert stopper.update(1.0, model)  # wait=2 -> stop

    def test_improvement_resets_wait(self):
        model = QuadraticModel([0.0])
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, model)
        stopper.update(1.0, model)
        assert not stopper.update(0.5, model)
        assert stopper.wait == 0

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestSerialization:
    def test_bytes_roundtrip(self):
        model = Regressor(3, np.random.default_rng(1))
        blob = save_model_bytes(model, {"arch": "test", "n": 3})
        state, config = load_model_bytes(blob)
        assert config == {"arch": "test", "n": 3}
        other = Regressor(3, np.random.default_rng(99))
        other.net.load_state_dict({k.removeprefix("net."): v for k, v in state.items()})
        x = RNG.standard_normal((4, 3))
        model.eval(), other.eval()
        np.testing.assert_allclose(model(x).numpy(), other(x).numpy())

    def test_model_smaller_than_paper_budget(self):
        # Paper §6: the serialized Env2Vec artifact is < 10 MB.
        model = Regressor(3, np.random.default_rng(1))
        size = len(save_model_bytes(model))
        assert size < 10 * 1024 * 1024
