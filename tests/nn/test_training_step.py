"""Byte identity of the training-step rewrites that reorder nothing.

The flat Adam buffer, the ``np.bincount`` embedding gradient and the
block-of-batches gather in ``Trainer.fit`` change how the work is laid out,
never the order of any floating-point addition. Each is held here to a
per-parameter / scatter / per-batch reference transcribed into this file,
byte for byte — and all three together must leave a seeded
``Env2VecRegressor.fit`` producing the same model bytes.
"""

import numpy as np
import pytest

from repro.core import Env2VecRegressor
from repro.data.environment import Environment
from repro.nn import Adam, Dense, Module, Tensor, Trainer, ops
from repro.nn.training import _GATHER_BATCHES, TrainingHistory, _shuffled_batches


class ReferenceAdam:
    """The per-parameter Adam update, one small pass per parameter."""

    def __init__(self, parameters, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.parameters = list(parameters)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self):
        for param in self.parameters:
            param.zero_grad()

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_embedding_backward(grad, cache):
    full = np.zeros(cache["shape"], dtype=np.float64)
    np.add.at(full, cache["ids"], grad)
    return (full,)


class ReferenceTrainer(Trainer):
    """``Trainer.fit`` gathering every batch with its own fancy index."""

    def fit(self, inputs, targets, val_inputs=None, val_targets=None):
        n = len(targets)
        history = TrainingHistory()
        targets = np.asarray(targets, dtype=np.float64)
        for epoch in range(self.max_epochs):
            order = self.rng.permutation(n) if self.shuffle else np.arange(n)
            self.model.train()
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                batch = {key: value[idx] for key, value in inputs.items()}
                self.optimizer.zero_grad()
                loss = self.loss_fn(self.model(**batch), Tensor(targets[idx]))
                loss.backward()
                self.optimizer.step()
                epoch_loss += loss.item() * len(idx)
            history.train_loss.append(epoch_loss / n)
            if val_inputs is not None:
                val_loss = self.evaluate(val_inputs, val_targets)
                history.val_loss.append(val_loss)
                if self.early_stopping is not None and self.early_stopping.update(val_loss, self.model):
                    history.stopped_epoch = epoch
                    break
        if self.early_stopping is not None:
            self.early_stopping.finalize(self.model)
        return history


class _Net(Module):
    def __init__(self, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.a = Dense(4, 6, activation="tanh", rng=rng)
        self.b = Dense(6, 3, rng=rng)
        self.unused = Dense(2, 2, rng=rng)


def _grads(net, rng, skip_unused):
    for param in net.parameters():
        param.grad = rng.standard_normal(param.shape)
    if skip_unused:
        for param in net.unused.parameters():
            param.grad = None


class TestFlatAdam:
    def test_fifty_steps_bitwise_equal_per_parameter(self):
        flat_net, ref_net = _Net(3), _Net(3)
        flat = Adam(flat_net.parameters(), lr=0.01)
        ref = ReferenceAdam(ref_net.parameters(), lr=0.01)
        flat_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for step in range(50):
            skip = step % 3 != 0  # the unused layer mostly has no gradient
            if step == 25:
                # load_state_dict rebinds every parameter's data array
                state = {k: v * 0.5 for k, v in flat_net.state_dict().items()}
                flat_net.load_state_dict(state)
                ref_net.load_state_dict(state)
            _grads(flat_net, flat_rng, skip)
            _grads(ref_net, ref_rng, skip)
            flat.step()
            ref.step()
            for (name, p), (_, q) in zip(flat_net.named_parameters(), ref_net.named_parameters()):
                assert p.data.tobytes() == q.data.tobytes(), (step, name)
        moments = flat._m[flat._slot(len(flat.parameters) - 1)]
        ref_moments = ref._m[-1].reshape(-1)
        assert moments.tobytes() == ref_moments.tobytes()

    def test_none_grad_leaves_moments_untouched(self):
        net = _Net(4)
        opt = Adam(net.parameters(), lr=0.01)
        _grads(net, np.random.default_rng(1), skip_unused=True)
        before = [p.data.copy() for p in net.unused.parameters()]
        opt.step()
        last = len(opt.parameters) - 1
        assert not opt._m[opt._slot(last)].any() and not opt._v[opt._slot(last)].any()
        for p, old in zip(net.unused.parameters(), before):
            assert p.data.tobytes() == old.tobytes()

    def test_parameters_view_the_flat_buffer(self):
        net = _Net(5)
        opt = Adam(net.parameters())
        assert all(np.shares_memory(p.data, opt._data) for p in opt.parameters)
        net.load_state_dict(net.state_dict())
        _grads(net, np.random.default_rng(2), skip_unused=False)
        opt.step()
        assert all(np.shares_memory(p.data, opt._data) for p in opt.parameters)

    def test_resized_parameter_is_refused(self):
        net = _Net(6)
        opt = Adam(net.parameters())
        net.a.bias.data = np.zeros(7)
        with pytest.raises(ValueError, match="changed size"):
            opt.step()


class TestEmbeddingBackward:
    @pytest.mark.parametrize("ids", [
        [0, 3, 3, 1, 3, 0, 4, 4, 4, 4],
        [2] * 17,
        [],
    ])
    def test_bincount_equals_scatter_add(self, ids):
        rng = np.random.default_rng(len(ids))
        ids = np.asarray(ids, dtype=np.int64)
        grad = rng.standard_normal((len(ids), 10))
        cache = {"shape": (5, 10), "ids": ids}
        (fast,) = ops.embedding_backward(grad, cache)
        (ref,) = reference_embedding_backward(grad, cache)
        assert fast.shape == (5, 10)
        assert fast.tobytes() == ref.tobytes()


class TestBlockGather:
    @pytest.mark.parametrize("n", [0, 1, 255, 1003, 256 * _GATHER_BATCHES + 7])
    def test_block_gather_then_slices_equals_per_batch_indexing(self, n):
        rng = np.random.default_rng(n)
        inputs = {"x": rng.standard_normal((n, 7)), "ids": rng.integers(0, 9, (n, 4))}
        targets = rng.standard_normal(n)
        order = rng.permutation(n)
        batches = list(_shuffled_batches(inputs, targets, order, 256))
        assert len(batches) == -(-n // 256)
        for k, (batch, batch_targets) in enumerate(batches):
            idx = order[k * 256 : (k + 1) * 256]
            for key, value in inputs.items():
                assert batch[key].tobytes() == value[idx].tobytes()
            assert batch_targets.tobytes() == targets[idx].tobytes()


def _regression_data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    envs = [
        Environment(f"tb{i % 3}", f"sut{i % 2}", f"tc{i % 4}", f"b{i % 5}") for i in range(n)
    ]
    X = rng.standard_normal((n, 5))
    history = rng.standard_normal((n, 3))
    y = X[:, 0] + 0.5 * history[:, -1] + 0.1 * rng.standard_normal(n)
    return envs, X, history, y


def test_seeded_fit_bytes_unchanged_by_flat_adam_bincount_and_block_gather(monkeypatch):
    envs, X, history, y = _regression_data()
    val = tuple(part[:100] for part in (envs, X, history, y))
    train = tuple(part[100:] for part in (envs, X, history, y))

    def fit():
        model = Env2VecRegressor(max_epochs=4, batch_size=64, patience=4, seed=3)
        return model.fit(*train, val=val).to_bytes()

    fast = fit()
    monkeypatch.setattr("repro.nn.training.Adam", ReferenceAdam)
    monkeypatch.setattr("repro.core.model.Trainer", ReferenceTrainer)
    monkeypatch.setattr(ops, "embedding_backward", reference_embedding_backward)
    assert fit() == fast
