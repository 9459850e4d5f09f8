"""The OVT autoencoder's training graph: the autograd reference for ``fit``.

``OVTAutoencoder.fit`` runs each step on raw float32 arrays with a
hand-written backward.  This is the same step built as an ``ag.Tensor``
graph and differentiated by ``.backward()`` — what ``fit`` was before it
went graph-free — so the two can be compared bit for bit: loss history
and every parameter after ``fit`` and after a following ``update``.
"""

import numpy as np

from repro.ag import Adam, Tensor, mse_loss
from repro.utils import rng_from_seed


def tanh(x: Tensor) -> Tensor:
    """Differentiable tanh, the autoencoder graph's nonlinearity."""
    value = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - value * value))

    return Tensor._make(value, (x,), backward)


def encode_tensor(ae, x: Tensor) -> Tensor:
    return ae.enc2(tanh(ae.enc1(x)))


def decode_tensor(ae, code: Tensor) -> Tensor:
    return ae.dec2(tanh(ae.dec1(code)))


def fit_graph(ae, rows, *, steps=None) -> list[float]:
    """``ae.fit(rows, steps=steps)`` through the autograd graph."""
    rows = ae._check_rows(rows)
    config = ae.config
    steps = config.pretrain_steps if steps is None else steps
    rng = rng_from_seed(config.seed + 1)
    optimizer = Adam(ae.parameters(), lr=config.lr)
    history = []
    for _ in range(steps):
        count = min(config.batch_size, rows.shape[0])
        picks = rng.choice(rows.shape[0], size=count, replace=False)
        batch = Tensor(rows[picks])
        optimizer.zero_grad()
        code = encode_tensor(ae, batch)
        if config.quant_noise > 0:
            noise = rng.normal(0.0, config.quant_noise,
                               code.shape).astype(np.float32)
            code = code + Tensor(noise)
        out = decode_tensor(ae, code)
        loss = mse_loss(out, batch)
        if config.gram_weight > 0:
            gram_in = batch @ batch.transpose(1, 0)
            gram_code = code @ code.transpose(1, 0)
            loss = loss + mse_loss(gram_code, gram_in) * config.gram_weight
        loss.backward()
        optimizer.step()
        history.append(float(loss.data))
    if steps:
        ae._trained = True
    return history


def update_graph(ae, rows) -> list[float]:
    """``ae.update(rows)`` through the autograd graph."""
    return fit_graph(ae, rows, steps=ae.config.update_steps)
