"""Per-sample training-loss oracle: the mean of unpadded singleton batches.

A batch of one has an all-False padding mask, so ``loss_fn([sample])`` is
the unpadded per-sample loss and their mean is what a padded minibatch
forward must reproduce (loss and gradients).
"""


def singleton_mean(loss_fn, samples):
    """``mean(loss_fn([s]) for s in samples)`` as one autograd scalar."""
    losses = [loss_fn([sample]) for sample in samples]
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


def train_per_sample(monkeypatch, tuner_module):
    """Make ``tuner_module``'s tuner optimise the singleton-mean loss."""
    train = tuner_module.train_prompt_parameters

    def per_sample(model, params, loss_fn, samples, config):
        return train(model, params,
                     lambda batch: singleton_mean(loss_fn, batch),
                     samples, config)
    monkeypatch.setattr(tuner_module, "train_prompt_parameters", per_sample)
