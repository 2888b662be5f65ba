"""Shared test fixtures."""
from __future__ import annotations

import contextlib
import random

import pytest


@pytest.fixture
def permuted_inboxes():
    """Delivery-order checks: the simulator hands every inbox in send
    order, and an engine must compute the same from any order.  Within
    `with permuted_inboxes(engine_cls, seed) as moved:`, every step of
    `engine_cls` gets its inbox permuted by one `random.Random(seed)`
    before the real step reads it, and `moved` records, step by step,
    whether the permuted inbox left send order."""

    @contextlib.contextmanager
    def permuted(engine_cls, seed):
        real = engine_cls.step
        rng = random.Random(seed)
        moved: list[bool] = []

        def step(self, state, ctx, round_no, inbox):
            box = list(inbox)
            rng.shuffle(box)
            moved.append(box != list(inbox))
            return real(self, state, ctx, round_no, tuple(box))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_cls, "step", step)
            yield moved

    return permuted
