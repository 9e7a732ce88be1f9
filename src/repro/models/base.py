"""Abstract model interface.

A *model* here is a differentiable loss landscape over a flat parameter
vector ``w`` of dimension ``d``, evaluated on ``(features, labels)``
batches.  Workers never mutate models; models are stateless functions
of ``(w, batch)``, which keeps the distributed simulation free of
hidden shared state.  It also lets the cohort pass
(:class:`repro.distributed.worker.CohortPass`) call one model from two
threads at once at large d.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.typing import Vector

__all__ = ["Model", "augment_stack_with_bias"]


def augment_stack_with_bias(
    features_stack: np.ndarray, num_features: int
) -> np.ndarray:
    """Append a constant-1 bias column to every batch of a ``(W, b, p)``
    stack, validating the feature count.

    Shared by the linear-family models' vectorized ``gradient_stack`` /
    ``loss_stack`` overrides (the stacked twin of their per-matrix
    ``_augment``).
    """
    features_stack = np.asarray(features_stack, dtype=np.float64)
    if features_stack.ndim != 3 or features_stack.shape[2] != num_features:
        raise ValueError(
            f"features_stack must have shape (W, b, {num_features}), "
            f"got {features_stack.shape}"
        )
    ones = np.ones(features_stack.shape[:2] + (1,))
    return np.concatenate([features_stack, ones], axis=2)


class Model(ABC):
    """Stateless differentiable model over a flat parameter vector."""

    #: Registry name, set by each subclass (e.g. ``"logistic"``).
    name: str = "abstract"

    #: Whether this model accepts *pre-augmented* feature stacks in
    #: :meth:`loss_and_gradient_stack` (``augmented=True``) together
    #: with an :meth:`augment_features` precompute.  The fused round
    #: engine uses this to append the bias column to a dataset once
    #: instead of re-concatenating it every round.  Only the
    #: linear-family models (whose augmentation is a constant bias
    #: column) opt in.
    supports_augmented_stack: bool = False

    def augment_features(self, features: np.ndarray) -> np.ndarray:
        """Precompute the model's augmented feature matrix.

        Only meaningful when :attr:`supports_augmented_stack` is true;
        rows of the result gathered into a ``(W, b, d)`` stack must be
        bit-identical to augmenting the gathered raw rows.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support pre-augmented stacks"
        )

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Number of trainable parameters ``d``."""

    @abstractmethod
    def loss(self, parameters: Vector, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean loss of ``parameters`` over the batch."""

    @abstractmethod
    def gradient(self, parameters: Vector, features: np.ndarray, labels: np.ndarray) -> Vector:
        """Mean gradient of the loss over the batch; shape ``(d,)``."""

    @abstractmethod
    def per_example_gradients(
        self, parameters: Vector, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Per-example gradients; shape ``(batch_size, d)``.

        The mean over axis 0 equals :meth:`gradient` up to rounding.
        Needed for per-example clipping (the airtight route to the
        ``2 G_max / b`` sensitivity bound of Section 2.3).
        """

    def gradient_stack(
        self,
        parameters: Vector,
        features_stack: np.ndarray,
        labels_stack: np.ndarray,
    ) -> np.ndarray:
        """Mean gradient of each batch in a ``(W, b, ...)`` stack; ``(W, d)``.

        One call covers a whole worker cohort's round.  The base
        implementation loops over the stack; models with a closed-form
        batch gradient (linear, logistic) override it with a single
        einsum so the entire cohort is one matrix contraction.
        """
        return np.stack(
            [
                self.gradient(parameters, features, labels)
                for features, labels in zip(features_stack, labels_stack)
            ]
        )

    def loss_stack(
        self,
        parameters: Vector,
        features_stack: np.ndarray,
        labels_stack: np.ndarray,
    ) -> np.ndarray:
        """Mean loss of each batch in a ``(W, b, ...)`` stack; ``(W,)``.

        Same contract as :meth:`gradient_stack` for the forward pass;
        the simulator, the cohort pass's per-example clip and its
        two-pass models use it to score a whole honest cohort's sampled
        batches in one call.
        """
        return np.array(
            [
                self.loss(parameters, features, labels)
                for features, labels in zip(features_stack, labels_stack)
            ]
        )

    def loss_and_gradient_stack(
        self,
        parameters: Vector,
        features_stack: np.ndarray,
        labels_stack: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both :meth:`loss_stack` and :meth:`gradient_stack` in one pass.

        Returns ``(losses, gradients)`` with shapes ``(W,)`` and
        ``(W, d)``, exactly equal (bit for bit) to calling the two
        methods separately — every round's cohort pass uses this to
        score and differentiate the cohort's batches without running
        the forward contraction twice.  Models with a shared forward pass
        (linear, logistic) override it to compute the augmented stack
        and the logits once; the base implementation simply delegates.
        """
        return (
            self.loss_stack(parameters, features_stack, labels_stack),
            self.gradient_stack(parameters, features_stack, labels_stack),
        )

    def _single_pass_conflict(self) -> str | None:
        """Why :meth:`loss_and_gradient_stack` may bypass an override, or
        ``None`` when it cannot.

        The base implementation delegates to ``loss_stack`` /
        ``gradient_stack``, so it honours any override.  A model that
        inherits a *single-pass* implementation (linear, logistic) while
        overriding the two-pass methods — or the augmentation hooks the
        cohort pass substitutes — would train with the parent's
        formulas; the cohort pass then runs the two methods separately.
        """

        def defining_class(name):
            for klass in type(self).__mro__:
                if name in vars(klass):
                    return klass
            return None

        owner = defining_class("loss_and_gradient_stack")
        if owner is Model:
            return None
        checked = ["gradient_stack", "loss_stack"]
        if self.supports_augmented_stack:
            checked += ["augment_features", "_augment_stack"]
        for name in checked:
            if defining_class(name) is not owner:
                return (
                    f"model {type(self).__name__} overrides {name} but "
                    f"inherits {owner.__name__}.loss_and_gradient_stack"
                )
        return None

    def initial_parameters(self, rng: np.random.Generator | None = None) -> Vector:
        """Starting parameter vector; zeros unless a model overrides it.

        Zero initialisation is what the paper's convex experiments use;
        non-convex models (the MLP) override this with a seeded random
        initialisation.
        """
        del rng  # deterministic default
        return np.zeros(self.dimension)

    def accuracy(self, parameters: Vector, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy, when the model defines predictions.

        Models that are not classifiers (e.g. mean estimation) raise
        ``NotImplementedError``.
        """
        predictions = self.predict(parameters, features)
        return float(np.mean(predictions == np.asarray(labels)))

    def predict(self, parameters: Vector, features: np.ndarray) -> np.ndarray:
        """Hard label predictions; classifiers override this."""
        raise NotImplementedError(f"{type(self).__name__} is not a classifier")

    def _check_parameters(self, parameters: Vector) -> Vector:
        parameters = np.asarray(parameters, dtype=np.float64)
        if parameters.shape != (self.dimension,):
            raise ValueError(
                f"parameters must have shape ({self.dimension},), got {parameters.shape}"
            )
        return parameters
