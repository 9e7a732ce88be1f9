"""Property-based tests (hypothesis) for the wire-codec family.

Five families of properties, run against randomly drawn vectors:

* **Losslessness** — codecs advertising ``lossless = True`` must
  reconstruct their input bit for bit (and report the raw float size).
* **Unbiasedness** — stochastic quantization is an unbiased estimator:
  the mean reconstruction over many independently-seeded codecs
  converges to the input (checked within a CLT-scaled tolerance).
  Discrete-Gaussian stochastic rounding shares the property.
* **Top-k structure** — the sparsified vector has exactly
  ``min(k, d)`` nonzero support drawn from the largest-|coordinate|
  entries, surviving coordinates are copied verbatim, and the
  reconstruction error never exceeds the norm of the dropped tail.
* **Per-message determinism** — the encoding of message ``(step,
  worker)`` is a pure function of the codec's seed, never of the
  order in which messages are encoded or of which other messages were
  encoded first (the invariant that makes sync, simulator and
  multiprocess replays of a compressed run bit-identical — the same
  one ``LossyNetwork.drops_message`` pins for packet drops).
* **Batch ≡ per-row** — ``encode_block`` equals looping
  ``encode_row``, bit for bit, including for codecs that override the
  block path (QSGD's sliced per-step stream).

Byte counts are checked against the documented closed forms wherever
they are data-independent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    DiscreteGaussianCodec,
    GradientCodec,
    IdentityCodec,
    SignCodec,
    StochasticQuantizationCodec,
    TopKCodec,
)
from repro.exceptions import ConfigurationError
from repro.pipeline.registry import REGISTRY

#: One representative instance per registered codec, identically
#: parameterised everywhere in this module.
CODEC_FACTORIES = {
    "identity": lambda: IdentityCodec(),
    "top-k": lambda: TopKCodec(fraction=0.25),
    "sign": lambda: SignCodec(),
    "qsgd": lambda: StochasticQuantizationCodec(levels=8, seed=99),
    "discrete-gaussian": lambda: DiscreteGaussianCodec(
        granularity=1.0 / 64, sigma=1.0, seed=99
    ),
}


def _vector(d):
    return st.lists(
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False, width=32),
        min_size=d,
        max_size=d,
    ).map(lambda rows: np.asarray(rows, dtype=np.float64))


def test_every_registered_codec_is_covered():
    assert set(CODEC_FACTORIES) == set(REGISTRY.available("codec"))


class TestLosslessness:
    @given(vector=_vector(13))
    @settings(max_examples=30, deadline=None)
    def test_lossless_codecs_reconstruct_bit_for_bit(self, vector):
        for name, factory in CODEC_FACTORIES.items():
            codec = factory()
            if not codec.lossless:
                continue
            wire, nbytes = codec.encode_row(vector, step=3, worker=2)
            assert wire.tolist() == vector.tolist(), name
            assert nbytes == 8 * vector.size, name

    def test_identity_block_is_the_same_object(self):
        """The engine's zero-copy fast path relies on object identity."""
        codec = IdentityCodec()
        matrix = np.arange(12.0).reshape(3, 4)
        encoded, nbytes = codec.encode_block(matrix, 0, [0, 1, 2])
        assert encoded is matrix
        assert nbytes.tolist() == [32, 32, 32]


class TestUnbiasedness:
    @given(vector=_vector(8))
    @settings(max_examples=10, deadline=None)
    def test_qsgd_mean_over_seeds_converges_to_input(self, vector):
        trials = 400
        total = np.zeros_like(vector)
        for seed in range(trials):
            codec = StochasticQuantizationCodec(levels=4, seed=seed)
            wire, _ = codec.encode_row(vector, step=0, worker=0)
            total += wire
        mean = total / trials
        # Each coordinate is scale/levels-quantized: the rounding term
        # is bounded by one bin, so the CLT bound on the empirical mean
        # is (bin width) * 4 / sqrt(trials).
        bin_width = np.abs(vector).max() / 4 if np.abs(vector).max() else 0.0
        tolerance = bin_width * 4 / math.sqrt(trials) + 1e-12
        assert np.all(np.abs(mean - vector) <= tolerance)

    @given(vector=_vector(8))
    @settings(max_examples=10, deadline=None)
    def test_discrete_gaussian_rounding_is_unbiased(self, vector):
        trials = 400
        granularity = 1.0 / 32
        total = np.zeros_like(vector)
        for seed in range(trials):
            codec = DiscreteGaussianCodec(
                granularity=granularity, sigma=0.0, seed=seed
            )
            wire, _ = codec.encode_row(vector, step=0, worker=0)
            total += wire
        mean = total / trials
        # Stochastic rounding to the granularity grid, zero-mean noise
        # off: per-coordinate error is one grid cell, CLT-scaled.
        tolerance = granularity * 4 / math.sqrt(trials) + 1e-12
        assert np.all(np.abs(mean - vector) <= tolerance)


class TestTopKStructure:
    @given(vector=_vector(17), fraction=st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_support_size_and_byte_count(self, vector, fraction):
        codec = TopKCodec(fraction=fraction)
        k = codec.support_size(vector.size)
        wire, nbytes = codec.encode_row(vector, step=0, worker=0)
        assert k == max(1, math.ceil(fraction * vector.size))
        assert np.count_nonzero(wire) <= k  # kept entries may be zero
        if k >= vector.size:
            assert nbytes == 12 * vector.size
        else:
            assert nbytes == 12 * k

    @given(vector=_vector(17))
    @settings(max_examples=40, deadline=None)
    def test_survivors_are_the_largest_and_copied_verbatim(self, vector):
        codec = TopKCodec(k=5)
        wire, _ = codec.encode_row(vector, step=0, worker=0)
        kept = np.nonzero(wire)[0]
        assert all(wire[i] == vector[i] for i in kept)
        # Every surviving magnitude >= every dropped magnitude.
        dropped = np.setdiff1d(np.arange(vector.size), kept)
        surviving_magnitudes = np.abs(vector[kept])
        if kept.size and dropped.size:
            # Dropped entries that are exactly zero contribute nothing;
            # a kept zero only happens when everything left is zero.
            assert surviving_magnitudes.min() >= np.abs(
                np.delete(vector, kept)
            ).max() - 1e-15 or np.count_nonzero(vector) <= 5

    @given(vector=_vector(17))
    @settings(max_examples=40, deadline=None)
    def test_error_bounded_by_dropped_tail_norm(self, vector):
        codec = TopKCodec(k=5)
        wire, _ = codec.encode_row(vector, step=0, worker=0)
        error = np.linalg.norm(vector - wire)
        tail = np.sort(np.abs(vector))[:-5]
        assert error <= np.linalg.norm(tail) + 1e-12


class TestPerMessageDeterminism:
    """Message (step, worker) encodes identically whatever else happened.

    The exact invariant the three execution paths rely on: the sync
    cluster encodes whole rounds at once, the simulator encodes partial
    cohorts one wake at a time, the multiprocess runtime encodes
    per-shard row blocks — all must agree bit for bit.
    """

    @pytest.mark.parametrize("name", sorted(CODEC_FACTORIES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_independent_of_encoding_order(self, name, data):
        vector = data.draw(_vector(9))
        other = data.draw(_vector(9))
        fresh = CODEC_FACTORIES[name]()
        baseline, baseline_bytes = fresh.encode_row(vector, step=7, worker=3)

        # Same codec object, after encoding unrelated messages first —
        # including the same worker at other steps and other workers at
        # the same step.
        warmed = CODEC_FACTORIES[name]()
        warmed.encode_row(other, step=7, worker=0)
        warmed.encode_row(other, step=2, worker=3)
        warmed.encode_block(np.stack([other, vector]), 5, [1, 2])
        replay, replay_bytes = warmed.encode_row(vector, step=7, worker=3)

        assert replay.tolist() == baseline.tolist()
        assert replay_bytes == baseline_bytes

    @pytest.mark.parametrize("name", sorted(CODEC_FACTORIES))
    def test_does_not_mutate_the_input(self, name):
        codec = CODEC_FACTORIES[name]()
        vector = np.linspace(-2.0, 2.0, 11)
        copy = vector.copy()
        codec.encode_row(vector, step=1, worker=1)
        codec.encode_block(np.stack([vector, copy]), 2, [0, 1])
        assert vector.tolist() == copy.tolist()


class TestBatchEqualsPerRow:
    @pytest.mark.parametrize("name", sorted(CODEC_FACTORIES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_encode_block_matches_row_loop(self, name, data):
        rows = [data.draw(_vector(7)) for _ in range(4)]
        matrix = np.stack(rows)
        workers = [0, 1, 3, 6]  # gaps: worker ids need not be dense
        step = data.draw(st.integers(0, 50))

        block_codec = CODEC_FACTORIES[name]()
        encoded, nbytes = block_codec.encode_block(matrix, step, workers)

        row_codec = CODEC_FACTORIES[name]()
        for row, worker in enumerate(workers):
            wire, count = row_codec.encode_row(matrix[row], step, worker)
            assert encoded[row].tolist() == wire.tolist(), name
            assert nbytes[row] == count, name

    def test_block_shape_mismatch_raises(self):
        codec = SignCodec()
        with pytest.raises(ConfigurationError):
            codec.encode_block(np.zeros((3, 4)), 0, [0, 1])


class TestConstruction:
    def test_stochastic_codecs_require_seed_or_rng(self):
        with pytest.raises(ConfigurationError):
            StochasticQuantizationCodec()
        with pytest.raises(ConfigurationError):
            DiscreteGaussianCodec()

    def test_rng_first_draw_fixes_the_seed(self):
        rng = np.random.default_rng(5)
        expected = int(np.random.default_rng(5).integers(0, 2**63))
        codec = StochasticQuantizationCodec(rng=rng)
        assert codec.seed == expected

    def test_codecs_are_picklable(self):
        """Shard specs ship codecs across process boundaries."""
        import pickle

        for name, factory in CODEC_FACTORIES.items():
            codec = factory()
            clone = pickle.loads(pickle.dumps(codec))
            vector = np.linspace(-1.0, 1.0, 9)
            assert (
                clone.encode_row(vector, 4, 2)[0].tolist()
                == codec.encode_row(vector, 4, 2)[0].tolist()
            ), name

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            TopKCodec(k=0)
        with pytest.raises(ConfigurationError):
            TopKCodec(fraction=0.0)
        with pytest.raises(ConfigurationError):
            TopKCodec(fraction=1.5)
        with pytest.raises(ConfigurationError):
            StochasticQuantizationCodec(levels=0, seed=1)
        with pytest.raises(ConfigurationError):
            DiscreteGaussianCodec(granularity=0.0, seed=1)
        with pytest.raises(ConfigurationError):
            DiscreteGaussianCodec(sigma=-1.0, seed=1)


class TestGradientCodecBase:
    def test_encode_row_is_abstract(self):
        codec = GradientCodec()
        with pytest.raises(NotImplementedError):
            codec.encode_row(np.zeros(3), 0, 0)


#: Values whose order under ``-|v|`` the top-k oracle pins: NaN sorts
#: last, ±inf first, ±0.0 and the small integers tie exactly.
SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0)

#: Hand-built rows of dimension 8: all-zero, all-NaN, signed zeros,
#: every special value, and exact ties on both sides of the threshold.
HAND_ROWS = np.array(
    [
        [0.0] * 8,
        [np.nan] * 8,
        [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
        [np.nan, -np.inf, 1.0, np.inf, -1.0, np.nan, -0.0, 2.0],
        [1.0, -3.0, 1.0, -1.0, 2.0, 1.0, -1.0, 0.5],
        [2.0, -2.0, 2.0, 1.0, -2.0, 1.0, 2.0, -1.0],
        [-1.0, np.nan, 1.0, -1.0, np.nan, 1.0, 0.0, -0.0],
    ]
)

#: The support sizes the oracle is checked at, as functions of d.
ORACLE_KS = {
    "1": lambda d: 1,
    "d-1": lambda d: d - 1,
    "d": lambda d: d,
    "d+3": lambda d: d + 3,
}


def _special_block(rows, d):
    element = st.one_of(
        st.sampled_from(SPECIAL_VALUES),
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    return st.lists(
        st.lists(element, min_size=d, max_size=d), min_size=rows, max_size=rows
    ).map(lambda block: np.asarray(block, dtype=np.float64))


def _assert_topk_matches_oracle(matrix, k):
    """``encode_block`` and ``encode_row`` equal the stable-argsort
    oracle byte for byte, and leave the input untouched."""
    from tests.reference_codecs import topk_reference

    before = matrix.tobytes()
    codec = TopKCodec(k=k)
    encoded, nbytes = codec.encode_block(matrix, 4, range(len(matrix)))
    assert encoded is not matrix
    for row, vector in enumerate(matrix):
        expected, expected_bytes = topk_reference(vector, k)
        wire, count = codec.encode_row(vector, 4, row)
        assert encoded[row].tobytes() == expected.tobytes(), (vector, k)
        assert wire.tobytes() == expected.tobytes(), (vector, k)
        assert nbytes[row] == count == expected_bytes
    assert matrix.tobytes() == before


class TestTopKMatchesArgsortOracle:
    """The block partition selects what a per-row stable argsort does."""

    @pytest.mark.parametrize("k_of", ORACLE_KS.values(), ids=ORACLE_KS)
    def test_hand_rows_one_at_a_time(self, k_of):
        for row in HAND_ROWS:
            _assert_topk_matches_oracle(row[None].copy(), k_of(row.size))

    @pytest.mark.parametrize("k_of", ORACLE_KS.values(), ids=ORACLE_KS)
    def test_hand_rows_in_a_25_row_block(self, k_of):
        rng = np.random.default_rng(11)
        drawn = rng.choice(np.array(SPECIAL_VALUES), size=(25 - len(HAND_ROWS), 8))
        block = np.concatenate([HAND_ROWS, drawn])
        _assert_topk_matches_oracle(block, k_of(block.shape[1]))

    @pytest.mark.parametrize("rows", [1, 25])
    @pytest.mark.parametrize("k_of", ORACLE_KS.values(), ids=ORACLE_KS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_drawn_blocks(self, rows, k_of, data):
        d = data.draw(st.integers(2, 12))
        block = data.draw(_special_block(rows, d))
        _assert_topk_matches_oracle(block, k_of(d))

    def test_fraction_derived_support(self):
        from tests.reference_codecs import topk_reference

        block = np.random.default_rng(3).integers(-2, 3, size=(25, 40)).astype(float)
        codec = TopKCodec(fraction=0.125)
        encoded, _ = codec.encode_block(block, 0, range(25))
        for row, vector in enumerate(block):
            expected, _ = topk_reference(vector, 5)
            assert encoded[row].tobytes() == expected.tobytes()


#: (codec, keywords, the parameter its error must name).
REJECTED_PARAMETERS = [
    ("top-k", {"k": 2.5}, "k"),
    ("top-k", {"k": "3"}, "k"),
    ("top-k", {"k": True}, "k"),
    ("top-k", {"fraction": "0.5"}, "fraction"),
    ("top-k", {"fraction": True}, "fraction"),
    ("top-k", {"fraction": float("nan")}, "fraction"),
    ("top-k", {"fraction": float("inf")}, "fraction"),
    ("qsgd", {"levels": 2.5, "seed": 1}, "levels"),
    ("qsgd", {"levels": "4", "seed": 1}, "levels"),
    ("qsgd", {"levels": True, "seed": 1}, "levels"),
    ("qsgd", {"seed": 1.5}, "seed"),
    ("qsgd", {"seed": "3"}, "seed"),
    ("qsgd", {"seed": True}, "seed"),
    ("top-k", {"seed": -1}, "seed"),
    ("discrete-gaussian", {"sigma": float("nan"), "seed": 1}, "sigma"),
    ("discrete-gaussian", {"sigma": float("inf"), "seed": 1}, "sigma"),
    ("discrete-gaussian", {"sigma": "1", "seed": 1}, "sigma"),
    ("discrete-gaussian", {"sigma": True, "seed": 1}, "sigma"),
    ("discrete-gaussian", {"granularity": float("inf"), "seed": 1}, "granularity"),
    ("discrete-gaussian", {"granularity": float("nan"), "seed": 1}, "granularity"),
    ("discrete-gaussian", {"granularity": True, "seed": 1}, "granularity"),
    ("discrete-gaussian", {"granularity": 10**400, "seed": 1}, "granularity"),
]


class TestParameterTypes:
    """Codec parameters are checked, never coerced, and errors name them.

    Built through the registry, as ``repro run`` builds them, so each
    error also names the codec.
    """

    @pytest.mark.parametrize(
        "name, kwargs, parameter",
        REJECTED_PARAMETERS,
        ids=[
            f"{name}-{parameter}={kwargs[parameter]!r:.12}"
            for name, kwargs, parameter in REJECTED_PARAMETERS
        ],
    )
    def test_rejected_naming_the_parameter(self, name, kwargs, parameter):
        with pytest.raises(ConfigurationError) as error:
            REGISTRY.build("codec", {"name": name, **kwargs})
        assert str(error.value).startswith(f"codec {name!r}: {parameter} must be")

    def test_numpy_and_integral_numbers_are_accepted(self):
        assert TopKCodec(k=np.int64(3)).k == 3
        assert TopKCodec(fraction=1).fraction == 1.0
        codec = DiscreteGaussianCodec(
            granularity=np.float64(0.25), sigma=1, seed=np.uint32(2)
        )
        assert (codec.granularity, codec.sigma, codec.seed) == (0.25, 1.0, 2)
        assert StochasticQuantizationCodec(levels=np.int32(4), seed=0).levels == 4
