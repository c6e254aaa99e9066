"""Determinism harness for the parametric generator registry.

Three contracts are pinned here:

* **Spec determinism** (property-based): the same ``(name, params, seed)``
  is bitwise-reproducible, different seeds differ, and specs round-trip
  through the strict versioned envelope.
* **Parity**: the five legacy classification families are bit-identical
  to the pre-refactor ``generate_family`` path (hex-golden digests), and
  ``narma``/``mackey_glass`` match their :mod:`repro.data.regression`
  functions.
* **Streaming**: ``generate_chunks`` concatenates bit-identically to
  eager ``generate`` for every registered family at chunk lengths
  {1, 7, 64}.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.loaders import load_dataset
from repro.data.regression import mackey_glass_series, narma
from repro.data.registry import (
    GeneratorSpec,
    concat_chunks,
    dataset_from_spec,
    generate,
    generate_chunks,
    generator_kind,
    get_generator,
    make_spec,
    registered_generators,
    spec_for_dataset,
)

#: small-but-nontrivial parameters per generator, used by the sweep tests
SMALL_PARAMS = {
    "harmonic": dict(n_classes=2, n_channels=2, length=16, n_train=8,
                     n_test=8),
    "motion": dict(n_classes=2, n_channels=2, length=16, n_train=8,
                   n_test=8),
    "beat": dict(n_classes=2, n_channels=2, length=16, n_train=8, n_test=8),
    "regime": dict(n_classes=2, n_channels=2, length=16, n_train=8,
                   n_test=8),
    "burst": dict(n_classes=2, n_channels=2, length=16, n_train=8,
                  n_test=8),
    "narma": dict(n_steps=200, order=10),
    "mackey_glass": dict(n_steps=100),
    "eeg_pink": dict(n_steps=128, n_channels=2),
    "am_fm": dict(n_steps=128, n_channels=2),
    "drift": dict(base={"name": "eeg_pink", "params": {"n_steps": 128,
                                                       "n_channels": 2}},
                  gain_depth=0.4),
}

#: sha256 of the seed-42 SMALL_PARAMS output of each generator (see
#: ``digest`` below).  These pin today's bitstreams: a digest change means
#: served datasets changed, which must be a deliberate, versioned event.
GOLDEN = {
    "harmonic": "13cd3d32aae6ad29032aeaf55edd1f76b0e1a42ccc24c00a2cd0dd347b755e3c",
    "motion": "b4fdf28814ee7c14846fcb550fba8f32070a205f0fd875c08da110c98f3528ba",
    "beat": "d0380f6f3e4a86e0fcee504fd11598e752df221405efe7e10b1d74933d38ccc8",
    "regime": "519281b9cf77b8e6d8c0c50c86ca49424b9d858ee20b86efcd6e80b76f64fbca",
    "burst": "576dd1a3cdda7bdf07fded12d606fac9fd384a7f9cb542a49cc2271c32127728",
    "narma": "4c38d12f0dd5dbb1d3e8d6f0cfaab56e5993d70fb116d9fcdab02543390e6e6b",
    "mackey_glass": "32eae7b644854484c102bac430b72215232db660acb2885a062d5e8d4c07fa21",
    "eeg_pink": "dcad85ba67dee207f41fe93d73a3019e041dc33f69867030128ba5d6cb813235",
    "am_fm": "41d4e4bba99e79d99c2015ad00c9af9a2f293b5ba0e3e49c46734940c4c66519",
}

ALL_NAMES = sorted(SMALL_PARAMS)


def small_spec(name, seed=42):
    return make_spec(name, seed=seed, **SMALL_PARAMS[name])


def digest(arrays):
    """Order-independent sha256 over dtype, shape, and raw bytes."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def assert_same_arrays(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestRegistry:
    def test_all_expected_generators_registered(self):
        assert set(ALL_NAMES) <= set(registered_generators())

    def test_unknown_generator_rejected(self):
        with pytest.raises(KeyError):
            get_generator("no_such_family")
        with pytest.raises(KeyError):
            make_spec("no_such_family")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown param"):
            make_spec("harmonic", wavelength=3)

    def test_kinds(self):
        for fam in ("harmonic", "motion", "beat", "regime", "burst"):
            assert generator_kind(small_spec(fam)) == "classification"
        for name in ("narma", "mackey_glass", "eeg_pink", "am_fm"):
            assert generator_kind(small_spec(name)) == "series"
        # drift inherits its base's kind
        assert generator_kind(small_spec("drift")) == "series"
        over_classes = make_spec(
            "drift",
            base={"name": "harmonic",
                  "params": SMALL_PARAMS["harmonic"]},
        )
        assert generator_kind(over_classes) == "classification"


class TestSpecEnvelope:
    def test_round_trip(self):
        spec = small_spec("drift", seed=9)
        clone = GeneratorSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert_same_arrays(generate(clone), generate(spec))

    def test_round_trip_is_json_safe(self):
        import json

        spec = small_spec("narma", seed=5)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert GeneratorSpec.from_dict(wire) == spec

    def test_rejects_wrong_format(self):
        payload = small_spec("narma").to_dict()
        payload["format"] = "repro-model"
        with pytest.raises(ValueError, match="format"):
            GeneratorSpec.from_dict(payload)

    def test_rejects_wrong_version(self):
        payload = small_spec("narma").to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            GeneratorSpec.from_dict(payload)

    def test_rejects_unknown_and_missing_keys(self):
        payload = small_spec("narma").to_dict()
        extra = dict(payload, comment="hi")
        with pytest.raises(ValueError, match="unknown"):
            GeneratorSpec.from_dict(extra)
        for key in ("name", "params", "seed"):
            broken = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(ValueError, match="missing"):
                GeneratorSpec.from_dict(broken)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           name=st.sampled_from(ALL_NAMES))
    def test_envelope_round_trip_property(self, seed, name):
        spec = small_spec(name, seed=seed)
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           name=st.sampled_from(("narma", "eeg_pink", "am_fm", "beat")))
    def test_same_spec_same_bits(self, seed, name):
        spec = small_spec(name, seed=seed)
        assert_same_arrays(generate(spec), generate(spec))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 2),
           name=st.sampled_from(("narma", "eeg_pink", "am_fm", "harmonic")))
    def test_different_seed_different_bits(self, seed, name):
        a = generate(small_spec(name, seed=seed))
        b = generate(small_spec(name, seed=seed + 1))
        assert any(
            not np.array_equal(a[k], b[k])
            for k in a
            if np.issubdtype(np.asarray(a[k]).dtype, np.floating)
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_golden_digest(self, name):
        if name == "drift":
            pytest.skip("composite wrapper; bases are pinned individually")
        assert digest(generate(small_spec(name))) == GOLDEN[name]


class TestStreaming:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("chunk_len", (1, 7, 64))
    def test_chunks_equal_eager(self, name, chunk_len):
        spec = small_spec(name)
        eager = generate(spec)
        chunked = concat_chunks(generate_chunks(spec, chunk_len))
        assert_same_arrays(eager, chunked)

    @pytest.mark.parametrize("chunk_len", (1, 7, 64))
    def test_saturated_narma_chunks_equal_eager(self, chunk_len):
        # orders above 10 take the tanh-saturated recursion
        spec = make_spec("narma", seed=3, n_steps=200, order=20)
        assert_same_arrays(generate(spec),
                           concat_chunks(generate_chunks(spec, chunk_len)))

    def test_chunk_len_validated(self):
        with pytest.raises(ValueError):
            list(generate_chunks(small_spec("narma"), 0))

    def test_chunk_sizes(self):
        spec = small_spec("eeg_pink")  # 128 steps
        chunks = list(generate_chunks(spec, 48))
        assert [c["u"].shape[0] for c in chunks] == [48, 48, 32]


class TestLegacyParity:
    @pytest.mark.parametrize("key", ("LIB", "JPVOW", "CHAR"))
    def test_spec_for_dataset_matches_load_dataset(self, key):
        ds = load_dataset(key, size_profile="bench", seed=0)
        arrays = generate(spec_for_dataset(key, size_profile="bench",
                                           seed=0))
        np.testing.assert_array_equal(arrays["u_train"], ds.u_train)
        np.testing.assert_array_equal(arrays["y_train"], ds.y_train)
        np.testing.assert_array_equal(arrays["u_test"], ds.u_test)
        np.testing.assert_array_equal(arrays["y_test"], ds.y_test)

    def test_narma_matches_regression_module(self):
        u, y = narma(200, order=10, seed=42)
        arrays = generate(make_spec("narma", seed=42, n_steps=200, order=10))
        np.testing.assert_array_equal(arrays["u"], u)
        np.testing.assert_array_equal(arrays["y"], y)

    def test_mackey_glass_matches_regression_module(self):
        x = mackey_glass_series(100, seed=42)
        arrays = generate(make_spec("mackey_glass", seed=42, n_steps=100))
        np.testing.assert_array_equal(arrays["x"], x)

    def test_dataset_from_spec(self):
        spec = small_spec("harmonic")
        ds = dataset_from_spec(spec)
        assert ds.n_classes == 2
        assert ds.u_train.shape == (8, 16, 2)
        arrays = generate(spec)
        np.testing.assert_array_equal(ds.u_train, arrays["u_train"])

    def test_dataset_from_spec_rejects_series(self):
        with pytest.raises(ValueError, match="classification"):
            dataset_from_spec(small_spec("narma"))


class TestDriftWrapper:
    def test_wraps_base_signal(self):
        base = make_spec("eeg_pink", seed=3, n_steps=128, n_channels=2)
        flat = make_spec(
            "drift", seed=3,
            base={"name": "eeg_pink", "params": {"n_steps": 128,
                                                 "n_channels": 2}},
            gain_depth=0.0, offset_depth=0.0,
        )
        np.testing.assert_array_equal(generate(flat)["u"],
                                      generate(base)["u"])

    def test_nonzero_drift_changes_signal(self):
        base = make_spec("eeg_pink", seed=3, n_steps=128, n_channels=2)
        drifted = make_spec(
            "drift", seed=3,
            base={"name": "eeg_pink", "params": {"n_steps": 128,
                                                 "n_channels": 2}},
            gain_depth=0.5,
        )
        assert not np.array_equal(generate(drifted)["u"],
                                  generate(base)["u"])

    def test_drift_over_classification_keeps_labels(self):
        base_params = SMALL_PARAMS["harmonic"]
        plain = make_spec("harmonic", seed=7, **base_params)
        drifted = make_spec(
            "drift", seed=7,
            base={"name": "harmonic", "params": dict(base_params)},
            gain_depth=0.3,
        )
        a, b = generate(plain), generate(drifted)
        np.testing.assert_array_equal(a["y_train"], b["y_train"])
        np.testing.assert_array_equal(a["y_test"], b["y_test"])
        assert not np.array_equal(a["u_train"], b["u_train"])

    def test_base_dict_validated(self):
        with pytest.raises(ValueError):
            generate(make_spec("drift", base={"params": {}}))
        with pytest.raises(ValueError):
            generate(make_spec("drift", base={"name": "eeg_pink",
                                              "typo": 1}))
