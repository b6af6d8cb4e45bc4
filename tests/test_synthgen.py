import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from fairmix.errors import DegenerateGroupWarning, InputError
from fairmix.synthgen import MAX_FEATURE_CELLS, MAX_ROWS, SynthSpec, generate


class TestGenerate:
    def test_row_count(self):
        ds = generate(SynthSpec(n_subjects=26, sessions_per_subject=4, seed=1))
        assert ds.n_samples == 104

    def test_subjects_share_attributes(self):
        ds = generate(SynthSpec(n_subjects=10, sessions_per_subject=3, seed=2))
        by_subject = {}
        for m in ds.meta:
            by_subject.setdefault(m.subject_id, set()).add(m.attributes)
        assert all(len(v) == 1 for v in by_subject.values())

    def test_determinism(self):
        spec = SynthSpec(n_subjects=8, seed=33)
        a, b = generate(spec), generate(spec)
        assert a.meta == b.meta
        for t1, t2 in zip(a.modalities, b.modalities):
            np.testing.assert_array_equal(t1.samples, t2.samples)

    def test_zero_separation_means_no_signal(self):
        spec = SynthSpec(
            n_subjects=100, sessions_per_subject=2,
            separation_majority=0.0, separation_minority=0.0, seed=3,
        )
        ds = generate(spec)
        X = ds.modality("face").samples
        y = ds.labels()
        gap = np.linalg.norm(X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0))
        assert gap < 0.3  # class means coincide up to sampling noise

    @pytest.mark.parametrize("noise_std", [1.0, 2.0])  # the gap is counted in noise stds
    def test_separation_controls_class_gap(self, noise_std):
        spec = SynthSpec(n_subjects=200, sessions_per_subject=2, separation_majority=3.0,
                         separation_minority=3.0, noise_std=noise_std, seed=4)
        ds = generate(spec)
        X = ds.modality("face").samples
        y = ds.labels()
        gap = np.linalg.norm(X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0))
        assert 2.5 * noise_std < gap < 3.5 * noise_std

    def test_each_group_draws_labels_at_its_base_rate(self):
        spec = SynthSpec(n_subjects=400, sessions_per_subject=2,
                         base_rate_majority=0.9, base_rate_minority=0.2, seed=6)
        ds = generate(spec)
        majority = ds.attribute_values("gender") == 1
        y = ds.labels()
        assert abs(y[majority].mean() - 0.9) < 0.06
        assert abs(y[~majority].mean() - 0.2) < 0.06

    def test_each_attribute_drawn_at_its_share(self):
        spec = SynthSpec(n_subjects=400, sessions_per_subject=1,
                         attribute_props=(("gender", 0.9), ("race", 0.2)), seed=7)
        ds = generate(spec)
        assert abs(ds.attribute_values("gender").mean() - 0.9) < 0.06
        assert abs(ds.attribute_values("race").mean() - 0.2) < 0.06

    def test_marginal_fidelity_over_seeds(self):
        # realized majority share within 3 binomial standard errors
        prop, n = 0.7, 50
        se = np.sqrt(prop * (1 - prop) / n)
        shares = []
        for seed in range(100):
            spec = SynthSpec(n_subjects=n, sessions_per_subject=1,
                             attribute_props=(("gender", prop),), seed=seed)
            ds = generate(spec)
            shares.append(ds.attribute_values("gender").mean())
        assert abs(np.mean(shares) - prop) < 3 * se / np.sqrt(100)

    def test_single_group_warns(self):
        with pytest.warns(UserWarning, match="single group"):
            generate(SynthSpec(n_subjects=5, attribute_props=(("gender", 1.0),), seed=0))

    def test_single_label_warns(self):
        spec = SynthSpec(n_subjects=3, base_rate_majority=0.0, base_rate_minority=0.0)
        with pytest.warns(DegenerateGroupWarning, match="label takes a single value"):
            ds = generate(spec)
        assert not ds.labels().any()

    @pytest.mark.parametrize("changes, message", [
        ({"modality_dims": (("face", 2), ("", 3))}, "modality '' has an empty name"),
        ({"attribute_props": (("gender", 0.5), ("", 0.5))}, "attribute '' has an empty name"),
    ])
    def test_empty_names_rejected(self, changes, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            SynthSpec(**changes)

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            SynthSpec(n_subjects=0)
        with pytest.raises(InputError):
            SynthSpec(noise_std=0.0)

    @pytest.mark.parametrize("changes, message", [
        ({"modality_dims": (("face", 3), ("face", 4))}, "modality 'face' is named more than once"),
        ({"modality_dims": (("face", 3), ("face", 3))}, "modality 'face' is named more than once"),
        ({"attribute_props": (("gender", 0.5), ("gender", 0.3))},
         "attribute 'gender' is named more than once"),
        ({"modality_dims": ()}, "modality_dims: expected one or more (name, value) pairs, got ()"),
        ({"attribute_props": ()}, "attribute_props: expected one or more (name, value) pairs, got ()"),
        ({"base_rate_majority": 2.0}, "base_rate_majority: expected a number in [0, 1], got 2.0"),
        ({"base_rate_minority": -1.0}, "base_rate_minority: expected a number in [0, 1], got -1.0"),
        ({"base_rate_minority": float("nan")},
         "base_rate_minority: expected a number in [0, 1], got nan"),
        ({"bias_attribute": "race"}, "bias_attribute 'race' not among ('gender',)"),
        # min(2.0, nan) < 0 is False: this spec drew 28 of 40 face rows as NaN
        ({"separation_minority": math.nan},
         "separation_minority: expected a non-negative finite number, got nan"),
        ({"separation_majority": math.inf},
         "separation_majority: expected a non-negative finite number, got inf"),
        ({"noise_std": math.inf}, "noise_std: expected a positive finite number, got inf"),
        # generate ended in numpy's ValueError ("expected non-negative
        # integer") on the negative seed and in a TypeError on the others
        ({"seed": -1}, "seed: expected a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed: expected a non-negative integer, got 1.5"),
        ({"seed": True}, "seed: expected a non-negative integer, got True"),
        ({"n_subjects": 2.5}, "n_subjects: expected an integer >= 1, got 2.5"),
        ({"sessions_per_subject": 4.0}, "sessions_per_subject: expected an integer >= 1, got 4.0"),
        ({"modality_dims": (("face", 2.5),)}, "modality.face: expected an integer >= 1, got 2.5"),
        # validate passed this spec, and generate ran out of memory drawing it
        ({"n_subjects": 10**12}, "n_subjects x sessions_per_subject = 4000000000000 rows, "
                                 "more than MAX_ROWS = 1000000"),
        ({"n_subjects": 10**5, "modality_dims": (("face", 20), ("audio", 6))},
         "400000 rows x 26 feature columns = 10400000 feature cells, "
         "more than MAX_FEATURE_CELLS = 10000000"),
    ])
    def test_rejected_when_built(self, changes, message):
        with pytest.raises(InputError) as info:
            SynthSpec(**changes)
        assert str(info.value) == message

    def test_size_bounds_are_taken(self):
        spec = SynthSpec(n_subjects=MAX_ROWS // 4,
                         modality_dims=(("face", MAX_FEATURE_CELLS // MAX_ROWS),))
        assert spec.n_subjects * spec.sessions_per_subject == MAX_ROWS  # built, not drawn

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_base_rate_bounds_are_taken(self, rate):
        spec = SynthSpec(n_subjects=4, base_rate_majority=rate, base_rate_minority=rate)
        with pytest.warns(DegenerateGroupWarning, match="label takes a single value"):
            assert (generate(spec).labels() == rate).all()

    def test_numpy_integers_are_taken(self):
        spec = SynthSpec(n_subjects=np.int64(4), sessions_per_subject=np.int32(2),
                         modality_dims=(("face", np.int64(3)),), seed=np.int64(7))
        plain = SynthSpec(n_subjects=4, sessions_per_subject=2, modality_dims=(("face", 3),), seed=7)
        np.testing.assert_array_equal(generate(spec).modality("face").samples,
                                      generate(plain).modality("face").samples)

    def test_bias_attribute_names_a_declared_one(self):
        spec = SynthSpec(attribute_props=(("gender", 0.5), ("race", 0.5)), bias_attribute="race")
        assert spec.resolved_bias_attribute == "race"
        assert SynthSpec().resolved_bias_attribute == "gender"  # the first declared by default


def draw_digest(ds):
    """sha256 over each modality's samples, the labels, the attrs and both id
    columns, each with its dtype and shape."""
    h = hashlib.sha256()
    for column in (*(t.samples for t in ds.modalities), ds.label, ds.attrs, ds.sample_id,
                   ds.subject_id):
        h.update(f"{column.dtype.str}{column.shape}".encode())
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


class TestGeneratePinned:
    """generate's draw order is its contract: a change that draws one number
    more, fewer or elsewhere moves these digests."""

    SPECS = {
        "default": SynthSpec(),
        "criterion_7": SynthSpec(n_subjects=40, sessions_per_subject=4,
                                 attribute_props=(("gender", 0.8),),
                                 separation_majority=2.0, separation_minority=1.2, seed=3),
        "two_attributes": SynthSpec(attribute_props=(("gender", 0.6), ("race", 0.3)),
                                    bias_attribute="race", separation_majority=0.0,
                                    noise_std=0.7, seed=5),
        "one_session": SynthSpec(n_subjects=30, sessions_per_subject=1,
                                 base_rate_majority=0.7, base_rate_minority=0.3, seed=9),
    }
    DIGESTS = {
        "default": "e06a258490b0de90a921cfe96eefd2f04ed938e361bf541e7db916f35e28665a",
        "criterion_7": "7f71b4036ad12a75b865731858e46c40c1c0c3449aee2a61beb4878cdd79b8a3",
        "two_attributes": "a7ab892e5ba9d732ce79fee22304b784e6c01a2a01efd3819f3cb0b2a9feeebc",
        "one_session": "b418b4818075c1a89a96d35099408f0dbcc6a47d9aed6facd3534dd39eafff31",
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_digest(self, name):
        assert draw_digest(generate(self.SPECS[name])) == self.DIGESTS[name]


def test_peak_memory_stays_near_the_feature_bytes():
    # the wide_pca bench shape: the features are drawn into their arrays, so
    # the peak is them plus one modality's offset product (1.5 times)
    spec = SynthSpec(n_subjects=40, sessions_per_subject=4,
                     modality_dims=(("face", 1000), ("audio", 1000)),
                     attribute_props=(("gender", 0.75),),
                     separation_majority=4.0, separation_minority=2.4)
    tracemalloc.start()
    try:
        ds = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * sum(t.samples.nbytes for t in ds.modalities)


REAL_FIELDS = [f.name for f in dataclasses.fields(SynthSpec) if type(f.default) is float]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [*REAL_FIELDS, "attribute_props"])
def test_non_finite_reals_rejected(field, value):
    changes = {field: (("gender", value),) if field == "attribute_props" else value}
    with pytest.raises(InputError):
        SynthSpec(**changes)


def test_real_fields_listed():
    assert set(REAL_FIELDS) == {"base_rate_majority", "base_rate_minority",
                                "separation_majority", "separation_minority", "noise_std"}
