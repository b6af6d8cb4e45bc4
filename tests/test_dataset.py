import math
import warnings

import numpy as np
import pytest

from fairmix.dataset import (
    binarize_panas,
    load_dataset,
    save_dataset,
)
from fairmix.errors import (
    AlignmentError,
    DegenerateGroupWarning,
    InputError,
    ParseError,
    SchemaError,
)

from conftest import make_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")


def make_files(tmp_path, n_rows=4, missing_id=False, bad_cell=False, dup_id=False):
    ids = [f"c{i}" for i in range(n_rows)]
    face_rows = []
    for i, sid in enumerate(ids):
        if missing_id and i == n_rows - 1:
            continue
        face_rows.append(f"{sid},{i * 1.5},{'oops' if bad_cell and i == 1 else i + 0.25}")
    if dup_id:
        face_rows.append(face_rows[0])
    write(tmp_path / "face.csv", "sample_id,f1,f2\n" + "\n".join(face_rows) + "\n")
    meta_rows = [f"{sid},subj{i % 2},{30 + 2 * i},{i % 2}" for i, sid in enumerate(ids)]
    write(tmp_path / "meta.csv", "sample_id,subject_id,pa_score,gender\n" + "\n".join(meta_rows) + "\n")
    write(tmp_path / "levels.csv", "feature_name,level\nf1,high\nf2,low\n")
    write(
        tmp_path / "manifest.txt",
        "modality.face=face.csv\nlevels.face=levels.csv\nmetadata=meta.csv\npanas_threshold=33.3\n",
    )
    return tmp_path / "manifest.txt"


class TestBinarizePanas:
    def test_above_threshold(self):
        assert binarize_panas(40.0, 33.3) == 1

    def test_below_threshold(self):
        assert binarize_panas(20.0, 33.3) == 0

    def test_exactly_at_threshold_is_low(self):
        # boundary fixed by the strict-inequality rule
        assert binarize_panas(33.3, 33.3) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            binarize_panas(math.nan)


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        ds = load_dataset(str(make_files(tmp_path)))
        assert ds.n_samples == 4
        assert ds.modality_names == ("face",)
        assert ds.declared_attributes == ("gender",)
        # pa_scores 30,32,34,36 at threshold 33.3 -> labels 0,0,1,1
        assert list(ds.labels()) == [0, 0, 1, 1]
        assert ds.modality("face").column_meta[0].level == "high"

    def test_row_order_follows_metadata(self, tmp_path):
        ds = load_dataset(str(make_files(tmp_path)))
        assert ds.sample_ids() == ["c0", "c1", "c2", "c3"]
        assert ds.modality("face").samples[2, 0] == 3.0

    def test_missing_sample_id_in_modality(self, tmp_path):
        with pytest.raises(AlignmentError, match="c3"):
            load_dataset(str(make_files(tmp_path, missing_id=True)))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(ParseError, match="f2"):
            load_dataset(str(make_files(tmp_path, bad_cell=True)))

    @pytest.mark.parametrize("threshold", ["abc", "nan"])
    def test_bad_panas_threshold(self, tmp_path, threshold):
        manifest = make_files(tmp_path)
        write(manifest, manifest.read_text().replace("=33.3", f"={threshold}"))
        with pytest.raises(ParseError, match="panas_threshold"):
            load_dataset(str(manifest))

    def test_duplicate_sample_id(self, tmp_path):
        with pytest.raises(SchemaError, match="duplicate"):
            load_dataset(str(make_files(tmp_path, dup_id=True)))

    def test_single_row_warns_degenerate(self, tmp_path):
        write(tmp_path / "f.csv", "sample_id,f1\na,1.0\n")
        write(tmp_path / "m.csv", "sample_id,subject_id,label,gender\na,s0,1,1\n")
        write(tmp_path / "man.txt", "modality.f=f.csv\nmetadata=m.csv\n")
        with pytest.warns(DegenerateGroupWarning):
            ds = load_dataset(str(tmp_path / "man.txt"))
        assert ds.n_samples == 1

    def test_missing_cells_loaded_as_nan(self, tmp_path):
        write(tmp_path / "f.csv", "sample_id,f1\na,\nb,2.0\n")
        write(tmp_path / "m.csv", "sample_id,subject_id,label,g\na,s0,1,1\nb,s1,0,0\n")
        write(tmp_path / "man.txt", "modality.f=f.csv\nmetadata=m.csv\n")
        ds = load_dataset(str(tmp_path / "man.txt"))
        assert math.isnan(ds.modality("f").samples[0, 0])


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = make_dataset(
            {"face": rng.normal(size=(6, 3)), "audio": rng.normal(size=(6, 2))},
            labels=[0, 1, 0, 1, 1, 0],
            attrs=[[1], [0], [1], [0], [1], [1]],
        )
        manifest = save_dataset(ds, str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = load_dataset(manifest)
        assert back.sample_ids() == ds.sample_ids()
        assert back.meta == ds.meta
        for a, b in zip(ds.modalities, back.modalities):
            assert a.modality_name == b.modality_name
            assert a.column_meta == b.column_meta
            np.testing.assert_array_equal(a.samples, b.samples)  # bitwise

    def test_nan_cells_survive_round_trip(self, tmp_path):
        X = np.array([[1.0, np.nan], [3.0, 4.0]])
        ds = make_dataset({"m": X}, labels=[0, 1], attrs=[[0], [1]])
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        out = back.modality("m").samples
        assert math.isnan(out[0, 1]) and out[1, 1] == 4.0


class TestAlignmentInvariant:
    def test_subset_keeps_alignment(self, two_group_dataset):
        sub = two_group_dataset.subset([3, 1, 5])
        assert [m.sample_id for m in sub.meta] == ["id3", "id1", "id5"]
        np.testing.assert_array_equal(
            sub.modality("face").samples[1],
            two_group_dataset.modality("face").samples[1],
        )
