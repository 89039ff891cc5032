import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unlearnkit import ConfigError, SynthSpec
from unlearnkit.data import (DatasetSplit, blob_centroids, corrupt_labels,
                             format_data_name, generate, parse_data_name,
                             sample_deletion_set)


def nearest_centroid_accuracy(x, y, centers):
    dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float((np.argmin(dists, axis=1) == y).mean())


def test_blobs_counts_and_balance():
    split = generate(SynthSpec(num_classes=3, samples_per_class=100, dim=2, seed=0))
    assert split.num_train == 240 and len(split.test_y) == 60
    assert [int((split.train_y == c).sum()) for c in range(3)] == [80, 80, 80]
    assert [int((split.test_y == c).sum()) for c in range(3)] == [20, 20, 20]


def test_generation_is_deterministic_bytes():
    spec = SynthSpec(generator="spiral", num_classes=2, samples_per_class=40, seed=9)
    a, b = generate(spec), generate(spec)
    assert a.train_x.tobytes() == b.train_x.tobytes()
    assert a.test_x.tobytes() == b.test_x.tobytes()
    assert np.array_equal(a.train_y, b.train_y)


# sha256 prefix over train_x, train_y, test_x, test_y and the 10% deletion indices.
# The digests pin the generators' exact bytes (RNG draw order included) across
# code changes; they were recorded with numpy 2.4 on x86-64.
GOLDEN_SPLITS = [
    (("gaussian_blobs", 2, 10, 0.0, 2, 0), "9b9ee121aad22e4d"),
    (("gaussian_blobs", 3, 37, 0.1, 2, 7), "7e7e6e5e05745834"),
    (("gaussian_blobs", 5, 20, 0.35, 5, 3), "23fd55b9e87f0332"),
    (("gaussian_blobs", 4, 125, 0.1, 8, 11), "c42ad0b01a3569a1"),
    (("spiral", 2, 10, 0.0, 2, 1), "f213ef04d5c74a21"),
    (("spiral", 3, 37, 0.1, 2, 7), "5490284b3a21a6a8"),
    (("spiral", 5, 20, 0.35, 2, 4), "0edac58e9eaace42"),
    (("ring", 2, 10, 0.0, 2, 2), "d0c005e60a210e0e"),
    (("ring", 3, 37, 0.1, 2, 7), "54b8acfc138a3d15"),
    (("ring", 6, 15, 0.35, 2, 5), "24411eeedc129480"),
]


@pytest.mark.parametrize("fields, digest", GOLDEN_SPLITS)
def test_generated_bytes_match_golden_digests(fields, digest):
    split = generate(SynthSpec(*fields)).with_deletion(10)
    h = hashlib.sha256()
    for a in (split.train_x, split.train_y, split.test_x, split.test_y, split.del_indices):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == digest


def test_noise_free_blobs_classified_by_nearest_centroid():
    spec = SynthSpec(num_classes=4, samples_per_class=25, noise=0.0, dim=3, seed=2)
    split = generate(spec)
    acc = nearest_centroid_accuracy(split.train_x, split.train_y, blob_centroids(spec))
    assert acc == 1.0


@pytest.mark.parametrize("generator", ["gaussian_blobs", "spiral", "ring"])
def test_generators_balanced_and_finite(generator):
    spec = SynthSpec(generator=generator, num_classes=3, samples_per_class=20, seed=1)
    split = generate(spec)
    assert np.isfinite(split.train_x).all() and np.isfinite(split.test_x).all()
    counts = np.bincount(split.train_y, minlength=3)
    assert len(set(counts)) == 1


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(generator="moons")
    with pytest.raises(ConfigError):
        SynthSpec(num_classes=1)
    with pytest.raises(ConfigError):
        SynthSpec(samples_per_class=5)
    with pytest.raises(ConfigError):
        SynthSpec(generator="spiral", dim=3)
    with pytest.raises(ConfigError):
        SynthSpec(noise=-0.1)


def test_parse_and_format_data_name():
    spec = parse_data_name("gaussian_blobs:c4:s50:d3:noise0.25:seed7")
    assert spec == SynthSpec("gaussian_blobs", 4, 50, 0.25, 3, 7)
    assert parse_data_name(format_data_name(spec)) == spec
    assert parse_data_name("ring") == SynthSpec(generator="ring")
    with pytest.raises(ConfigError):
        parse_data_name("gaussian_blobs:k9")


@st.composite
def synth_specs(draw):
    generator = draw(st.sampled_from(["gaussian_blobs", "spiral", "ring"]))
    dim = draw(st.integers(2, 16)) if generator == "gaussian_blobs" else 2
    # Noise levels that format_data_name's %g writes exactly: at most 6 significant digits.
    noise = draw(st.integers(0, 10**6)) / 10**draw(st.integers(0, 6))
    return SynthSpec(generator, draw(st.integers(2, 50)), draw(st.integers(10, 5000)),
                     noise, dim, draw(st.integers(0, 2**31)))


@given(synth_specs())
def test_format_then_parse_data_name_roundtrips(spec):
    assert parse_data_name(format_data_name(spec)) == spec


# ----------------------------------------------------------- deletion protocol

def test_deletion_size_rule():
    split = generate(SynthSpec(num_classes=2, samples_per_class=625, seed=0))
    assert split.num_train == 1000
    assert sample_deletion_set(split, 10).size == 100


def test_deletion_sets_nest_across_ratios():
    split = generate(SynthSpec(samples_per_class=100, seed=3))
    for seed in range(5):
        prev = set()
        for ratio in range(1, 11):
            current = set(sample_deletion_set(split, ratio, seed).tolist())
            assert prev <= current
            prev = current


def test_deletion_partition_is_exact():
    split = generate(SynthSpec(samples_per_class=60, seed=4)).with_deletion(7)
    union = np.sort(np.concatenate([split.del_indices, split.retain_indices]))
    assert np.array_equal(union, np.arange(split.num_train))
    assert np.intersect1d(split.del_indices, split.retain_indices).size == 0
    assert split.del_indices.size == round(split.num_train * 7 / 100)


@pytest.mark.parametrize("del_indices, problem", [
    ([4, 4], "duplicates"), ([9, 2, 30, 2], "duplicates"), ([-1, 3], "out of range"),
    ([0, 72], "out of range"), ([72, 72], "out of range")])
def test_a_split_rejects_duplicate_or_out_of_range_deletion_indices(del_indices, problem):
    split = generate(SynthSpec(samples_per_class=30, seed=0))
    assert split.num_train == 72
    with pytest.raises(ConfigError, match=problem):
        DatasetSplit(split.train_x, split.train_y, split.test_x, split.test_y, split.seed,
                     np.array(del_indices))
    kept = DatasetSplit(split.train_x, split.train_y, split.test_x, split.test_y, split.seed,
                        np.array([71, 0, 35]))  # unsorted, in range and distinct
    assert kept.del_indices.tolist() == [71, 0, 35]


def test_deletion_ratio_range():
    split = generate(SynthSpec(seed=0))
    for bad in (0, 11, -3, 2.5):
        with pytest.raises(ConfigError):
            sample_deletion_set(split, bad)


def test_del_ratio_5_matches_config_surface():
    from unlearnkit import UnlearnConfig

    cfg = UnlearnConfig.from_mapping({"del_ratio": "5"})
    assert cfg.del_ratio == 5
    split = generate(cfg.data_spec()).with_deletion(cfg.del_ratio)
    assert split.del_indices.size == round(split.num_train * 5 / 100)


# -------------------------------------------------------------- label corruption

def test_corrupt_labels_binary_always_flips():
    split = generate(SynthSpec(num_classes=2, samples_per_class=50, seed=5)).with_deletion(10)
    corrupted = corrupt_labels(split, split.del_indices, seed=1)
    assert np.array_equal(corrupted, 1 - split.train_y[split.del_indices])


def test_corrupt_labels_stay_in_other_classes():
    split = generate(SynthSpec(num_classes=3, samples_per_class=50, seed=6)).with_deletion(10)
    originals = split.train_y[split.del_indices]
    for trial in range(20):
        corrupted = corrupt_labels(split, split.del_indices, seed=trial)
        assert np.all(corrupted != originals)
        assert np.all((corrupted >= 0) & (corrupted < 3))


def test_corrupt_labels_uniform_over_alternatives():
    split = generate(SynthSpec(num_classes=3, samples_per_class=50, seed=7))
    idx = np.nonzero(split.train_y == 1)[0]  # corrupt class-1 rows only
    counts = {0: 0, 2: 0}
    draws = 0
    for seed in range(250):
        corrupted = corrupt_labels(split, idx, seed=seed)
        for value in (0, 2):
            counts[value] += int((corrupted == value).sum())
        draws += corrupted.size
    assert draws >= 10_000
    for value in (0, 2):
        assert abs(counts[value] / draws - 0.5) < 0.02


def test_corrupt_labels_single_class_error():
    split = DatasetSplit(train_x=np.zeros((20, 2)), train_y=np.zeros(20, dtype=np.int64),
                         test_x=np.zeros((4, 2)), test_y=np.zeros(4, dtype=np.int64), seed=0)
    with pytest.raises(ConfigError):
        corrupt_labels(split, np.arange(5), seed=0)


@pytest.mark.parametrize("name", ["gaussian_blobs:cx", "gaussian_blobs:s", "gaussian_blobs:d2.5",
                                  "gaussian_blobs:noise", "gaussian_blobs:noiseinf",
                                  "gaussian_blobs:noisenan", "gaussian_blobs:seed1.0",
                                  "gaussian_blobs:seed-1"])
def test_a_data_name_field_no_generator_can_use_is_a_config_error(name):
    with pytest.raises(ConfigError, match="data name|noise|seed"):
        parse_data_name(name)
