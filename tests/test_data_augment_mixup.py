"""Augmentation pipeline and Mixup / CutMix feature interpolation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    AugmentationPipeline,
    FeatureInterpolation,
    IdentityAugmentation,
    brightness_contrast,
    cutmix_batch,
    gaussian_blur,
    mixup_batch,
    random_crop,
    random_horizontal_flip,
    random_resized_crop,
)
from repro.nn.functional import one_hot


#: ``src/`` of this checkout, for the subprocess that imports ``repro``.
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_packages_does_not_load_scipy():
    # Only the training-time augmentations use SciPy; a process that
    # imports repro to serve or evaluate must not pay for loading it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    script = ("import sys\n"
              "import repro.core, repro.data, repro.runtime, repro.serve\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120,
                            env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout


@pytest.fixture()
def batch(rng):
    return rng.uniform(0, 1, (8, 3, 16, 16)).astype(np.float32)


class TestAugmentations:
    def test_flip_preserves_shape_and_content_statistics(self, batch, rng):
        flipped = random_horizontal_flip(batch, rng, probability=1.0)
        assert flipped.shape == batch.shape
        np.testing.assert_allclose(flipped, batch[:, :, :, ::-1])

    def test_flip_probability_zero_is_identity(self, batch, rng):
        np.testing.assert_array_equal(random_horizontal_flip(batch, rng, 0.0), batch)

    def test_random_crop_shape(self, batch, rng):
        cropped = random_crop(batch, rng, padding=2)
        assert cropped.shape == batch.shape

    def test_random_crop_zero_padding_identity_offsets(self, batch, rng):
        cropped = random_crop(batch, rng, padding=0)
        np.testing.assert_array_equal(cropped, batch)

    def test_gaussian_blur_smooths(self, batch, rng):
        blurred = gaussian_blur(batch, rng, probability=1.0, sigma_range=(1.5, 1.5))
        assert blurred.shape == batch.shape
        # Blurring reduces high-frequency energy (variance of differences).
        def roughness(x):
            return np.abs(np.diff(x, axis=-1)).mean()
        assert roughness(blurred) < roughness(batch)

    def test_random_resized_crop_shape(self, batch, rng):
        out = random_resized_crop(batch, rng)
        assert out.shape == batch.shape

    def test_brightness_contrast_clipped(self, batch, rng):
        out = brightness_contrast(batch, rng, brightness=0.5, contrast=0.5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_pipeline_output_dtype_and_shape(self, batch):
        pipeline = AugmentationPipeline(seed=0)
        out = pipeline(batch)
        assert out.shape == batch.shape
        assert out.dtype == np.float32

    def test_pipeline_is_stochastic(self, batch):
        pipeline = AugmentationPipeline(seed=0)
        assert not np.array_equal(pipeline(batch), pipeline(batch))

    def test_identity_augmentation(self, batch):
        np.testing.assert_array_equal(IdentityAugmentation()(batch), batch)


class TestMixup:
    def test_targets_remain_distributions(self, batch, rng):
        targets = one_hot(np.arange(8) % 4, 4)
        _, mixed_targets = mixup_batch(batch, targets, alpha=0.4, rng=rng)
        np.testing.assert_allclose(mixed_targets.sum(axis=1), np.ones(8), atol=1e-5)
        assert mixed_targets.min() >= 0.0

    def test_mixup_images_are_convex_combinations(self, batch, rng):
        targets = one_hot(np.arange(8) % 4, 4)
        mixed, _ = mixup_batch(batch, targets, alpha=1.0, rng=rng)
        assert mixed.min() >= batch.min() - 1e-6
        assert mixed.max() <= batch.max() + 1e-6

    def test_alpha_zero_is_identity(self, batch, rng):
        targets = one_hot(np.arange(8) % 4, 4)
        mixed, mixed_targets = mixup_batch(batch, targets, alpha=0.0, rng=rng)
        np.testing.assert_allclose(mixed, batch, atol=1e-6)
        np.testing.assert_allclose(mixed_targets, targets, atol=1e-6)


class TestCutMix:
    def test_targets_remain_distributions(self, batch, rng):
        targets = one_hot(np.arange(8) % 4, 4)
        _, mixed_targets = cutmix_batch(batch, targets, alpha=1.0, rng=rng)
        np.testing.assert_allclose(mixed_targets.sum(axis=1), np.ones(8), atol=1e-5)

    def test_pixels_come_from_the_two_sources(self, batch, rng):
        targets = one_hot(np.arange(8) % 4, 4)
        mixed, _ = cutmix_batch(batch, targets, alpha=1.0, rng=rng)
        # Every pixel of the mixed batch exists somewhere in the original batch.
        assert mixed.min() >= batch.min() - 1e-6
        assert mixed.max() <= batch.max() + 1e-6

    def test_label_weight_matches_patch_area(self, rng):
        images = np.zeros((4, 1, 10, 10), dtype=np.float32)
        targets = one_hot(np.arange(4), 4)
        _, mixed_targets = cutmix_batch(images, targets, alpha=1.0, rng=rng)
        # Mixing coefficients are area fractions, so they lie in [0, 1].
        assert mixed_targets.max() <= 1.0 + 1e-6


class TestFeatureInterpolation:
    def test_probability_zero_returns_one_hot(self, batch):
        interpolation = FeatureInterpolation(probability=0.0, num_classes=4, seed=0)
        images, targets = interpolation(batch, np.arange(8) % 4)
        np.testing.assert_array_equal(images, batch)
        np.testing.assert_allclose(targets, one_hot(np.arange(8) % 4, 4))

    def test_probability_one_always_interpolates(self, batch):
        interpolation = FeatureInterpolation(probability=1.0, num_classes=4, seed=0)
        soft_count = 0
        for _ in range(10):
            _, targets = interpolation(batch, np.arange(8) % 4)
            if not np.allclose(targets.max(axis=1), 1.0):
                soft_count += 1
        assert soft_count > 0

    def test_targets_always_valid_distributions(self, batch):
        interpolation = FeatureInterpolation(probability=0.7, num_classes=4, seed=3)
        for _ in range(10):
            _, targets = interpolation(batch, np.arange(8) % 4)
            np.testing.assert_allclose(targets.sum(axis=1), np.ones(8), atol=1e-5)
            assert targets.min() >= -1e-6
