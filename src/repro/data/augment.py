"""Batch-level data augmentation on NumPy image arrays (NCHW).

The paper uses "traditional" augmentation (blur, horizontal flip, crop and
resize) during pretraining, on top of the Mixup/CutMix feature interpolation
implemented in :mod:`repro.data.mixup`.  The two functions that filter or
resize import :mod:`scipy.ndimage` when they run, so importing the package
(every process that uses :mod:`repro` does) does not load SciPy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def random_horizontal_flip(images: np.ndarray, rng: np.random.Generator,
                           probability: float = 0.5) -> np.ndarray:
    """Flip each image left-right with the given probability."""
    out = images.copy()
    flips = rng.random(len(images)) < probability
    out[flips] = out[flips][:, :, :, ::-1]
    return out


def random_crop(images: np.ndarray, rng: np.random.Generator,
                padding: int = 4) -> np.ndarray:
    """Pad with zeros and crop back to the original size at a random offset."""
    n, c, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    mode="reflect")
    out = np.empty_like(images)
    offsets_y = rng.integers(0, 2 * padding + 1, size=n)
    offsets_x = rng.integers(0, 2 * padding + 1, size=n)
    for index in range(n):
        oy, ox = offsets_y[index], offsets_x[index]
        out[index] = padded[index, :, oy:oy + h, ox:ox + w]
    return out


def gaussian_blur(images: np.ndarray, rng: np.random.Generator,
                  probability: float = 0.2, sigma_range: Tuple[float, float] = (0.3, 1.0)
                  ) -> np.ndarray:
    """Blur a random subset of images with a Gaussian kernel."""
    from scipy import ndimage

    out = images.copy()
    for index in range(len(images)):
        if rng.random() < probability:
            sigma = rng.uniform(*sigma_range)
            out[index] = ndimage.gaussian_filter(out[index], sigma=(0, sigma, sigma))
    return out


def random_resized_crop(images: np.ndarray, rng: np.random.Generator,
                        scale: Tuple[float, float] = (0.6, 1.0)) -> np.ndarray:
    """Crop a random sub-window and resize it back to the original size."""
    from scipy import ndimage

    n, c, h, w = images.shape
    out = np.empty_like(images)
    for index in range(n):
        area_scale = rng.uniform(*scale)
        crop_h = max(int(round(h * np.sqrt(area_scale))), 4)
        crop_w = max(int(round(w * np.sqrt(area_scale))), 4)
        top = rng.integers(0, h - crop_h + 1)
        left = rng.integers(0, w - crop_w + 1)
        crop = images[index, :, top:top + crop_h, left:left + crop_w]
        zoom = (1.0, h / crop_h, w / crop_w)
        out[index] = ndimage.zoom(crop, zoom, order=1)[:, :h, :w]
    return out


def brightness_contrast(images: np.ndarray, rng: np.random.Generator,
                        brightness: float = 0.1, contrast: float = 0.1) -> np.ndarray:
    """Random per-image brightness and contrast jitter."""
    n = len(images)
    shift = rng.uniform(-brightness, brightness, size=(n, 1, 1, 1)).astype(images.dtype)
    scale = rng.uniform(1 - contrast, 1 + contrast, size=(n, 1, 1, 1)).astype(images.dtype)
    mean = images.mean(axis=(1, 2, 3), keepdims=True)
    return np.clip((images - mean) * scale + mean + shift, 0.0, 1.0)


class AugmentationPipeline:
    """Composable augmentation pipeline matching the paper's pretraining setup.

    The default pipeline applies random crop, horizontal flip and occasional
    Gaussian blur; resized crops and photometric jitter can be enabled for
    stronger regularization.
    """

    def __init__(self, crop_padding: int = 2, flip_probability: float = 0.5,
                 blur_probability: float = 0.2, use_resized_crop: bool = False,
                 use_color_jitter: bool = False, seed: int = 0):
        self.crop_padding = crop_padding
        self.flip_probability = flip_probability
        self.blur_probability = blur_probability
        self.use_resized_crop = use_resized_crop
        self.use_color_jitter = use_color_jitter
        self._rng = np.random.default_rng(seed)

    def __call__(self, images: np.ndarray) -> np.ndarray:
        rng = self._rng
        out = images
        if self.crop_padding > 0:
            out = random_crop(out, rng, padding=self.crop_padding)
        if self.use_resized_crop:
            out = random_resized_crop(out, rng)
        if self.flip_probability > 0:
            out = random_horizontal_flip(out, rng, self.flip_probability)
        if self.blur_probability > 0:
            out = gaussian_blur(out, rng, probability=self.blur_probability)
        if self.use_color_jitter:
            out = brightness_contrast(out, rng)
        return out.astype(np.float32)


class IdentityAugmentation:
    """No-op augmentation used by the ablation without AG."""

    def __call__(self, images: np.ndarray) -> np.ndarray:
        return images
