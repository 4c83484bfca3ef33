"""spinefuse: spine landmark localization by fusing heatmap and coordinate
predictions.

A predicted heatmap and a direct coordinate prediction describe the same
landmark with different failure modes; turning the coordinate into a Gaussian
prior and multiplying the two concentrates mass where both agree, and an
argmax of the product reads off the consensus position.
"""

from .core import (
    GrayImage,
    LandmarkSet,
    PixelFrame,
    Rng,
    ValidationError,
)
from .evaluate import ComparisonReport, EvalReport, LandmarkStats, pck
from .fusion import (
    DecodeMethod,
    FusionConfig,
    coord_to_prior,
    fuse_and_decode,
    fuse_batch,
    fuse_product,
)
from .geometry import (
    AffineTransform2D,
    AugmentationRanges,
    build_transform,
    sample_augmentation,
    sample_valid_augmentation,
    warp_image,
    warp_landmarks,
)
from .heatmap import (
    GaussianSpec,
    Heatmap,
    decode_argmax,
    decode_centroid,
    render_gaussian,
    render_label_stack,
)
from .preprocess import equalize_histogram, resize_bilinear, resize_landmarks
from .simulate import (
    CoordPredictorModel,
    HeatmapPredictorModel,
    PhantomConfig,
    TrialConfig,
    calibrated_config,
    confusion_prob_for_accuracy,
    generate_phantom,
    noise_sigma_for_accuracy,
    noiseless_config,
    phantom_image,
    run_trial,
    simulate_coords,
    simulate_heatmaps,
)

__version__ = "0.1.0"
