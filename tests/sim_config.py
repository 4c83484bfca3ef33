"""The sim-config format as a literal: `read_sim_config` is the one code that
knows it, and README.md shows this text with images = 2 as its example."""

# noiseless_config(images=...) written out; fill in with SIM_CONFIG.format(images=n)
SIM_CONFIG = """\
# spinefuse sim config v1
[phantom]
landmarks = 11
grid = 512 512
spacing_mm_per_px = 0.5
chain_spacing_px = 40.0
wobble_px = 6.0
[coords_model]
noise_sigma_px = 0.0
outlier_rate = 0.0
outlier_sigma_px = 0.0
[heatmap_model]
peak_jitter_sigma_px = 0.0
heatmap_sigma_px = 1.2
adjacent_confusion_prob = 0.0
spurious_amplitude = 0.9 1.1
[fusion]
prior_sigma_px = 6.0
floor_epsilon = 1e-12
decode = argmax
[run]
images = {images}
threshold_mm = 8.0
"""
