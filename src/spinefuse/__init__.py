"""spinefuse: spine landmark localization by fusing heatmap and coordinate
predictions.

A predicted heatmap and a direct coordinate prediction describe the same
landmark with different failure modes; turning the coordinate into a Gaussian
prior and multiplying the two concentrates mass where both agree, and an
argmax of the product reads off the consensus position.
"""
