"""Multi-layer class activation mapping toolkit with a self-contained CNN.

Core pieces: a deterministic toy CNN fixture with one explicit, batched
forward/backward engine for its conv-block topology, perturbation-weighted
layer scoring, four CAM methods (Grad-CAM, Grad-CAM++, LayerCAM, I-CAM)
with generalized-alpha weighting and bias terms, and PPM/PGM rendering
for human-viewable overlays.
"""

__version__ = "0.1.0"

from .cam import CamRequest, Heatmap
from .model import Model, build_fixture_model, forward_trace, load_model, save_model
from .perturb import PerturbationConfig, generate_set
from .pipeline import ExplainResult, explain
