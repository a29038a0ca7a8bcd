"""Pure-NumPy DNN substrate.

Substitutes for the paper's Caffe/NVCaffe workers: Dense, ReLU and
Flatten layers with exact analytic gradients (validated against
numerical differentiation in the test suite), softmax cross-entropy, SGD
with momentum, and procedural CIFAR-like datasets.  The MLP proxies do
the real gradient math; AlexNet and ResNet-56 enter as shape specs
(``alexnet_cifar_spec``, ``resnet_cifar_spec``) that size the wire.
Networks expose their parameters as one flat vector so they plug directly
into :class:`repro.core.api.ParameterServerSystem`.
"""

from repro.ml.data import Dataset, gaussian_blobs, synthetic_cifar10
from repro.ml.layers import Dense, Flatten, Layer, ReLU
from repro.ml.loss import accuracy, softmax_cross_entropy
from repro.ml.network import Sequential
from repro.ml.models_zoo import alexnet_cifar_spec, mlp, proxy_classifier, resnet_cifar_spec
from repro.ml.optim import SGD, Optimizer
from repro.ml.training import TrainingTask, evaluate

__all__ = [
    "Dataset",
    "gaussian_blobs",
    "synthetic_cifar10",
    "Dense",
    "Flatten",
    "Layer",
    "ReLU",
    "accuracy",
    "softmax_cross_entropy",
    "Sequential",
    "alexnet_cifar_spec",
    "mlp",
    "proxy_classifier",
    "resnet_cifar_spec",
    "SGD",
    "Optimizer",
    "TrainingTask",
    "evaluate",
]
