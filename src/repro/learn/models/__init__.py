"""Predictive models implementing the scikit-learn-style contract."""

from .baseline import MajorityClassifier, RandomClassifier
from .forest import RandomForestClassifier
from .knn import KNeighborsClassifier, neighbor_order, pairwise_distances
from .linear import LinearRegression, LinearSVC, RidgeRegression
from .logistic import LogisticRegression, sigmoid
from .naive_bayes import GaussianNB
from .tree import DecisionTreeClassifier

__all__ = [
    "MajorityClassifier",
    "RandomForestClassifier",
    "RandomClassifier",
    "KNeighborsClassifier",
    "neighbor_order",
    "pairwise_distances",
    "LinearRegression",
    "LinearSVC",
    "RidgeRegression",
    "LogisticRegression",
    "sigmoid",
    "GaussianNB",
    "DecisionTreeClassifier",
]
