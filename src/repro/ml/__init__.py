"""Classical ML estimators (scikit-learn substitutes, from scratch).

Implements the baseline methods of the paper's §4.1.3 — Ridge, Ridge_ts,
RandomForestRegressor (RFReg) and SVR — plus the preprocessing, grid-search
and PCA utilities the evaluation relies on.
"""

from .base import Estimator, check_X, check_X_y, clone
from .forest import PAPER_RF_MAX_DEPTHS, PAPER_RF_N_ESTIMATORS, RandomForestRegressor
from .model_selection import ParameterGrid, ValidationGridSearch
from .pca import PCA
from .preprocessing import LabelEncoder, StandardScaler
from .ridge import PAPER_RIDGE_ALPHAS, LinearRegression, Ridge, RidgeTS
from .svr import PAPER_SVR_ALPHAS, PAPER_SVR_EPSILONS, PAPER_SVR_KERNELS, SVR
from .tree import DecisionTreeRegressor, TreeNode

__all__ = [
    "Estimator",
    "clone",
    "check_X",
    "check_X_y",
    "Ridge",
    "RidgeTS",
    "LinearRegression",
    "PAPER_RIDGE_ALPHAS",
    "DecisionTreeRegressor",
    "TreeNode",
    "RandomForestRegressor",
    "PAPER_RF_MAX_DEPTHS",
    "PAPER_RF_N_ESTIMATORS",
    "SVR",
    "PAPER_SVR_ALPHAS",
    "PAPER_SVR_KERNELS",
    "PAPER_SVR_EPSILONS",
    "StandardScaler",
    "LabelEncoder",
    "ParameterGrid",
    "ValidationGridSearch",
    "PCA",
]
