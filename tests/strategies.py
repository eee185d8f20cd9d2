"""Hypothesis strategies and random cases: small projects, predictions and prices."""

import numpy as np
from hypothesis import strategies as st

from defectcost import (
    ALL_KINDS,
    Artifact,
    CostParams,
    Defect,
    Prediction,
    Project,
    Relationship,
    classify,
    project_view,
)
from defectcost.model import _check_total_size, _csr


def random_project(
    rng: np.random.Generator,
    max_artifacts: int = 30,
    max_defects: int = 10,
    max_size: int = 400,
    name: str = "rand",
) -> Project:
    """A small random n-m project for property and consistency tests."""
    n = int(rng.integers(1, max_artifacts + 1))
    sizes = rng.integers(1, max_size + 1, size=n)
    _check_total_size(name, sum(sizes.tolist()))
    n_defects = int(rng.integers(0, max_defects + 1))
    rows = []
    for _ in range(n_defects):
        k = int(min(rng.geometric(0.45), n))
        rows.append(sorted(rng.choice(n, size=k, replace=False).tolist()))
    return Project._from_arrays(
        name,
        Relationship.N_TO_M,
        tuple(f"{name}/f{i}" for i in range(n)),
        sizes,
        *_csr(rows),
        _defect_ids=tuple(f"{name}/d{j}" for j in range(n_defects)),
    )


def random_prediction(project: Project, rng: np.random.Generator) -> Prediction:
    """A uniformly random labeling of the project's artifacts."""
    labels = rng.integers(0, 2, size=len(project.sizes))
    return Prediction(labels=dict(zip(project._file_ids, labels.tolist())))


@st.composite
def projects(draw, max_artifacts=8, max_defects=5, min_defects=0):
    n = draw(st.integers(1, max_artifacts))
    sizes = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n))
    artifacts = tuple(Artifact(f"f{i}", size) for i, size in enumerate(sizes))
    n_defects = draw(st.integers(min_defects, max_defects))
    defects = []
    for j in range(n_defects):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        defects.append(Defect(f"d{j}", frozenset(f"f{i}" for i in members)))
    return Project(id="hyp", artifacts=artifacts, defects=tuple(defects))


@st.composite
def labeled_projects(draw, **kwargs):
    project = draw(projects(**kwargs))
    labels = draw(
        st.lists(
            st.integers(0, 1),
            min_size=len(project.artifacts),
            max_size=len(project.artifacts),
        )
    )
    prediction = Prediction(
        {a.id: lab for a, lab in zip(project.artifacts, labels)}
    )
    return project, prediction


def priced_cases(rng, count, max_artifacts=20, max_defects=8):
    """``count`` random projects, each priced under all six kinds.

    Yields (view, outcome, params, kind).  ``p_qf`` is drawn from [0, 0.95),
    so it is almost never dyadic, and each of ``c_init`` and ``c_exec`` is
    positive in half of the projects.
    """
    for _ in range(count):
        project = random_project(rng, max_artifacts=max_artifacts, max_defects=max_defects)
        prediction = random_prediction(project, rng)
        c_ratio = float(rng.uniform(0.1, 40.0))
        p_qf = float(rng.uniform(0.0, 0.95))
        c_init = float(rng.uniform(0.0, 3.0)) if rng.integers(2) else 0.0
        c_exec = float(rng.uniform(0.0, 3.0)) if rng.integers(2) else 0.0
        for kind in ALL_KINDS:
            view = project_view(project, kind.relationship)
            params = CostParams(c_ratio, p_qf, c_init, c_exec, kind.qa_mode)
            yield view, classify(view, prediction), params, kind
