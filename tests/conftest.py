import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

import dicke3 as d3
from dicke3.model import ModelConfig, coupling_name, with_couplings
from dicke3.operators import Configuration
from dicke3.rotations import Branch


def random_model(
    rng,
    cfg,
    na=2,
    nmax=12,
    mu_lo=0.05,
    mu_hi=2.0,
    omega_span=(0.0, 2.0),
    Omega=1.0,
):
    """Valid random model: sorted frequencies, couplings only on allowed pairs."""
    om = np.sort(rng.uniform(*omega_span, 3))
    mus = {"mu12": 0.0, "mu13": 0.0, "mu23": 0.0}
    pair_a, pair_b = cfg.allowed_pairs
    mus[coupling_name(pair_a)] = float(rng.uniform(mu_lo, mu_hi))
    mus[coupling_name(pair_b)] = float(rng.uniform(mu_lo, mu_hi))
    return d3.ModelConfig(
        cfg,
        float(om[0]),
        float(om[1]),
        float(om[2]),
        **mus,
        na=na,
        nmax=nmax,
        Omega=Omega,
    )


_coupling = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
_frequency = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0))
_hypothesis = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
)


@st.composite
def framed_models(draw):
    """Random model and frame; zero and single-axis couplings included, and
    equal detuning, whose rotated frames conserve the isolated level."""
    cfg = draw(st.sampled_from(list(Configuration)))
    omegas = sorted(draw(st.lists(_frequency, min_size=3, max_size=3)))
    if draw(st.booleans()):  # the forbidden pair's levels equal: no one-body term
        lo, hi = cfg.forbidden_pair
        omegas[lo:hi] = [omegas[lo - 1]] * (hi - lo)
    na = draw(st.integers(1, 3))
    nmax = draw(st.integers(0, 24))
    mu_a, mu_b = draw(_coupling), draw(_coupling)
    frames = [None] if mu_a == mu_b == 0.0 else [None, Branch.FIRST, Branch.SECOND]
    frame = draw(st.sampled_from(frames))
    m = ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=na, nmax=nmax)
    return with_couplings(m, mu_a, mu_b), frame
