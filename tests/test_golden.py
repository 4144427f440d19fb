"""Golden traces: the sha256 of each wall-free trace CSV of a fixed set of
small runs, one per method on each instance family.

A speed-up must leave every trajectory and every recorded value as it was,
bit for bit. A change that moves a trace on purpose says so and updates
the digest here.
"""

import hashlib

import numpy as np
import pytest

from bregopt import (
    LogBarrier,
    PoissonKL,
    Preconditioner,
    ProblemInstance,
    ReferenceFunction,
    SolverConfig,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    poisson_sample,
    run,
    solve_reference,
)
from bregopt.rng import make_rng


def interpolation(keep_x_star=True):
    problem = gen_interpolation(30, 4, seed=5)
    if not keep_x_star:
        problem.x_star = None
    return problem


def tomography():
    return gen_tomography(16, 6, seed=1, noise=False)  # f_star = 0, no x_star


def barrier_poisson():
    rng = make_rng(11)
    A = rng.uniform(0.0, 1.0, size=(40, 6))
    b = poisson_sample(A @ rng.uniform(0.2, 1.0, size=6), 12).astype(float)
    obj = PoissonKL(A, b, barrier_weight=0.5)
    problem = ProblemInstance(objective=obj, reference=LogBarrier(), x0=np.ones(6),
                              meta={"L_rel": obj.rel_smoothness()})
    return solve_reference(problem, max_iter=5000)


def preconditioned():
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    return solve_reference(problem)


GAINS = {"mu_h": 1.0, "L_h": 2.0, "M": 1e-3, "L_rel": 3.0, "mu_rel": 0.1}
BREGMAN = ("bgd", "bsgd", "bsaga", "bsvrg")
# instance -> (builder, shared config fields, methods)
CASES = {
    "interpolation": (interpolation, dict(eta=10.0, epochs=3.0, seed=2, record_every=1),
                      BREGMAN + ("mu",)),
    "interpolation-gain": (interpolation, dict(gain_constants=GAINS, step_multiplier=1e4,
                                               epochs=3.0, seed=2, record_every=5), ("bsaga",)),
    "interpolation-f-star": (lambda: interpolation(keep_x_star=False),
                             dict(eta=10.0, epochs=3.0, seed=2), BREGMAN + ("mu",)),
    "tomography": (tomography, dict(step_multiplier=10.0, epochs=4.0, seed=1),
                   BREGMAN + ("mu",)),
    "barrier-poisson": (barrier_poisson, dict(epochs=4.0, seed=3), BREGMAN),
    "preconditioned": (preconditioned, dict(eta=0.5, epochs=3.0, seed=4, record_every=1),
                       BREGMAN),
}


def trace_digest(config, problem):
    csv = run(config, problem).to_csv_string()
    body = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
    return hashlib.sha256(body.encode()).hexdigest()


def digests(name):
    build, fields, methods = CASES[name]
    problem = build()
    return {m: trace_digest(SolverConfig(method=m, **fields), problem) for m in methods}


# recorded before the records shared their data pass with the steps
GOLDEN = {
    "barrier-poisson": {
        "bgd": "adb90aec3094b675d3b8651ba59ea5dc0c55a721b94345c3f976b6df24947949",
        "bsaga": "672d944aebfa1757ca71d0231d4529a2e2073e2317b22632797d77a31c0add3c",
        "bsgd": "00694275cd30864dfcdf5d7017395c3219f1b7955c3d5fa8858c831bf51d9ca3",
        "bsvrg": "f5519d5572e5b2d99cf438314c708b64888e4c5418e922d4ce1b013c2f20a186"
    },
    "interpolation": {
        "bgd": "ae6de1e6442faef24d002c7e71505c1cfe5ca44e051d2257f59ed7698c9ce141",
        "bsaga": "a2666086883a90f3ddeeec29d4e069b81bd9aced399d0e0d4e485d27287099e9",
        "bsgd": "adc23afa32d829709ece054e29894fa45c624947042bcb357c9aee5a78c6832f",
        "bsvrg": "da5a1c24d08b0bc7bce9fdc6588bb562301d13e1973550ae4b91b26e24b3db43",
        "mu": "552f554c317402861bfc9c1c219407608d598022ea535a28657b902bbccc6ab8"
    },
    "interpolation-f-star": {
        "bgd": "ad64dd5645600bb0849edc7e59049b6e57c8793835d7e02a562684513691de8b",
        "bsaga": "4e16c63375d19c3e3927c078bb08e1cf40d962dfeb3ad72204b93b09d37a8cd3",
        "bsgd": "060170eb217535e01ec8c98444a3c91c63da3dac92c7ddfd4f2ca60312d1835c",
        "bsvrg": "7e17af450f92bd938f3c3d4d85a5f5fdad7c607439fdcb242036dcceaecf4552",
        "mu": "c7542161be515ed2b9ec1bdd0567b53292aadcf1f2211339dc6212799e4e1b35"
    },
    "interpolation-gain": {
        "bsaga": "768bc21d235ccc4527989124dc6fa8528aac3a0317ab5d8cbba7b92d9a1886b6"
    },
    "preconditioned": {  # re-recorded when each solve began along the run's carried Newton matrix
        "bgd": "b8ce732e73ab9d605de81db11a6e762d178d92c57eea99b07b83aba709e4283a",
        "bsaga": "1fcc6041657bba4e2efbc57cf4c721d1df960b93937d7fd985ba162c044f97e1",
        "bsgd": "fcad72c7051f8fc6ef31d23304053438c637049061f92dc7a006aecb44050b0c",
        "bsvrg": "770e1b4290c803f4642f4897ad6036a287df6ed4d0c8447f8db0e1f3be1ed73b"
    },
    "tomography": {
        "bgd": "021b01f95e8b9b456771f7fa479f38ceab1fc3d61b66a26325a5342357619677",
        "bsaga": "e1c160fb7ccc01f108a33bc6cb07e6fc26a48655f10ca5db9bce7a9e34aafaca",
        "bsgd": "0c2c75f89519839a311aec9d4e004abef4deec3f6621d9d07ac100b5bb58e39a",
        "bsvrg": "7425cf4c37620b1fdbc81b8d12446ebcd943bcf4c19ac4903259e8ef02745bbb",
        "mu": "b0aa8415ec8ebf4584f9008452042da47c97e8df7e6ff4d57fe7bccff3f4c14e"
    }
}


@pytest.mark.parametrize("name", CASES)
def test_trace_digests_unchanged(name):
    assert digests(name) == GOLDEN[name]


class StrictRun:
    """A run state that offers run() only the three methods of the run
    protocol: grad (for x0), advance and divergence."""

    __slots__ = ("grad", "advance", "divergence")

    def __init__(self, mirror):
        self.grad, self.advance, self.divergence = mirror.grad, mirror.advance, mirror.divergence


@pytest.mark.parametrize("name", CASES)
def test_runs_need_only_the_run_protocol(monkeypatch, name):
    made = []
    for cls in (ReferenceFunction, Preconditioner):
        def strict(self, _for_run=cls.for_run):
            made.append(StrictRun(_for_run(self)))
            return made[-1]
        monkeypatch.setattr(cls, "for_run", strict)
    assert digests(name) == GOLDEN[name]
    assert len(made) >= len(GOLDEN[name])


if __name__ == "__main__":  # print the table above
    import json
    print(json.dumps({name: digests(name) for name in CASES}, indent=4))
